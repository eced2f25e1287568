package main

import (
	"fmt"
	"io"
	"sort"
)

// metric is one reported value. BENCHMARK.json lists the same names and
// units; smoke_test.go keeps the two in step.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports all of
// them in the untraced run.
var endToEnd = []metricDef{
	{"capacity_per_s", "1/s"},
	{"cpu_ns_per_item", "ns"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"setup_s", "s"},
}

// perLayer is what the traced run reports. A metric whose layer the workload
// bypasses reads 0 (e.g. wal.* on chain, core.* on the data-plane workloads).
var perLayer = []metricDef{
	{"loadgen.late_ms_p95", "ms"},
	{"loadgen.sent_per_s", "1/s"},
	{"host.steal_share", "share"},
	{"go.allocs_per_item", "count"},
	{"go.alloc_bytes_per_item", "bytes"},
	{"go.gc_pause_ms_per_s", "ms/s"},
	{"wire.encode_ns_per_tuple", "ns"},
	{"wire.decode_ns_per_tuple", "ns"},
	{"wire.bytes_per_tuple", "bytes"},
	{"node.hop_ns_per_tuple", "ns"},
	{"node.queue_len_p50", "count"},
	{"node.shed_share", "share"},
	{"node.lane_skew", "ratio"},
	{"outbox.dropped_share", "share"},
	{"outbox.pending_p50", "count"},
	{"outbox.send_max_ms", "ms"},
	{"collector.ns_per_tuple", "ns"},
	{"stage.transit_us", "us"},
	{"stage.queue_us", "us"},
	{"stage.service_us", "us"},
	{"stage.outbox_us", "us"},
	{"stage.deliver_us", "us"},
	{"stage.sum_vs_latency", "ratio"},
	{"shard.slot_skew", "ratio"},
	{"control.repartition_ms", "ms"},
	{"wal.append_ns_per_tuple", "ns"},
	{"wal.commit_wait_ms_p50", "ms"},
	{"wal.records_per_sync", "count"},
	{"wal.bytes_per_tuple", "bytes"},
	{"wal.replay_ns_per_tuple", "ns"},
	{"wal.peak_bytes", "bytes"},
	{"durable.restart_ms", "ms"},
	{"durable.dedup_dropped", "count"},
	{"durable.checkpoints", "count"},
	{"query.loadmodel_ms", "ms"},
	{"core.place_ms", "ms"},
	{"core.placebest_ms", "ms"},
	{"feasible.ratio_ms", "ms"},
	{"feasible.samples_per_s", "1/s"},
	{"core.shardplan_ms", "ms"},
	{"core.plan_ratio_to_ideal", "ratio"},
	{"placement.llf_ratio_to_ideal", "ratio"},
	{"trace.overhead_share", "share"},
	{"budget.coverage", "share"},
}

// outcome is everything one run produced: the contract's JSON fields plus
// the human-readable context printed above it.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	flags    map[string]string // validity flags: host, toolchain, WAL filesystem, invalid
	samples  map[string]string // what each end-to-end value was taken over
	problems []string          // failed correctness checks
}

func newOutcome(defs []metricDef) *outcome {
	o := &outcome{Correct: true, Metrics: map[string]metric{}, flags: map[string]string{}, samples: map[string]string{}}
	for _, d := range defs {
		o.Metrics[d.name] = metric{Unit: d.unit}
	}
	return o
}

// set records a metric value; the name must be one newOutcome was given.
func (o *outcome) set(name string, v float64) {
	m, ok := o.Metrics[name]
	if !ok {
		panic("benchmark: metric " + name + " is not defined for this run")
	}
	m.Value = v
	o.Metrics[name] = m
}

// value returns a metric already set (0 if not).
func (o *outcome) value(name string) float64 { return o.Metrics[name].Value }

// setWindows records an end-to-end metric as the calm decile of its
// per-window samples (see calmLow), with the window count for the report.
func (o *outcome) setWindows(name string, xs []float64, higherIsBetter bool) {
	if higherIsBetter {
		o.set(name, calmHigh(xs))
	} else {
		o.set(name, calmLow(xs))
	}
	o.samples[name] = fmt.Sprintf("calm decile of %d windows", len(xs))
}

// fail records a failed correctness check.
func (o *outcome) fail(format string, args ...any) {
	o.Correct = false
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// print writes the human-readable report: flags, every metric by name with
// its unit and what it was taken over, and any failed check.
func (o *outcome) print(w io.Writer, defs []metricDef) {
	for _, k := range sortedKeys(o.flags) {
		fmt.Fprintf(w, "flag   %-28s %s\n", k, o.flags[k])
	}
	for _, d := range defs {
		line := fmt.Sprintf("metric %-28s %.6g %s", d.name, o.Metrics[d.name].Value, d.unit)
		if n, ok := o.samples[d.name]; ok {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "items  attempted %d failed %d\n", o.Attempted, o.Failed)
	for _, p := range o.problems {
		fmt.Fprintln(w, "FAIL  ", p)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
