package main

import (
	"fmt"
	"time"
)

// setupRepeats is how many times a data-plane run sets the workload up;
// setup_s is the median, the last set-up is the one measured on. One set-up
// takes 4–14 ms and varies threefold inside a run, hence so many.
const setupRepeats = 31

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch directory for the WAL and the trace file
	plan     string // data-plane segment sequence; "" = the full defaultPlan (the smoke test shortens it)
}

// defaultPlan alternates capacity and latency segments so every metric's
// windows are spread over the whole run and slow host drift hits both alike.
const defaultPlan = "CLCLCL"

// segment kinds of a data-plane run.
const (
	segClosed = 'C'
	segOpen   = 'L'
)

// runDataplane runs one data-plane workload: repeated set-up, then
// the segment plan with a quiescence barrier and a loss check after each segment.
func runDataplane(cfg runConfig, spec dpSpec) (*outcome, error) {
	if cfg.trace {
		return runDataplaneTraced(cfg, spec)
	}
	o := newOutcome(endToEnd)
	d, setups, err := setupDataplane(cfg, spec, nil, 0)
	if err != nil {
		return nil, err
	}
	defer d.close()
	o.set("setup_s", median(setups))
	o.samples["setup_s"] = fmt.Sprintf("median of %d set-ups", len(setups))

	var s series
	plan := cfg.plan
	if plan == "" {
		plan = defaultPlan
	}
	segDur := segmentDuration(cfg.seconds, len(plan))
	for _, kind := range plan {
		if err := runSegment(d, kind, segDur, &s, o); err != nil {
			return nil, err
		}
	}
	finishDataplane(d, &s, o)
	o.setWindows("capacity_per_s", s.capacity, true)
	o.setWindows("cpu_ns_per_item", s.cpuNs, false)
	o.setWindows("latency_p50_ms", s.p50Ms, false)
	o.setWindows("latency_p95_ms", s.p95Ms, false)
	return o, nil
}

// segmentDuration splits the run into n equal segments of whole windows, at
// least two windows each (the first is discarded).
func segmentDuration(seconds float64, n int) time.Duration {
	d := time.Duration(seconds / float64(n) * float64(time.Second)).Truncate(window)
	if d < 2*window {
		d = 2 * window
	}
	return d
}

// setupDataplane sets the workload up setupRepeats times, tearing down all
// but the last, and returns the live dataplane with every set-up time.
func setupDataplane(cfg runConfig, spec dpSpec, tr *tracer, parent int) (*dataplane, []float64, error) {
	var keys []uint64
	if spec.sharded {
		var err error
		if keys, err = genKeys(cfg.seed); err != nil {
			return nil, nil, err
		}
	}
	dir := cfg.dir
	if spec.durable {
		dir = walRoot(cfg.dir)
	}
	var setups []float64
	for i := 0; ; i++ {
		start := time.Now()
		sp := tr.begin("setup", parent)
		d, err := startDataplane(spec, keys, dir)
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == setupRepeats-1 {
			return d, setups, nil
		}
		d.close()
	}
}

// runSegment runs one segment, drains the cluster and accounts for loss:
// any tuple sent but not delivered is a failed item, and on a closed-loop
// segment it is also a correctness failure (nothing may be shed there).
func runSegment(d *dataplane, kind rune, dur time.Duration, s *series, o *outcome) error {
	before := d.lost
	var err error
	if kind == segClosed {
		err = d.closedSegment(dur, s)
	} else {
		err = d.openSegment(dur, s)
	}
	if err != nil {
		return fmt.Errorf("%s: %c segment: %w", d.spec.name, kind, err)
	}
	missing, err := d.settle()
	if err != nil {
		return fmt.Errorf("%s: after %c segment: %w", d.spec.name, kind, err)
	}
	lost := missing - before
	if lost == 0 {
		return nil
	}
	l, err := d.ledger()
	if err != nil {
		return err
	}
	if kind == segClosed {
		o.fail("closed-loop segment lost %d tuples (sent %d, delivered %d; ledger %+v)", lost, d.sent, d.delivered.Value(), l)
	} else if accounted := l.shed + l.outboxDropped + l.noRoute; accounted != missing {
		o.fail("open-loop segment: %d tuples missing but the ledger accounts for %d (%+v)", missing, accounted, l)
	}
	return nil
}

// finishDataplane fills in the item counts, the duplicate check and the
// validity flags shared by the untraced and the traced run.
func finishDataplane(d *dataplane, s *series, o *outcome) {
	o.Attempted = d.sent
	o.Failed = d.sent - d.delivered.Value()
	if d.spec.durable {
		dups := d.dups + d.cl.Collector.Duplicates()
		if dups != 0 {
			o.fail("%d duplicate deliveries at the sink", dups)
			o.Failed += dups
		}
		o.flags["wal_filesystem"] = fsTypeOf(d.walDir)
	}
	o.flags["l_rate_per_s"] = fmt.Sprint(d.spec.rate)
	late := quantile(s.lateMs, 0.95)
	achieved := median(s.lRate) / float64(d.spec.rate)
	o.flags["loadgen_late_ms_p95"] = fmt.Sprintf("%.3f", late)
	o.flags["l_rate_achieved"] = fmt.Sprintf("%.4f", achieved)
	if late > float64(tick)/float64(time.Millisecond) || achieved < 0.99 {
		o.flags["invalid"] = "true"
	}
}
