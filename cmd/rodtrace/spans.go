package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"rodsp/internal/obs"
)

// Span-trace analysis: the engine emits one "span" event per stage crossing
// of a sampled tuple (ingress, process, outbox on every hop; sink once).
// All spans of one tuple share its origin timestamp, so ts is the
// correlation key even as operators rewrite the stream id and each node
// renumbers the streams it produces (a span's seq is its stream's number
// on that hop).

// hop is one reconstructed stage crossing.
type hop struct {
	eventSeq int64   // emission order within the event log
	t        float64 // event wall-clock offset (seconds since log start)
	stage    string  // ingress | process | outbox | sink
	where    string  // node or peer address
	stream   int64
	// Stage durations (seconds). ingress→transit wait; process→queue+
	// service; outbox→wait; sink→deliver (+end-to-end latency).
	durs map[string]float64
}

// tupleTrace is every hop of one sampled tuple in emission order.
type tupleTrace struct {
	ts      int64
	hops    []hop
	latency float64 // end-to-end sink latency (seconds; 0 until the sink hop)
	sunk    bool
}

// runSpans implements rodtrace -spans: parse, correlate, report.
func runSpans(path string, top int) error {
	events, err := readSpanEvents(path)
	if err != nil {
		return err
	}
	traces, stageVals := correlate(events)
	if len(traces) == 0 {
		return fmt.Errorf("no span events in %s (run rodengine with -events and -trace-sample, or fetch /events from a monitor)", path)
	}

	// Aggregate decomposition across every sampled stage crossing.
	fmt.Printf("spans: %d span events, %d correlated tuples\n\n", len(events), len(traces))
	fmt.Printf("%-8s %8s %10s %10s %10s\n", "stage", "count", "mean_ms", "p50_ms", "p99_ms")
	for _, st := range []string{"transit", "queue", "service", "outbox", "deliver"} {
		vals := stageVals[st]
		if len(vals) == 0 {
			fmt.Printf("%-8s %8d %10s %10s %10s\n", st, 0, "-", "-", "-")
			continue
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		qs, _ := obs.Quantiles(vals, 50, 99)
		fmt.Printf("%-8s %8d %10.3f %10.3f %10.3f\n",
			st, len(vals), sum/float64(len(vals))*1000, qs[0]*1000, qs[1]*1000)
	}

	// Causality audit: within one tuple, hops must appear in emission order
	// with non-decreasing wall offsets.
	complete, broken := 0, 0
	for _, tr := range traces {
		if !sort.SliceIsSorted(tr.hops, func(i, j int) bool { return tr.hops[i].eventSeq < tr.hops[j].eventSeq }) {
			sort.Slice(tr.hops, func(i, j int) bool { return tr.hops[i].eventSeq < tr.hops[j].eventSeq })
		}
		for i := 1; i < len(tr.hops); i++ {
			if tr.hops[i].t < tr.hops[i-1].t {
				broken++
				break
			}
		}
		if tr.sunk && len(tr.hops) > 1 {
			complete++
		}
	}
	fmt.Printf("\n%d fully-correlated traces (source→…→sink), %d with non-monotone hop times\n", complete, broken)

	// Render the slowest complete traces, starring the critical-path stage.
	full := make([]*tupleTrace, 0, complete)
	for _, tr := range traces {
		if tr.sunk && len(tr.hops) > 1 {
			full = append(full, tr)
		}
	}
	sort.Slice(full, func(i, j int) bool { return full[i].latency > full[j].latency })
	if top > len(full) {
		top = len(full)
	}
	for _, tr := range full[:top] {
		fmt.Printf("\ntrace ts=%d  end-to-end %.3f ms over %d hops\n",
			tr.ts, tr.latency*1000, len(tr.hops))
		// Critical path = the single largest stage duration in the trace.
		worst, worstDur := -1, 0.0
		type line struct {
			label string
			dur   float64
		}
		var lines []line
		for _, h := range tr.hops {
			for _, st := range stagesOf(h.stage) {
				d, ok := h.durs[st]
				if !ok {
					continue
				}
				lines = append(lines, line{fmt.Sprintf("%-8s %s", st, h.where), d})
				if d > worstDur {
					worst, worstDur = len(lines)-1, d
				}
			}
		}
		for i, l := range lines {
			mark := " "
			if i == worst {
				mark = "*"
			}
			fmt.Printf("  %s %-24s %9.3f ms\n", mark, l.label, l.dur*1000)
		}
	}
	return nil
}

// stagesOf maps a span's emission point to its stage duration keys in
// causal order (a process span carries both the queue wait and service).
func stagesOf(stage string) []string {
	switch stage {
	case "ingress":
		return []string{"transit"}
	case "process":
		return []string{"queue", "service"}
	case "outbox":
		return []string{"outbox"}
	case "sink":
		return []string{"deliver"}
	}
	return nil
}

// readSpanEvents loads obs events from JSONL (one object per line, the
// EventLog writer format) or a JSON array (the /events endpoint), keeping
// only span events.
func readSpanEvents(path string) ([]obs.Event, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	var all []obs.Event
	if len(trimmed) > 0 && trimmed[0] == '[' {
		if err := json.Unmarshal(trimmed, &all); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	} else {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var e obs.Event
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			all = append(all, e)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	spans := all[:0]
	for _, e := range all {
		if e.Type == obs.EventSpan {
			spans = append(spans, e)
		}
	}
	return spans, nil
}

// correlate groups spans into per-tuple traces and collects per-stage
// duration samples (seconds) for the aggregate table.
func correlate(events []obs.Event) (map[int64]*tupleTrace, map[string][]float64) {
	traces := map[int64]*tupleTrace{}
	stageVals := map[string][]float64{}
	record := func(st string, v float64) float64 {
		stageVals[st] = append(stageVals[st], v)
		return v
	}
	for _, e := range events {
		f := e.Fields
		stage, _ := f["stage"].(string)
		ts, tsOK := num(f["ts"])
		if stage == "" || !tsOK {
			continue
		}
		tr := traces[int64(ts)]
		if tr == nil {
			tr = &tupleTrace{ts: int64(ts)}
			traces[int64(ts)] = tr
		}
		h := hop{eventSeq: e.Seq, t: e.T, stage: stage, durs: map[string]float64{}}
		if v, ok := num(f["stream"]); ok {
			h.stream = int64(v)
		}
		if v, ok := num(f["node"]); ok {
			h.where = fmt.Sprintf("node %.0f", v)
		} else if a, ok := f["addr"].(string); ok {
			h.where = "→ " + a
		}
		switch stage {
		case "ingress":
			if v, ok := num(f["wait"]); ok {
				h.durs["transit"] = record("transit", v)
			}
		case "process":
			if v, ok := num(f["queue"]); ok {
				h.durs["queue"] = record("queue", v)
			}
			if v, ok := num(f["service"]); ok {
				h.durs["service"] = record("service", v)
			}
		case "outbox":
			if v, ok := num(f["wait"]); ok {
				h.durs["outbox"] = record("outbox", v)
			}
		case "sink":
			h.where = "sink"
			if v, ok := num(f["deliver"]); ok {
				h.durs["deliver"] = record("deliver", v)
			}
			if v, ok := num(f["latency"]); ok {
				tr.latency = v
			}
			tr.sunk = true
		}
		tr.hops = append(tr.hops, h)
	}
	return traces, stageVals
}

// num coerces a JSON-decoded field (float64 after round-trip, or the
// original int/int64 when read in-process) to float64.
func num(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	}
	return 0, false
}
