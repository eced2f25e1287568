// Command rodtrace generates and inspects the synthetic input-rate traces
// used throughout the experiments, and renders causal tuple traces captured
// by the engine's sampled span instrumentation.
//
// Usage:
//
//	rodtrace -kind pkt|tcp|http|poisson|bmodel|onoff|diurnal [-seed 1] \
//	         [-bins 4096] [-mean 100] [-stats] [-csv out.csv] [-sparkline]
//	rodtrace -spans spans.jsonl [-top 5]
//
// With -spans, rodtrace reads span events (JSON lines from rodengine
// -events, or the JSON array served by the monitor's /events endpoint),
// correlates them into per-tuple traces keyed by origin timestamp and
// sequence number, prints the per-stage latency decomposition across all
// sampled tuples, and renders the slowest fully-correlated traces hop by
// hop with the critical-path stage starred. Traces whose hops appear out of
// causal order are reported (they indicate clock or instrumentation bugs).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rodsp/internal/trace"
)

func main() {
	var (
		kind      = flag.String("kind", "http", "pkt | tcp | http | poisson | bmodel | onoff | diurnal")
		seed      = flag.Int64("seed", 1, "generator seed")
		bins      = flag.Int("bins", 4096, "trace length in 1s bins (non-preset kinds)")
		mean      = flag.Float64("mean", 1, "scale the trace to this mean rate")
		csvPath   = flag.String("csv", "", "write the trace as CSV to this path ('-' for stdout)")
		stats     = flag.Bool("stats", true, "print summary statistics")
		sparkline = flag.Bool("sparkline", false, "print a coarse text sparkline")
		spansPath = flag.String("spans", "", "correlate span events from this file (JSONL or JSON array) instead of generating a trace")
		top       = flag.Int("top", 5, "with -spans: render the N slowest fully-correlated traces")
	)
	flag.Parse()

	if *spansPath != "" {
		if err := runSpans(*spansPath, *top); err != nil {
			fail(err.Error())
		}
		return
	}

	var tr *trace.Trace
	switch *kind {
	case "pkt":
		tr = trace.PKT(*seed)
	case "tcp":
		tr = trace.TCP(*seed)
	case "http":
		tr = trace.HTTP(*seed)
	case "poisson":
		tr = trace.Poisson(trace.PoissonConfig{Mean: 1, Dt: 1, Bins: *bins, Seed: *seed})
	case "bmodel":
		levels := 1
		for 1<<levels < *bins {
			levels++
		}
		tr = trace.BModel(trace.BModelConfig{Bias: 0.62, Levels: levels, Total: float64(int(1) << levels), Dt: 1, Seed: *seed})
	case "onoff":
		tr = trace.ParetoOnOff(trace.ParetoOnOffConfig{
			Sources: 30, OnAlpha: 1.4, OffAlpha: 1.5, MeanOn: 2, MeanOff: 6,
			PeakRate: 1, Dt: 1, Bins: *bins, Seed: *seed,
		})
	case "diurnal":
		tr = trace.Diurnal(trace.DiurnalConfig{
			Mean: 1, Swing: 0.6, Period: float64(*bins) / 2, Noise: 0.1, Dt: 1, Bins: *bins, Seed: *seed,
		})
	default:
		fail("unknown -kind " + *kind)
	}
	tr = tr.ScaleToMean(*mean)

	if *stats {
		fmt.Printf("trace %s: %d bins x %gs\n", tr.Name, tr.Len(), tr.Dt)
		fmt.Printf("mean=%.3f std=%.3f cv=%.3f peak/mean=%.2f hurst=%.3f\n",
			tr.Mean(), tr.Std(), tr.CV(), tr.PeakToMean(), tr.Hurst())
		for _, k := range []int{4, 16, 64} {
			if tr.Len()/k >= 16 {
				fmt.Printf("cv@x%d=%.3f ", k, tr.Aggregate(k).CV())
			}
		}
		fmt.Println()
	}
	if *sparkline {
		fmt.Println(spark(tr, 96))
	}
	if *csvPath != "" {
		out := os.Stdout
		if *csvPath != "-" {
			f, err := os.Create(*csvPath)
			if err != nil {
				fail(err.Error())
			}
			defer f.Close()
			out = f
		}
		if err := trace.WriteCSV(out, tr); err != nil {
			fail(err.Error())
		}
	}
}

// spark renders the trace as a one-line block-character sparkline.
func spark(tr *trace.Trace, width int) string {
	levels := []rune(" ▁▂▃▄▅▆▇█")
	agg := tr
	if tr.Len() > width {
		agg = tr.Aggregate(tr.Len() / width)
	}
	max := agg.Max()
	if max == 0 {
		return strings.Repeat(" ", agg.Len())
	}
	var b strings.Builder
	for _, r := range agg.Rates {
		idx := int(r / max * float64(len(levels)-1))
		b.WriteRune(levels[idx])
	}
	return b.String()
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "rodtrace:", msg)
	os.Exit(1)
}
