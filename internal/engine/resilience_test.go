package engine

import (
	"math"
	"testing"
	"time"

	"rodsp/internal/obs"
	"rodsp/internal/trace"
)

// Regression for the source-driver tick-drift bug: delivery used to
// accumulate a fixed per-tick quantum (rate × nominal period), so any tick
// arriving late — a coarse TickInterval stands in for scheduler delay —
// silently under-delivered. Integration over the measured inter-tick
// elapsed time must keep the delivered count within 1% of the trace
// integral regardless of tick granularity.
func TestSourceDriverCoarseTickWithinOnePercent(t *testing.T) {
	n, err := NewNode("127.0.0.1:0", 1) // no ops: tuples are counted and discarded
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const rate = 200.0
	src := &SourceDriver{
		Stream:       1,
		Trace:        trace.New("const", 1, []float64{rate, rate}),
		Addrs:        []string{n.Addr()},
		TickInterval: 47 * time.Millisecond, // ≈ a 2ms scheduler delayed 23×
	}
	injected, err := src.Run(time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := rate * 1.0 // trace integral over [0, duration]
	if diff := math.Abs(float64(injected) - want); diff > want*0.01 {
		t.Fatalf("injected %d tuples under coarse ticks, want %.0f ± 1%%", injected, want)
	}
	// Everything injected actually reached the destination.
	waitUntil(t, 2*time.Second, "delivery", func() bool {
		return n.Stats().Injected == injected
	})
}

// The collector's latency retention is a uniform reservoir, not a silent
// prefix cap: late-run samples must be represented and the digest must
// report both the exact observation count and the retained sample size.
func TestCollectorReservoirSampling(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetSampleCap(100)
	// Tuples stamped Ts = 0 and received at now have latency now: a 1 s
	// phase, then a 2 s phase, 5000 tuples each in batches of 50.
	batch := make([]Tuple, 50)
	for _, now := range []time.Duration{time.Second, 2 * time.Second} {
		for i := 0; i < 100; i++ {
			c.recordBatch(batch, "", int64(now))
		}
	}
	sum, ok := c.LatencySummary()
	if !ok {
		t.Fatal("no summary")
	}
	if sum.Count != 10000 {
		t.Fatalf("count = %d, want 10000", sum.Count)
	}
	if sum.Retained != 100 {
		t.Fatalf("retained = %d, want 100 (the reservoir cap)", sum.Retained)
	}
	// A prefix cap would retain only the first phase (all 1.0s): the
	// reservoir must hold samples from both phases.
	if sum.Max != 2.0 {
		t.Fatalf("max = %g: no late-phase sample survived — prefix-cap behavior", sum.Max)
	}
	if sum.Mean <= 1.05 || sum.Mean >= 1.95 {
		t.Fatalf("reservoir mean = %g, want both phases represented", sum.Mean)
	}
	// The exact running mean is unaffected by reservoir replacement.
	count, mean, _, _, _ := c.LatencyStats()
	if count != 10000 || math.Abs(mean-1.5) > 1e-9 {
		t.Fatalf("exact stats: count=%d mean=%g, want 10000 / 1.5", count, mean)
	}
}

// Cluster.Stats must degrade to a partial snapshot when one node's control
// channel fails: nil for the failed node, live stats for the rest, a
// control_error event, and no error while any node still answers.
func TestClusterStatsPartial(t *testing.T) {
	cl, err := StartCluster([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ev := obs.NewEventLog(0)
	cl.SetEvents(ev)
	if err := cl.Nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
	sts, err := cl.Stats()
	if err != nil {
		t.Fatalf("partial poll must not error while a node survives: %v", err)
	}
	if sts[0] == nil {
		t.Fatal("surviving node reported nil stats")
	}
	if sts[1] != nil {
		t.Fatal("dead node reported non-nil stats")
	}
	if ev.Count(obs.EventControlError) == 0 {
		t.Fatal("no control_error event for the failed stats call")
	}
}
