package engine

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/trace"
)

// TestMonitorOverloadLifecycle drives a one-node cluster well past its
// capacity and asserts the monitor's full observable story: an
// overload_onset event while saturated, an overload_clear event after the
// queue drains, a feasibility-headroom series that goes non-positive at
// the EWMA-estimated rates, and a Prometheus exposition carrying the
// canonical metrics.
func TestMonitorOverloadLifecycle(t *testing.T) {
	// One delay operator costing 0.02 cost-units/tuple on a capacity-1
	// node: sustainable throughput 50 tuples/s.
	b := query.NewBuilder()
	in := b.Input("I")
	b.Delay("d", 0.02, 1, in)
	g := b.MustBuild()
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := placement.NewPlan([]int{0}, 1)
	caps := []float64{1}

	cl, err := StartCluster(caps)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	m := cl.StartMonitor(MonitorConfig{
		Interval:   50 * time.Millisecond,
		LM:         lm,
		Plan:       plan,
		Caps:       caps,
		TraceEvery: 25,
	})
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}

	// 300 tuples/s against 50/s of capacity: the queue builds at ~250/s,
	// past obs.OverloadQueue well before the drive ends.
	src := &SourceDriver{
		Stream: in,
		Trace:  trace.New("const", 1, []float64{300, 300}),
		Addrs:  []string{cl.Nodes[0].Addr()},
		Count:  m.SourceCounter(in),
	}
	if _, err := src.Run(600*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}

	// Wait for the queue to drain and the monitor to see the clearance.
	deadline := time.Now().Add(8 * time.Second)
	ev := m.Events()
	for ev.Count(obs.EventOverloadClear) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no overload_clear before deadline; events: %+v", ev.Events())
		}
		time.Sleep(50 * time.Millisecond)
	}

	onset, ok := ev.Find(obs.EventOverloadOnset)
	if !ok {
		t.Fatal("no overload_onset event")
	}
	if onset.Level != obs.LevelWarn {
		t.Fatalf("onset level = %s, want warn", onset.Level)
	}
	clr, _ := ev.Find(obs.EventOverloadClear)
	if clr.Seq <= onset.Seq {
		t.Fatalf("clear (seq %d) must follow onset (seq %d)", clr.Seq, onset.Seq)
	}

	// The headroom at the observed ~300 tuples/s is 1 − 300·0.02 = −5.
	head := m.Series().Series(obs.MetricNodeHeadroom, "node", "0")
	if min, ok := head.Min(); !ok || min > 0 {
		t.Fatalf("headroom min = %g (ok=%v), want ≤ 0 during overload", min, ok)
	}
	if onset.Fields["headroom"] == nil {
		t.Fatal("onset event must carry the headroom")
	}

	// Utilization must have been sampled at saturation.
	util := m.Series().Series(obs.MetricNodeUtilization, "node", "0")
	sawSaturated := false
	_, vs := util.Points()
	for _, v := range vs {
		if v >= 0.9 {
			sawSaturated = true
		}
	}
	if !sawSaturated {
		t.Fatalf("utilization series never reached saturation: %v", vs)
	}

	// Sink tuples flowed through the shared histogram path.
	if m.Registry().Histogram(obs.MetricSinkLatency, nil).Count() == 0 {
		t.Fatal("sink latency histogram is empty")
	}
	if sum, ok := cl.Collector.LatencySummary(); !ok || sum.Count == 0 {
		t.Fatalf("latency summary = %+v ok=%v", sum, ok)
	}

	// Per-tuple trace spans were sampled.
	if _, ok := ev.Find(obs.EventSpan); !ok {
		t.Fatal("no span events despite TraceEvery")
	}
	// Control-plane lifecycle appears in the log.
	if _, ok := ev.Find(obs.EventNodeConnect); !ok {
		t.Fatal("no node_connect event")
	}
	if _, ok := ev.Find(obs.EventDeploy); !ok {
		t.Fatal("no deploy event")
	}

	// Prometheus exposition carries the canonical metric families.
	var buf bytes.Buffer
	if err := m.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, name := range []string{
		obs.MetricNodeUtilization,
		obs.MetricNodeQueueDepth,
		obs.MetricNodeHeadroom,
		obs.MetricSinkLatency + "_bucket",
	} {
		if !strings.Contains(text, name) {
			t.Fatalf("/metrics output missing %s:\n%s", name, text)
		}
	}
}

// TestMonitorTracksMigration checks that a live migration keeps the
// headroom computation on the new placement and emits the three migration
// phase events in order.
func TestMonitorTracksMigration(t *testing.T) {
	g := pipeline(t, 0.002, 0.001)
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := placement.NewPlan([]int{0, 0}, 2)
	caps := []float64{1, 1}
	cl, err := StartCluster(caps)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	m := cl.StartMonitor(MonitorConfig{
		Interval: 25 * time.Millisecond,
		LM:       lm,
		Plan:     plan,
		Caps:     caps,
	})
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	src := &SourceDriver{
		Stream: g.Inputs()[0],
		Trace:  trace.New("const", 1, []float64{100, 100}),
		Addrs:  []string{cl.Nodes[0].Addr()},
		Count:  m.SourceCounter(g.Inputs()[0]),
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		src.Run(5*time.Second, stop)
	}()
	time.Sleep(300 * time.Millisecond)

	// Move operator "b" to node 1 mid-stream.
	opB := query.OpID(1)
	if err := cl.MoveOperator(g, plan, opB, 1, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	<-done

	ev := m.Events()
	install, okI := ev.Find(obs.EventMigrateInstall)
	stall, okS := ev.Find(obs.EventMigrateStall)
	remove, okR := ev.Find(obs.EventMigrateRemove)
	if !okI || !okS || !okR {
		t.Fatalf("missing migration events: install=%v stall=%v remove=%v", okI, okS, okR)
	}
	if !(install.Seq < stall.Seq && stall.Seq < remove.Seq) {
		t.Fatalf("migration phases out of order: %d %d %d", install.Seq, stall.Seq, remove.Seq)
	}

	// After the move the monitor attributes b's load to node 1: at 100
	// tuples/s node 1 carries 0.1, so its headroom settles near 0.9.
	_, v, ok := m.Series().Series(obs.MetricNodeHeadroom, "node", "1").Last()
	if !ok {
		t.Fatal("no headroom samples for node 1")
	}
	if v > 0.95 || v < 0.8 {
		t.Fatalf("node 1 headroom after migration = %g, want ≈ 0.9", v)
	}
}
