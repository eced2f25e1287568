package engine

import (
	"testing"
	"time"

	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/trace"
)

// Chaos: a deployed query runs under a mid-run node kill and a link
// partition, on volatile links (no WAL). The surviving nodes must never
// stall (the sink keeps receiving and the worker-path send never blocks: a
// volatile ring drops what does not fit, where a durable one would make the
// worker wait for acks), every lost tuple must be accounted by the
// shed/drop counters, and the cluster must close cleanly.
// Run with -race: the fault paths (outbox reconnect, control kill, partial
// stats) are exactly where data races would hide.
func TestChaosKillAndPartition(t *testing.T) {
	// I → a (node 0); a's output fans out to b (node 1) and c (node 2);
	// both outputs sink to the collector.
	qb := query.NewBuilder()
	in := qb.Input("I")
	s := qb.Delay("a", 0.0002, 1, in)
	qb.Delay("b", 0.0002, 1, s)
	qb.Delay("c", 0.0002, 1, s)
	g := qb.MustBuild()
	plan, err := placement.NewPlan([]int{0, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	caps := []float64{1, 1, 1}
	cl, err := StartClusterConfig(caps, NodeConfig{
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		OutboxCap:   512,
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			cl.Close()
		}
	}()
	ev := obs.NewEventLog(0)
	cl.SetEvents(ev)
	for _, nd := range cl.Nodes {
		nd.SetObserver(ev, nil, 0)
	}
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}

	addrs := cl.Addrs()
	srcDone := make(chan int64, 1)
	src := &SourceDriver{
		Stream: g.Inputs()[0],
		Trace:  trace.New("const", 1, []float64{400, 400, 400}),
		Addrs:  []string{addrs[0]},
	}
	go func() {
		n, err := src.Run(2200*time.Millisecond, nil)
		if err != nil {
			t.Errorf("source: %v", err)
		}
		srcDone <- n
	}()

	// Kill node 1 mid-stream: wait until the pipeline demonstrably flows
	// (sink progress), not for a fixed settle time.
	waitUntil(t, 3*time.Second, "pipeline flowing before the fault", func() bool {
		c, _, _, _, _ := cl.Collector.LatencyStats()
		return c > 0
	})
	countBeforeKill, _, _, _, _ := cl.Collector.LatencyStats()
	if err := cl.Controls[1].Fault(FaultSpec{Kill: true}); err != nil {
		t.Fatalf("kill: %v", err)
	}
	// Survivor progress after the kill is likewise a condition, not a timer.
	waitUntil(t, 3*time.Second, "sink progress after the kill", func() bool {
		c, _, _, _, _ := cl.Collector.LatencyStats()
		return c > countBeforeKill
	})
	countAfterKill, _, _, _, _ := cl.Collector.LatencyStats()

	// Partition the surviving path (node 0 → node 2), then heal it. This
	// sleep IS the fault — the partition must stay up long enough for
	// senders to run into it — not a drain stand-in.
	cl.Nodes[0].SetLinkFault(addrs[2], LinkFault{Sever: true})
	time.Sleep(400 * time.Millisecond)
	cl.Nodes[0].ClearLinkFault(addrs[2])

	injected := <-srcDone
	if injected == 0 {
		t.Fatal("source injected nothing")
	}
	// Drain: the killed node never flushes, so settle (stable counters on
	// the survivors) is the strongest barrier available.
	if err := cl.AwaitSettled(5*time.Second, 100*time.Millisecond); err != nil {
		t.Fatalf("settle: %v", err)
	}

	// The healed path delivered again after the partition.
	endCount, _, _, _, _ := cl.Collector.LatencyStats()
	if endCount <= countAfterKill {
		t.Fatalf("sink stalled across the partition: %d -> %d", countAfterKill, endCount)
	}

	// Partial stats: the killed node yields nil (with a control_error
	// event), the survivors still report.
	sts, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if sts[1] != nil {
		t.Fatal("killed node should report nil stats")
	}
	if sts[0] == nil || sts[2] == nil {
		t.Fatalf("survivors must report stats: %v %v", sts[0], sts[2])
	}
	if ev.Count(obs.EventControlError) == 0 {
		t.Fatal("no control_error event for the killed node's stats poll")
	}

	// The worker path never blocked on a dead or partitioned peer.
	if sts[0].SendMaxMs >= 50 {
		t.Fatalf("worker-path send blocked %.2fms (>= 50ms)", sts[0].SendMaxMs)
	}

	// The failure episodes surfaced: relay errors while links were down,
	// peer_up when the partition healed.
	if ev.Count(obs.EventRelayError) == 0 {
		t.Fatal("no relay_error events despite a kill and a partition")
	}
	waitUntil(t, 2*time.Second, "peer_up after heal", func() bool {
		return ev.Count(obs.EventPeerUp) > 0
	})

	// Clean close, bounded: a blocked outbox or leaked goroutine hangs here.
	done := make(chan struct{})
	go func() {
		cl.Close()
		close(done)
	}()
	select {
	case <-done:
		closed = true
	case <-time.After(5 * time.Second):
		t.Fatal("cluster close hung")
	}

	// At quiescence every tuple node 0 handed to an outbox is accounted:
	// enqueued == sent + dropped (+ pending, zero after close).
	for _, o := range cl.Nodes[0].outboxSnapshots() {
		if o.Enqueued != o.Sent+o.Dropped+o.Pending {
			t.Fatalf("outbox %s accounting broken: %+v", o.Addr, o)
		}
		if o.Pending != 0 {
			t.Fatalf("outbox %s still pending after close: %+v", o.Addr, o)
		}
	}
}
