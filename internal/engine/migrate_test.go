package engine

import (
	"testing"
	"time"

	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/trace"
)

// Live migration mid-run: a→b starts co-located on node 0; b moves to
// node 1 while the source keeps injecting. Processing must continue, node 1
// must pick up load, and the collector must keep receiving sink tuples.
func TestLiveMigration(t *testing.T) {
	b := query.NewBuilder()
	in := b.Input("I")
	s := b.Delay("a", 0.0005, 1, in)
	b.Delay("b", 0.004, 1, s)
	g := b.MustBuild()

	plan, _ := placement.NewPlan([]int{0, 0}, 2)
	caps := []float64{1, 1}
	cl, err := StartCluster(caps)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	srcDone := make(chan int64)
	src := &SourceDriver{
		Stream: g.Inputs()[0],
		Trace:  trace.New("const", 1, []float64{120, 120, 120}),
		Addrs:  []string{cl.Nodes[0].Addr()},
	}
	go func() {
		n, _ := src.Run(2500*time.Millisecond, stop)
		srcDone <- n
	}()

	// Move mid-stream: wait until the pipeline demonstrably flows (sink
	// progress) rather than trusting a fixed settle time.
	waitUntil(t, 3*time.Second, "pipeline flowing before the move", func() bool {
		c, _, _, _, _ := cl.Collector.LatencyStats()
		return c > 0
	})
	preStats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if preStats[1].Utilization > 0.02 {
		t.Fatalf("node 1 should be idle before the move, util %g", preStats[1].Utilization)
	}
	preCount, _, _, _, _ := cl.Collector.LatencyStats()

	// Move operator b (id 1) to node 1 with a 100ms state stall.
	if err := cl.MoveOperator(g, plan, 1, 1, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if plan.NodeOf[1] != 1 {
		t.Fatal("plan not updated by the move")
	}

	// Post-move progress is a condition, not a timer: node 1 must be
	// carrying b's load and the sink still receiving. Demand a real slab of
	// post-move traffic (~0.5s at 120/s) so the cumulative utilization
	// checked after the drain stays well above the floor.
	waitUntil(t, 5*time.Second, "node 1 processing after the move", func() bool {
		sts, err := cl.Stats()
		if err != nil {
			return false
		}
		c, _, _, _, _ := cl.Collector.LatencyStats()
		return c >= preCount+60 && sts[1].Utilization >= 0.1
	})
	close(stop)
	injected := <-srcDone
	if err := cl.AwaitQuiescence(5*time.Second, 50*time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}

	postStats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 now carries b's load (0.004·120 ≈ 0.48 while active).
	if postStats[1].Utilization < 0.1 {
		t.Fatalf("node 1 took no load after the move: %+v", postStats[1])
	}
	// The pipeline kept flowing: the collector saw tuples after the move.
	postCount, _, _, _, _ := cl.Collector.LatencyStats()
	if postCount <= preCount {
		t.Fatalf("no sink tuples after the move: %d -> %d", preCount, postCount)
	}
	// End-to-end continuity: most injected tuples reached the sink (the
	// hand-over may drop nothing; allow in-flight slack).
	if postCount < injected*8/10 {
		t.Fatalf("only %d of %d tuples reached the sink", postCount, injected)
	}
}

func TestMoveOperatorValidation(t *testing.T) {
	b := query.NewBuilder()
	in := b.Input("I")
	b.Delay("a", 0.001, 1, in)
	g := b.MustBuild()
	plan, _ := placement.NewPlan([]int{0}, 2)
	caps := []float64{1, 1}
	cl, err := StartCluster(caps)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.MoveOperator(g, plan, 0, 5, 0); err == nil {
		t.Fatal("bad destination must error")
	}
	if err := cl.MoveOperator(g, plan, 99, 1, 0); err == nil {
		t.Fatal("unknown operator must error")
	}
	// Moving to the current home is a no-op.
	if err := cl.MoveOperator(g, plan, 0, 0, 0); err != nil {
		t.Fatalf("no-op move errored: %v", err)
	}
}

// A migration that fails after the destination install must roll the
// install back: the operator stays at its source in the plan, the
// destination does not keep a live copy, and a migrate_abort event records
// the failure. Killing the source node makes the post-install stall fail
// deterministically.
func TestMoveOperatorRollbackOnSourceFailure(t *testing.T) {
	b := query.NewBuilder()
	in := b.Input("I")
	b.Delay("a", 0.001, 1, in)
	g := b.MustBuild()
	plan, _ := placement.NewPlan([]int{0}, 2)
	caps := []float64{1, 1}
	cl, err := StartCluster(caps)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ev := obs.NewEventLog(0)
	cl.SetEvents(ev)
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Controls[0].Fault(FaultSpec{Kill: true}); err != nil {
		t.Fatal(err)
	}
	// Kill acknowledges before dying; wait until the control plane is
	// genuinely down so the migration's source stall must fail.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := cl.Controls[0].Stats(); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node 0 never died after the kill")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cl.MoveOperator(g, plan, 0, 1, 50*time.Millisecond); err == nil {
		t.Fatal("migrating off a dead source must error")
	}
	if plan.NodeOf[0] != 0 {
		t.Fatalf("aborted move mutated the plan: op 0 on node %d", plan.NodeOf[0])
	}
	if _, ok := ev.Find(obs.EventMigrateAbort); !ok {
		t.Fatal("no migrate_abort event emitted")
	}
	// The destination rolled back: removing the operator there must report
	// it was never (still) deployed.
	if err := cl.Controls[1].RemoveOp(0, nil); err == nil {
		t.Fatal("destination kept a live copy after the abort")
	}
}

func TestControlMigrationCommandErrors(t *testing.T) {
	n, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ctl, err := DialControl(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if _, err := ctl.call(&controlRequest{Cmd: "addop"}); err == nil {
		t.Fatal("addop without op must error")
	}
	if _, err := ctl.call(&controlRequest{Cmd: "removeop"}); err == nil {
		t.Fatal("removeop without id must error")
	}
	if err := ctl.RemoveOp(42, nil); err == nil {
		t.Fatal("removing an undeployed op must error")
	}
	if _, err := ctl.call(&controlRequest{Cmd: "stall"}); err == nil {
		t.Fatal("stall without duration must error")
	}
	neg := -1.0
	if _, err := ctl.call(&controlRequest{Cmd: "stall", StallSec: &neg}); err == nil {
		t.Fatal("negative stall must error")
	}
}

// A dead downstream peer must not poison the sender forever: after the
// peer restarts (same address), the outbox reconnects and delivery resumes.
func TestPeerReconnectAfterFailure(t *testing.T) {
	a, err := NewNodeConfig("127.0.0.1:0", 1, NodeConfig{
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	bNode, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	addr := bNode.Addr()
	if a.sendBatch(addr, []Tuple{{Stream: 1}}) != 1 {
		t.Fatal("first send rejected")
	}
	deadline := time.Now().Add(2 * time.Second)
	for bNode.Stats().Injected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first tuple never delivered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	bNode.Close()
	// Sends never block while the peer is down: the outbox buffers (and
	// eventually drops), the caller always returns immediately.
	a.sendBatch(addr, []Tuple{{Stream: 1}})
	// Restart a node on the same address; the outbox must reconnect and
	// deliver subsequent tuples.
	b2, err := NewNode(addr, 1)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer b2.Close()
	deadline = time.Now().Add(4 * time.Second)
	for {
		a.sendBatch(addr, []Tuple{{Stream: 1}})
		if b2.Stats().Injected > 0 {
			return // reconnected and delivering
		}
		if time.Now().After(deadline) {
			t.Fatal("sender never recovered after peer restart")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestStallChargesVirtualCPU(t *testing.T) {
	n, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ctl, err := DialControl(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Stall(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Fixed window by design, not a drain stand-in: utilization is
	// cumulative busy/elapsed, so the assertion needs a known elapsed
	// denominator (~200ms busy over ~350ms).
	time.Sleep(350 * time.Millisecond)
	st, err := ctl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// ~200ms of busy time over ~350ms elapsed.
	if st.Utilization < 0.3 || st.Utilization > 0.9 {
		t.Fatalf("stall utilization = %g, want ~0.57", st.Utilization)
	}
}
