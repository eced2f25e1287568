package engine

import (
	"testing"
	"time"

	"rodsp/internal/mat"
	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/query"
)

// chainGraph builds in → a → b (delay costs ca, cb) for move-planning tests.
func chainGraph(t *testing.T, ca, cb float64) *query.Graph {
	t.Helper()
	b := query.NewBuilder()
	in := b.Input("I")
	s := b.Delay("a", ca, 1, in)
	b.Delay("b", cb, 1, s)
	return b.MustBuild()
}

func TestPlanMovesBudgetAndOrder(t *testing.T) {
	cur := []int{0, 0}
	cand := []int{1, 2}
	opLoads := []float64{0.8, 0.1}
	stale := []bool{false, false, false}

	// Budget 1: only the heaviest operator moves.
	moves := planMoves(cur, cand, opLoads, stale, 1)
	if len(moves) != 1 || moves[0].Op != 0 || moves[0].To != 1 {
		t.Fatalf("budget-1 moves = %+v, want op 0 → node 1", moves)
	}
	// Budget 2: both, heaviest first.
	moves = planMoves(cur, cand, opLoads, stale, 2)
	if len(moves) != 2 || moves[0].Op != 0 || moves[1].Op != 1 {
		t.Fatalf("budget-2 moves = %+v, want ops [0 1]", moves)
	}
}

func TestPlanMovesAdmissibility(t *testing.T) {
	g := chainGraph(t, 0.001, 0.0001)
	opLoads := []float64{0.8, 0.1}
	stale := []bool{false, false, false}

	// a on node 0 feeds b on node 1, so node 0 holds b's input route. A
	// relay entry names the consumer it serves, so b may move onto a's node
	// and a onto b's: both moves are planned.
	cur := []int{0, 1}
	if in := g.Op(1).Inputs[0]; g.Stream(in).Producer != 0 {
		t.Fatalf("b's input %d is not a's output", in)
	}
	moves := planMoves(cur, []int{1, 0}, opLoads, stale, 2)
	if len(moves) != 2 || moves[0] != (ctrlMove{Op: 0, To: 1, Load: 0.8}) || moves[1] != (ctrlMove{Op: 1, To: 0, Load: 0.1}) {
		t.Fatalf("moves = %+v, want a → node 1 and b → node 0, where its input is routed", moves)
	}

	// Stale endpoints are skipped: a stale destination for a, a stale
	// source for everything on node 0.
	cur = []int{0, 0}
	cand := []int{1, 2}
	moves = planMoves(cur, cand, opLoads, []bool{false, true, false}, 2)
	if len(moves) != 1 || moves[0].Op != 1 {
		t.Fatalf("moves = %+v, want only op 1 (node 1 stale)", moves)
	}
	moves = planMoves(cur, cand, opLoads, []bool{true, false, false}, 2)
	if len(moves) != 0 {
		t.Fatalf("moves = %+v, want none (source node stale)", moves)
	}
}

func TestMinHeadroomSkipsStale(t *testing.T) {
	loads := []float64{0.5, 2.0, 0.9}
	caps := mat.Vec{1, 1, 1}
	h, arg := obs.MinHeadroom(loads, caps, []bool{false, false, false})
	if arg != 1 || h > -0.99 {
		t.Fatalf("MinHeadroom = (%g, %d), want node 1 at -1", h, arg)
	}
	// Node 1 stale (its load figure is fiction): the minimum moves on.
	h, arg = obs.MinHeadroom(loads, caps, []bool{false, true, false})
	if arg != 2 || h < 0.09 || h > 0.11 {
		t.Fatalf("MinHeadroom with stale node = (%g, %d), want node 2 at 0.1", h, arg)
	}
	h, arg = obs.MinHeadroom(loads, caps, []bool{true, true, true})
	if arg != -1 {
		t.Fatalf("all-stale MinHeadroom arg = %d, want -1", arg)
	}
	_ = h
}

func TestControllerConfigDefaults(t *testing.T) {
	cfg := ControllerConfig{}
	cfg.applyDefaults()
	if cfg.Interval != 500*time.Millisecond || cfg.Horizon != 3*cfg.Interval {
		t.Fatalf("interval/horizon defaults wrong: %v/%v", cfg.Interval, cfg.Horizon)
	}
	if cfg.Cooldown != 2*time.Second || cfg.MaxMoves != 1 || cfg.HeadroomLow != 0.1 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

// A killed node must be marked stale by the monitor — latch cleared,
// gauges zeroed, node_stale emitted — instead of freezing at its
// last-observed values.
func TestMonitorMarksDeadNodeStale(t *testing.T) {
	g := chainGraph(t, 0.0001, 0.0001)
	plan, _ := placement.NewPlan([]int{0, 1}, 2)
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
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		t.Fatal(err)
	}
	ev := obs.NewEventLog(0)
	m := cl.StartMonitor(MonitorConfig{
		Interval: 20 * time.Millisecond,
		Events:   ev,
		LM:       lm,
		Plan:     plan,
		Caps:     mat.Vec(caps),
	})
	defer m.Close()

	time.Sleep(80 * time.Millisecond)
	if snap := m.Snapshot(); snap.Stale[0] || snap.Stale[1] {
		t.Fatalf("healthy nodes marked stale: %+v", snap.Stale)
	}
	if err := cl.Controls[1].Fault(FaultSpec{Kill: true}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		snap := m.Snapshot()
		if snap.Stale[1] {
			if snap.Utils[1] != 0 || snap.Headrooms[1] != 0 {
				t.Fatalf("stale node gauges not zeroed: util=%g head=%g", snap.Utils[1], snap.Headrooms[1])
			}
			if snap.Overloaded[1] {
				t.Fatal("overload latch still set on a stale node")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("node 1 never marked stale after kill")
		}
		time.Sleep(20 * time.Millisecond)
	}
	e, ok := ev.Find(obs.EventNodeStale)
	if !ok {
		t.Fatal("no node_stale event emitted")
	}
	if e.Fields["state"] != "stale" {
		t.Fatalf("node_stale state = %v, want stale", e.Fields["state"])
	}
}

// Controller lifecycle on an idle cluster: requires a monitor with a load
// model, registers its metrics, decides on schedule, and holds while the
// headroom is fine.
func TestControllerIdleHolds(t *testing.T) {
	g := chainGraph(t, 0.0001, 0.0001)
	plan, _ := placement.NewPlan([]int{0, 1}, 2)
	caps := []float64{1, 1}
	cl, err := StartCluster(caps)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.StartController(ControllerConfig{}); err == nil {
		t.Fatal("StartController without a monitor must error")
	}
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		t.Fatal(err)
	}
	m := cl.StartMonitor(MonitorConfig{
		Interval: 10 * time.Millisecond,
		LM:       lm,
		Plan:     plan,
		Caps:     mat.Vec(caps),
	})
	defer m.Close()
	ctrl, err := cl.StartController(ControllerConfig{Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for ctrl.Stats().Decisions < 3 {
		if time.Now().After(deadline) {
			t.Fatal("controller never decided")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctrl.Close()
	st := ctrl.Stats()
	if st.Moves != 0 || st.MoveFailures != 0 {
		t.Fatalf("idle cluster provoked migrations: %+v", st)
	}
	if st.LastAction != "hold:headroom_ok" && st.LastAction != "hold:warmup" {
		t.Fatalf("last action = %q, want a hold", st.LastAction)
	}
	if m.Registry().Counter(obs.MetricControllerDecisions).Value() != st.Decisions {
		t.Fatal("decision counter not registered through the monitor registry")
	}
}
