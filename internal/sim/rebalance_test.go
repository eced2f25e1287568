package sim

import (
	"math"
	"testing"

	"rodsp/internal/mat"
	"rodsp/internal/query"
	"rodsp/internal/trace"
)

// twoChains builds two independent op chains (one per input), both placed
// initially on node 0.
func twoChains(t *testing.T, cost float64) *query.Graph {
	t.Helper()
	b := query.NewBuilder()
	for k := 0; k < 2; k++ {
		in := b.Input("")
		s := b.Delay("", cost, 1, in)
		b.Delay("", cost, 1, s)
	}
	return b.MustBuild()
}

func TestLLFPolicyMovesFromHotToCold(t *testing.T) {
	p := &LLFPolicy{Tolerance: 0.1}
	// 4 ops, all on node 0, loads 0.4/0.3/0.2/0.1; node 1 empty.
	moves := p.Plan([]float64{0.4, 0.3, 0.2, 0.1}, []int{0, 0, 0, 0}, mat.VecOf(1, 1))
	if len(moves) == 0 {
		t.Fatal("policy must propose moves for a 1.0-vs-0 spread")
	}
	// Apply and verify the spread shrank below tolerance or no candidate fit.
	node := []int{0, 0, 0, 0}
	util := mat.VecOf(1.0, 0.0)
	loads := []float64{0.4, 0.3, 0.2, 0.1}
	for _, mv := range moves {
		util[node[mv.Op]] -= loads[mv.Op]
		util[mv.To] += loads[mv.Op]
		node[mv.Op] = mv.To
	}
	if util.Max()-util.Min() > 0.25 {
		t.Fatalf("spread after moves = %g (moves %v)", util.Max()-util.Min(), moves)
	}
}

func TestLLFPolicyRespectsTolerance(t *testing.T) {
	p := &LLFPolicy{Tolerance: 0.5}
	moves := p.Plan([]float64{0.3, 0.2}, []int{0, 1}, mat.VecOf(1, 1))
	if len(moves) != 0 {
		t.Fatalf("spread 0.1 < tolerance 0.5 must yield no moves, got %v", moves)
	}
}

func TestLLFPolicyMaxMoves(t *testing.T) {
	p := &LLFPolicy{Tolerance: 0.0001, MaxMoves: 1}
	moves := p.Plan([]float64{0.2, 0.2, 0.2, 0.2}, []int{0, 0, 0, 0}, mat.VecOf(1, 1))
	if len(moves) != 1 {
		t.Fatalf("MaxMoves=1 violated: %v", moves)
	}
}

func TestCorrelationPolicyPrefersCorrelatedOp(t *testing.T) {
	p := &CorrelationPolicy{Tolerance: 0.05}
	// History: ops 0 and 1 on the hot node; op 0 tracks the node total
	// (correlated), op 1 anti-tracks. Equal current loads.
	p.observe([]float64{0.5, 0.1, 0})
	p.observe([]float64{0.1, 0.5, 0})
	p.observe([]float64{0.6, 0.05, 0})
	p.observe([]float64{0.05, 0.6, 0})
	p.observe([]float64{0.7, 0.02, 0})
	moves := p.Plan([]float64{0.3, 0.3, 0}, []int{0, 0, 1}, mat.VecOf(1, 1))
	if len(moves) == 0 {
		t.Fatal("expected a move")
	}
	// Node series = op0+op1 ≈ dominated by whichever spikes; op0's spikes
	// are larger, so op0 correlates more with the node total.
	if moves[0].Op != 0 {
		t.Fatalf("expected the correlated operator (0) to move, got %v", moves)
	}
}

func TestCorrelationPolicyNoHistoryFallsBackToLargest(t *testing.T) {
	p := &CorrelationPolicy{Tolerance: 0.05}
	moves := p.Plan([]float64{0.1, 0.4, 0}, []int{0, 0, 1}, mat.VecOf(1, 1))
	if len(moves) == 0 {
		t.Fatal("expected a move")
	}
	if moves[0].Op > 1 {
		t.Fatalf("moved a non-hot-node op: %v", moves)
	}
}

func TestRebalanceConfigValidation(t *testing.T) {
	g := twoChains(t, 0.001)
	base := Config{
		Graph:      g,
		NodeOf:     []int{0, 0, 0, 0},
		Capacities: mat.VecOf(1, 1),
		Sources: map[query.StreamID]*trace.Trace{
			g.Inputs()[0]: constantTrace(10, 10),
			g.Inputs()[1]: constantTrace(10, 10),
		},
		Duration: 10,
	}
	bad := base
	bad.Rebalance = &RebalanceConfig{Period: 0, Policy: &LLFPolicy{}}
	if _, err := Run(bad); err == nil {
		t.Fatal("zero period must error")
	}
	bad = base
	bad.Rebalance = &RebalanceConfig{Period: 1}
	if _, err := Run(bad); err == nil {
		t.Fatal("missing policy must error")
	}
	bad = base
	bad.Rebalance = &RebalanceConfig{Period: 1, MigrationTime: -1, Policy: &LLFPolicy{}}
	if _, err := Run(bad); err == nil {
		t.Fatal("negative migration time must error")
	}
}

// Dynamic rebalancing fixes a bad static plan under steady load: all four
// operators start on node 0; the balancer spreads them and utilization
// evens out.
func TestRebalancingFixesBadPlanUnderSteadyLoad(t *testing.T) {
	g := twoChains(t, 0.004)
	sources := map[query.StreamID]*trace.Trace{
		g.Inputs()[0]: constantTrace(60, 120),
		g.Inputs()[1]: constantTrace(60, 120),
	}
	run := func(rb *RebalanceConfig) *Result {
		res, err := Run(Config{
			Graph:      g,
			NodeOf:     []int{0, 0, 0, 0},
			Capacities: mat.VecOf(1, 1),
			Sources:    sources,
			Duration:   120,
			Rebalance:  rb,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := run(nil)
	dynamic := run(&RebalanceConfig{
		Period:        5,
		MigrationTime: 0.3,
		Policy:        &LLFPolicy{Tolerance: 0.1},
	})
	// Static: node 0 carries everything (0.96), node 1 idle.
	if static.Utilization[1] != 0 {
		t.Fatalf("static plan should leave node 1 idle, got %v", static.Utilization)
	}
	if static.Rebalance.Moves != 0 || static.FinalNodeOf[0] != 0 {
		t.Fatal("static run must not move anything")
	}
	// Dynamic: moves happened, both nodes loaded, spread small.
	if dynamic.Rebalance.Moves == 0 {
		t.Fatal("dynamic run made no moves")
	}
	spread := dynamic.Utilization.Max() - dynamic.Utilization.Min()
	if spread > 0.25 {
		t.Fatalf("dynamic spread = %g, want balanced (util %v)", spread, dynamic.Utilization)
	}
	moved := false
	for _, n := range dynamic.FinalNodeOf {
		if n != 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("FinalNodeOf shows no migration")
	}
	if dynamic.Rebalance.StallSeconds <= 0 {
		t.Fatal("migrations must report stall time")
	}
}

// The paper's argument: under fast bursts, migration chases the load and
// its stall cost adds latency; a resilient static plan needs no moves. We
// verify the mechanism (stall inflates latency) with an aggressive
// rebalancer under an alternating load.
func TestAggressiveMigrationUnderBurstsHurts(t *testing.T) {
	g := twoChains(t, 0.003)
	// Anti-phase square waves: stream 0 busy while stream 1 idles, 4s phase.
	mk := func(phase int) *trace.Trace {
		rates := make([]float64, 120)
		for i := range rates {
			if (i/4)%2 == phase {
				rates[i] = 250
			} else {
				rates[i] = 10
			}
		}
		return trace.New("square", 1, rates)
	}
	sources := map[query.StreamID]*trace.Trace{
		g.Inputs()[0]: mk(0),
		g.Inputs()[1]: mk(1),
	}
	run := func(plan []int, rb *RebalanceConfig) *Result {
		res, err := Run(Config{
			Graph:      g,
			NodeOf:     plan,
			Capacities: mat.VecOf(1, 1),
			Sources:    sources,
			Duration:   120,
			WarmUp:     10,
			Rebalance:  rb,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Resilient static plan: each stream's chain split across both nodes —
	// the anti-phase bursts are absorbed without any movement.
	resilient := run([]int{0, 1, 1, 0}, nil)
	if resilient.Rebalance.Moves != 0 {
		t.Fatal("static run must not move")
	}
	// Stream-segregated plan (what a single-point balancer builds) driven
	// dynamically: the balancer reacts to each phase, always one step behind,
	// and pays migration stalls.
	chasing := run([]int{0, 0, 1, 1}, &RebalanceConfig{
		Period:        2,
		MigrationTime: 0.5,
		Policy:        &LLFPolicy{Tolerance: 0.05},
	})
	if chasing.Rebalance.Moves == 0 {
		t.Fatal("expected the rebalancer to chase the bursts")
	}
	if chasing.LatencyP99 <= resilient.LatencyP99 {
		t.Fatalf("resilient static plan should beat the chasing rebalancer: static %g vs chasing %g",
			resilient.LatencyP99, chasing.LatencyP99)
	}
}

func TestRebalanceIgnoresBogusPolicyMoves(t *testing.T) {
	g := twoChains(t, 0.001)
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     []int{0, 0, 0, 0},
		Capacities: mat.VecOf(1, 1),
		Sources: map[query.StreamID]*trace.Trace{
			g.Inputs()[0]: constantTrace(50, 20),
			g.Inputs()[1]: constantTrace(50, 20),
		},
		Duration:  20,
		Rebalance: &RebalanceConfig{Period: 5, Policy: bogusPolicy{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebalance.Moves != 0 {
		t.Fatalf("bogus moves must be ignored, got %d", res.Rebalance.Moves)
	}
	if res.Rebalance.Rounds == 0 {
		t.Fatal("rounds must still be counted")
	}
}

type bogusPolicy struct{}

func (bogusPolicy) Plan(opLoads []float64, nodeOf []int, caps mat.Vec) []Move {
	return []Move{{Op: -1, To: 0}, {Op: 0, To: 99}, {Op: 1, To: nodeOf[1]}}
}

func TestCorrelationHelperFunctions(t *testing.T) {
	if got := correlation([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("correlation = %g", got)
	}
	if got := correlation([]float64{1, 1}, []float64{2, 3}); got != 0 {
		t.Fatalf("constant-series correlation = %g", got)
	}
	if got := correlation(nil, nil); got != 0 {
		t.Fatalf("empty correlation = %g", got)
	}
}
