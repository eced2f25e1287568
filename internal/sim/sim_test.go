package sim

import (
	"math"
	"testing"

	"rodsp/internal/mat"
	"rodsp/internal/query"
	"rodsp/internal/trace"
)

// singleOpGraph: one input → one delay op (cost, sel 1) → sink.
func singleOpGraph(t *testing.T, cost float64) *query.Graph {
	t.Helper()
	b := query.NewBuilder()
	in := b.Input("I")
	b.Delay("op", cost, 1, in)
	return b.MustBuild()
}

func constantTrace(rate, duration float64) *trace.Trace {
	bins := int(duration) + 1
	rates := make([]float64, bins)
	for i := range rates {
		rates[i] = rate
	}
	return trace.New("const", 1, rates)
}

func sources(g *query.Graph, trs ...*trace.Trace) map[query.StreamID]*trace.Trace {
	m := map[query.StreamID]*trace.Trace{}
	for i, in := range g.Inputs() {
		m[in] = trs[i]
	}
	return m
}

func TestHalfLoadedSingleServer(t *testing.T) {
	g := singleOpGraph(t, 0.05) // service 50ms
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     []int{0},
		Capacities: mat.VecOf(1),
		Sources:    sources(g, constantTrace(10, 100)), // rho = 0.5
		Duration:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Utilization[0]-0.5) > 0.05 {
		t.Fatalf("utilization = %g, want ~0.5", res.Utilization[0])
	}
	// Deterministic arrivals at gap 100ms, service 50ms: no queueing, every
	// tuple's latency is exactly the service time.
	if math.Abs(res.LatencyMean-0.05) > 1e-9 {
		t.Fatalf("latency = %g, want 0.05 exactly", res.LatencyMean)
	}
	if res.Overloaded(0.9, 1) {
		t.Fatal("half-loaded system must not be overloaded")
	}
	if res.TuplesIn == 0 || res.TuplesOut == 0 {
		t.Fatal("no tuples flowed")
	}
	// Selectivity 1, single sink: out == in (minus any in-flight at the end).
	if res.TuplesOut < res.TuplesIn-2 {
		t.Fatalf("tuples out %d vs in %d", res.TuplesOut, res.TuplesIn)
	}
}

func TestOverloadedServerGrowsBacklog(t *testing.T) {
	g := singleOpGraph(t, 0.05)
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     []int{0},
		Capacities: mat.VecOf(1),
		Sources:    sources(g, constantTrace(40, 60)), // rho = 2
		Duration:   60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization[0] < 0.99 {
		t.Fatalf("utilization = %g, want pinned at 1", res.Utilization[0])
	}
	// Backlog should be roughly (rho-1)*rate_served*duration = 20/s·60 = 1200.
	if res.Backlog[0] < 600 {
		t.Fatalf("backlog = %d, want large", res.Backlog[0])
	}
	if !res.Overloaded(0.99, 100) {
		t.Fatal("overloaded system not detected")
	}
	// Latency must blow up relative to service time.
	if res.LatencyP95 < 1 {
		t.Fatalf("overloaded P95 latency = %g, want seconds-scale", res.LatencyP95)
	}
}

func TestCapacityScalesService(t *testing.T) {
	g := singleOpGraph(t, 0.05)
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     []int{0},
		Capacities: mat.VecOf(2), // double speed
		Sources:    sources(g, constantTrace(10, 50)),
		Duration:   50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Utilization[0]-0.25) > 0.05 {
		t.Fatalf("utilization = %g, want ~0.25", res.Utilization[0])
	}
	if math.Abs(res.LatencyMean-0.025) > 1e-9 {
		t.Fatalf("latency = %g, want 0.025", res.LatencyMean)
	}
}

func TestSelectivityAccumulator(t *testing.T) {
	b := query.NewBuilder()
	in := b.Input("I")
	b.Filter("f", 0.001, 0.5, in)
	g := b.MustBuild()
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     []int{0},
		Capacities: mat.VecOf(1),
		Sources:    sources(g, constantTrace(100, 20)),
		Duration:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.TuplesOut) / float64(res.TuplesIn)
	if math.Abs(ratio-0.5) > 0.02 {
		t.Fatalf("output ratio = %g, want 0.5", ratio)
	}
}

func TestFanOutDuplicates(t *testing.T) {
	b := query.NewBuilder()
	in := b.Input("I")
	s := b.Map("m", 0.0001, in)
	b.Map("a", 0.0001, s)
	b.Map("b", 0.0001, s)
	g := b.MustBuild()
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     []int{0, 0, 0},
		Capacities: mat.VecOf(1),
		Sources:    sources(g, constantTrace(50, 10)),
		Duration:   10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two sinks: roughly 2 output tuples per input.
	ratio := float64(res.TuplesOut) / float64(res.TuplesIn)
	if math.Abs(ratio-2) > 0.1 {
		t.Fatalf("fan-out ratio = %g, want 2", ratio)
	}
}

func TestChargeTransferRaisesUtilization(t *testing.T) {
	b := query.NewBuilder()
	in := b.Input("I")
	s := b.Map("m1", 0.001, in)
	b.SetXferCost(s, 0.004)
	b.Map("m2", 0.001, s)
	g := b.MustBuild()
	run := func(charge bool) *Result {
		res, err := Run(Config{
			Graph:          g,
			NodeOf:         []int{0, 1},
			Capacities:     mat.VecOf(1, 1),
			Sources:        sources(g, constantTrace(100, 30)),
			Duration:       30,
			ChargeTransfer: charge,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false)
	charged := run(true)
	// Sender: 0.001 + 0.004 xfer at rate 100 → ~0.5 vs ~0.1.
	if charged.Utilization[0] < plain.Utilization[0]+0.3 {
		t.Fatalf("transfer charge missing: %g vs %g", charged.Utilization[0], plain.Utilization[0])
	}
	if charged.Utilization[1] < plain.Utilization[1]+0.3 {
		t.Fatalf("receive charge missing: %g vs %g", charged.Utilization[1], plain.Utilization[1])
	}
}

func TestJoinPairsLoad(t *testing.T) {
	b := query.NewBuilder()
	l := b.Input("L")
	r := b.Input("R")
	b.Join("j", 0.0005, 0.1, 1.0, l, r)
	g := b.MustBuild()
	// Both sides at 20/s, window 1s: expected pair throughput w·rL·rR =
	// 400/s, so load ≈ 400 · 0.0005 = 0.2 — matching the paper's model.
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     []int{0},
		Capacities: mat.VecOf(1),
		Sources:    sources(g, constantTrace(20, 40), constantTrace(20, 40)),
		Duration:   40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Utilization[0]-0.2) > 0.05 {
		t.Fatalf("join utilization = %g, want ~0.2", res.Utilization[0])
	}
	// Output rate ≈ sel·window·rL·rR = 0.1·1·20·20 = 40/s ≈ input rate 40/s.
	ratio := float64(res.TuplesOut) / float64(res.TuplesIn)
	if math.Abs(ratio-1) > 0.15 {
		t.Fatalf("join output ratio = %g, want ~1", ratio)
	}
}

// The load-model prediction L^n·R/C must match simulated utilization on a
// random linear graph — the bridge between the analytical machinery and
// the executable system.
func TestUtilizationMatchesLoadModel(t *testing.T) {
	b := query.NewBuilder()
	i1, i2 := b.Input("a"), b.Input("b")
	f1 := b.Filter("f1", 0.002, 0.8, i1)
	m1 := b.Map("m1", 0.003, f1)
	f2 := b.Filter("f2", 0.004, 0.5, i2)
	u := b.Union("u", 0.001, m1, f2)
	b.Aggregate("agg", 0.002, 0.2, 5, u)
	g := b.MustBuild()
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf := []int{0, 1, 0, 1, 0}
	rates := mat.VecOf(40, 25)
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     nodeOf,
		Capacities: mat.VecOf(1, 1),
		Sources:    sources(g, constantTrace(rates[0], 60), constantTrace(rates[1], 60)),
		Duration:   60,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Predicted node loads.
	predicted := mat.NewVec(2)
	for j, node := range nodeOf {
		predicted[node] += lm.Coef.Row(j).Dot(rates)
	}
	for i := 0; i < 2; i++ {
		if math.Abs(res.Utilization[i]-predicted[i]) > 0.05 {
			t.Fatalf("node %d: simulated %g vs predicted %g", i, res.Utilization[i], predicted[i])
		}
	}
}

// Per-operator utilization must match the load model prediction op by op.
func TestOpUtilizationMatchesModel(t *testing.T) {
	b := query.NewBuilder()
	in := b.Input("I")
	f := b.Filter("f", 0.002, 0.5, in)
	b.Map("m", 0.004, f)
	g := b.MustBuild()
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		t.Fatal(err)
	}
	rates := mat.VecOf(80)
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     []int{0, 0},
		Capacities: mat.VecOf(1),
		Sources:    sources(g, constantTrace(rates[0], 60)),
		Duration:   60,
	})
	if err != nil {
		t.Fatal(err)
	}
	predicted := lm.Loads(rates) // f: 0.16, m: 0.16
	for op := range predicted {
		if math.Abs(res.OpUtilization[op]-predicted[op]) > 0.02 {
			t.Fatalf("op %d utilization %g, model predicts %g",
				op, res.OpUtilization[op], predicted[op])
		}
	}
}

// The nonlinear (join) load model of Section 6.2, evaluated at the actual
// rates, must match the executed utilization too.
func TestJoinUtilizationMatchesNonlinearModel(t *testing.T) {
	b := query.NewBuilder()
	l := b.Input("L")
	r := b.Input("R")
	fl := b.Filter("fl", 0.001, 0.5, l)
	fr := b.Filter("fr", 0.001, 0.5, r)
	j := b.Join("j", 0.0004, 0.05, 2.0, fl, fr)
	b.Map("m", 0.002, j)
	g := b.MustBuild()
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf := []int{0, 1, 0, 1}
	rates := mat.VecOf(30, 24)
	actual, err := lm.ActualLoads(rates)
	if err != nil {
		t.Fatal(err)
	}
	predicted := mat.NewVec(2)
	for op, node := range nodeOf {
		predicted[node] += actual[op]
	}
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     nodeOf,
		Capacities: mat.VecOf(1, 1),
		Sources:    sources(g, constantTrace(rates[0], 80), constantTrace(rates[1], 80)),
		Duration:   80,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if math.Abs(res.Utilization[i]-predicted[i]) > 0.06 {
			t.Fatalf("node %d: simulated %g vs nonlinear-model %g", i, res.Utilization[i], predicted[i])
		}
	}
}

// The simulator against queueing theory: Poisson arrivals + deterministic
// service is an M/D/1 queue, whose mean sojourn time is
// 1/μ + ρ/(2μ(1−ρ)) (Pollaczek–Khinchine). The measured mean must match.
func TestMD1MeanLatencyMatchesTheory(t *testing.T) {
	const (
		cost = 0.01  // service time 1/μ
		rate = 60.0  // λ → ρ = 0.6
		dur  = 400.0 // long run for a stable mean
	)
	g := singleOpGraph(t, cost)
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     []int{0},
		Capacities: mat.VecOf(1),
		Sources:    sources(g, constantTrace(rate, dur)),
		Duration:   dur,
		WarmUp:     dur * 0.1,
		Arrivals:   PoissonArrivals,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rho := rate * cost
	want := cost + rho*cost/(2*(1-rho)) // 0.01 + 0.0075 = 0.0175
	if math.Abs(res.LatencyMean-want) > want*0.12 {
		t.Fatalf("M/D/1 mean latency = %gs, theory %gs (ρ=%g)", res.LatencyMean, want, rho)
	}
}

func TestPoissonArrivalsApproximateRate(t *testing.T) {
	g := singleOpGraph(t, 0.001)
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     []int{0},
		Capacities: mat.VecOf(1),
		Sources:    sources(g, constantTrace(100, 50)),
		Duration:   50,
		Arrivals:   PoissonArrivals,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(res.TuplesIn) / 50
	if math.Abs(rate-100) > 10 {
		t.Fatalf("poisson arrival rate = %g, want ~100", rate)
	}
	// Poisson queueing at rho=0.1 still must show some variability.
	if res.LatencyMax <= res.LatencyP50 {
		t.Fatal("poisson run should show latency variation")
	}
}

func TestTimeVaryingTraceChangesLoad(t *testing.T) {
	g := singleOpGraph(t, 0.01)
	// 30s at rate 10, then 30s at rate 80 (rho 0.1 then 0.8).
	rates := make([]float64, 60)
	for i := range rates {
		if i < 30 {
			rates[i] = 10
		} else {
			rates[i] = 80
		}
	}
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     []int{0},
		Capacities: mat.VecOf(1),
		Sources:    sources(g, trace.New("step", 1, rates)),
		Duration:   60,
	})
	if err != nil {
		t.Fatal(err)
	}
	expected := (10*30 + 80*30) * 0.01 / 60.0 // 0.45
	if math.Abs(res.Utilization[0]-expected) > 0.05 {
		t.Fatalf("utilization = %g, want ~%g", res.Utilization[0], expected)
	}
	// ~2700 tuples.
	if res.TuplesIn < 2500 || res.TuplesIn > 2900 {
		t.Fatalf("TuplesIn = %d, want ~2700", res.TuplesIn)
	}
}

func TestZeroRateBinsSkipped(t *testing.T) {
	g := singleOpGraph(t, 0.001)
	rates := []float64{0, 0, 50, 0, 50, 0}
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     []int{0},
		Capacities: mat.VecOf(1),
		Sources:    sources(g, trace.New("sparse", 1, rates)),
		Duration:   6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Note RateAt clamps past the trace end, so only bins 2 and 4 fire
	// within [0,6): ~100 tuples.
	if res.TuplesIn < 90 || res.TuplesIn > 110 {
		t.Fatalf("TuplesIn = %d, want ~100", res.TuplesIn)
	}
}

func TestConfigErrors(t *testing.T) {
	g := singleOpGraph(t, 0.01)
	tr := constantTrace(1, 10)
	base := Config{
		Graph:      g,
		NodeOf:     []int{0},
		Capacities: mat.VecOf(1),
		Sources:    sources(g, tr),
		Duration:   10,
	}
	cases := map[string]func(c Config) Config{
		"nil graph":     func(c Config) Config { c.Graph = nil; return c },
		"plan size":     func(c Config) Config { c.NodeOf = []int{0, 0}; return c },
		"no nodes":      func(c Config) Config { c.Capacities = nil; return c },
		"zero capacity": func(c Config) Config { c.Capacities = mat.VecOf(0); return c },
		"bad node":      func(c Config) Config { c.NodeOf = []int{5}; return c },
		"zero duration": func(c Config) Config { c.Duration = 0; return c },
		"no source":     func(c Config) Config { c.Sources = nil; return c },
	}
	for name, mod := range cases {
		if _, err := Run(mod(base)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestMaxEventsGuard(t *testing.T) {
	g := singleOpGraph(t, 0.001)
	_, err := Run(Config{
		Graph:      g,
		NodeOf:     []int{0},
		Capacities: mat.VecOf(1),
		Sources:    sources(g, constantTrace(1000, 100)),
		Duration:   100,
		MaxEvents:  500,
	})
	if err == nil {
		t.Fatal("expected MaxEvents error")
	}
}

func TestDeterministicReplay(t *testing.T) {
	g := singleOpGraph(t, 0.002)
	cfg := Config{
		Graph:      g,
		NodeOf:     []int{0},
		Capacities: mat.VecOf(1),
		Sources:    sources(g, constantTrace(200, 20)),
		Duration:   20,
		Arrivals:   PoissonArrivals,
		Seed:       42,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TuplesIn != b2.TuplesIn || a.Events != b2.Events || a.LatencyMean != b2.LatencyMean {
		t.Fatal("same seed must replay identically")
	}
}

func TestWarmUpExcludesEarlyLatencies(t *testing.T) {
	g := singleOpGraph(t, 0.001)
	all, err := Run(Config{
		Graph: g, NodeOf: []int{0}, Capacities: mat.VecOf(1),
		Sources: sources(g, constantTrace(100, 10)), Duration: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	late, err := Run(Config{
		Graph: g, NodeOf: []int{0}, Capacities: mat.VecOf(1),
		Sources: sources(g, constantTrace(100, 10)), Duration: 10, WarmUp: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if late.LatencySamples >= all.LatencySamples {
		t.Fatalf("warm-up did not reduce samples: %d vs %d", late.LatencySamples, all.LatencySamples)
	}
	if late.LatencySamples < all.LatencySamples/3 {
		t.Fatalf("warm-up removed too much: %d vs %d", late.LatencySamples, all.LatencySamples)
	}
}

func TestMaxUtilization(t *testing.T) {
	r := &Result{Utilization: mat.VecOf(0.2, 0.9, 0.5)}
	if r.MaxUtilization() != 0.9 {
		t.Fatalf("MaxUtilization = %g", r.MaxUtilization())
	}
	if (&Result{}).MaxUtilization() != 0 {
		t.Fatal("empty result must give 0")
	}
}
