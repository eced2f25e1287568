package core

import (
	"math"
	"math/rand"
	"testing"

	"rodsp/internal/feasible"
	"rodsp/internal/mat"
	"rodsp/internal/placement"
	"rodsp/internal/query"
)

func TestPlaceBalancedIdentityCase(t *testing.T) {
	// 4 identical ops per stream, 2 streams, 2 equal nodes: ROD must reach
	// the ideal — every stream split 2/2 — with ratio exactly 1.
	lo := mat.NewMatrix(8, 2)
	for j := 0; j < 4; j++ {
		lo.Set(j, 0, 1)
	}
	for j := 4; j < 8; j++ {
		lo.Set(j, 1, 1)
	}
	c := mat.VecOf(1, 1)
	plan, report, err := Place(lo, c, Config{Selector: SelectMaxPlaneDistance})
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := placement.Evaluate(plan, lo, c, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 1 {
		t.Fatalf("ratio = %g, want 1 (ideal reachable)", ratio)
	}
	if math.Abs(report.MinPlaneDistance-feasible.IdealPlaneDistance(2)) > 1e-9 {
		t.Fatalf("MinPlaneDistance = %g, want ideal %g", report.MinPlaneDistance, feasible.IdealPlaneDistance(2))
	}
	for _, d := range report.MinAxisDistances {
		if math.Abs(d-1) > 1e-9 {
			t.Fatalf("MinAxisDistances = %v, want all 1", report.MinAxisDistances)
		}
	}
}

func TestPhase1OrdersByNormDescending(t *testing.T) {
	lo := mat.MatrixOf(
		[]float64{1, 0},
		[]float64{5, 0},
		[]float64{0, 3},
		[]float64{2, 2},
	)
	_, report, err := Place(lo, mat.VecOf(1, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	norms := make([]float64, lo.Rows)
	for j := 0; j < lo.Rows; j++ {
		norms[j] = lo.Row(j).Norm()
	}
	for i := 1; i < len(report.Order); i++ {
		if norms[report.Order[i-1]] < norms[report.Order[i]]-1e-12 {
			t.Fatalf("order %v not descending by norm %v", report.Order, norms)
		}
	}
	if report.Order[0] != 1 {
		t.Fatalf("largest operator (o1) must come first, got %v", report.Order)
	}
}

func TestEveryOperatorAssignedExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		m := 1 + rng.Intn(40)
		d := 1 + rng.Intn(5)
		n := 1 + rng.Intn(6)
		lo := mat.NewMatrix(m, d)
		for j := 0; j < m; j++ {
			lo.Set(j, rng.Intn(d), 0.1+rng.Float64())
		}
		// Ensure each column has support.
		for k := 0; k < d; k++ {
			lo.Set(rng.Intn(m), k, 0.1+rng.Float64())
		}
		c := make(mat.Vec, n)
		for i := range c {
			c[i] = 0.5 + rng.Float64()
		}
		plan, report, err := Place(lo, c, Config{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if plan.NumOps() != m {
			t.Fatalf("plan covers %d of %d operators", plan.NumOps(), m)
		}
		if report.ClassIAssignments+report.ClassIIAssignments != m {
			t.Fatalf("class counts %d+%d != %d",
				report.ClassIAssignments, report.ClassIIAssignments, m)
		}
		// Column-sum conservation (constraint 1).
		ln := plan.NodeCoef(lo)
		if !ln.ColSums().Equal(lo.ColSums(), 1e-9) {
			t.Fatal("placement changed per-stream coefficient sums")
		}
		// Capacity-weighted column means of W are exactly 1.
		ct := c.Sum()
		for k := 0; k < d; k++ {
			var s float64
			for i := 0; i < n; i++ {
				s += report.Weights.At(i, k) * c[i] / ct
			}
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("weight column %d capacity-mean = %g, want 1", k, s)
			}
		}
	}
}

func TestPlaceErrors(t *testing.T) {
	lo := mat.MatrixOf([]float64{1, 0}, []float64{0, 1})
	c := mat.VecOf(1, 1)
	cases := map[string]func() error{
		"no operators": func() error {
			_, _, err := Place(&mat.Matrix{Rows: 0, Cols: 1}, c, Config{})
			return err
		},
		"no nodes": func() error {
			_, _, err := Place(lo, mat.Vec{}, Config{})
			return err
		},
		"zero capacity": func() error {
			_, _, err := Place(lo, mat.VecOf(1, 0), Config{})
			return err
		},
		"negative coefficient": func() error {
			bad := mat.MatrixOf([]float64{-1, 1}, []float64{1, 1})
			_, _, err := Place(bad, c, Config{})
			return err
		},
		"dead variable": func() error {
			bad := mat.MatrixOf([]float64{1, 0}, []float64{1, 0})
			_, _, err := Place(bad, c, Config{})
			return err
		},
		"lower bound length": func() error {
			_, _, err := Place(lo, c, Config{LowerBound: mat.VecOf(1)})
			return err
		},
		"negative lower bound": func() error {
			_, _, err := Place(lo, c, Config{LowerBound: mat.VecOf(-1, 0)})
			return err
		},
		"NaN lower bound": func() error {
			_, _, err := Place(lo, c, Config{LowerBound: mat.VecOf(math.NaN(), 0)})
			return err
		},
		"infinite lower bound": func() error {
			_, _, err := Place(lo, c, Config{LowerBound: mat.VecOf(0, math.Inf(1))})
			return err
		},
		"min-connections without graph": func() error {
			_, _, err := Place(lo, c, Config{Selector: SelectMinConnections})
			return err
		},
	}
	for name, f := range cases {
		if f() == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestSelectorStrings(t *testing.T) {
	if SelectRandom.String() != "random" ||
		SelectMaxPlaneDistance.String() != "max-plane-distance" ||
		SelectMinConnections.String() != "min-connections" {
		t.Fatal("selector names wrong")
	}
	if Selector(9).String() == "" {
		t.Fatal("unknown selector must render")
	}
}

func TestDeterministicWithMaxPlaneDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lo := mat.NewMatrix(20, 3)
	for i := range lo.Data {
		lo.Data[i] = rng.Float64()
	}
	c := mat.VecOf(1, 1, 1)
	a, _, err := Place(lo, c, Config{Selector: SelectMaxPlaneDistance, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Place(lo, c, Config{Selector: SelectMaxPlaneDistance, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("max-plane-distance selection must ignore the seed")
	}
}

func TestRandomSelectorSeedReproducible(t *testing.T) {
	lo := mat.NewMatrix(12, 2)
	rng := rand.New(rand.NewSource(5))
	for i := range lo.Data {
		lo.Data[i] = rng.Float64()
	}
	c := mat.VecOf(1, 1, 1)
	a, _, _ := Place(lo, c, Config{Seed: 7})
	b, _, _ := Place(lo, c, Config{Seed: 7})
	if !a.Equal(b) {
		t.Fatal("same seed must reproduce the plan")
	}
}

// ROD must land close to the brute-force optimum on small instances
// (Section 7.3.1 reports average 0.95, minimum 0.82 of optimal).
func TestRODCloseToOptimalOnSmallGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ratios []float64
	for trial := 0; trial < 15; trial++ {
		m := 6 + rng.Intn(5)
		d := 2
		lo := mat.NewMatrix(m, d)
		for j := 0; j < m; j++ {
			lo.Set(j, rng.Intn(d), 0.2+rng.Float64())
		}
		for k := 0; k < d; k++ {
			lo.Set(rng.Intn(m), k, 0.2+rng.Float64())
		}
		c := mat.VecOf(1, 1)
		_, opt, err := placement.Optimal(lo, c, placement.OptimalConfig{})
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := Place(lo, c, Config{Selector: SelectMaxPlaneDistance})
		if err != nil {
			t.Fatal(err)
		}
		got, err := placement.Evaluate(plan, lo, c, 4000)
		if err != nil {
			t.Fatal(err)
		}
		if opt > 0 {
			ratios = append(ratios, got/opt)
		}
	}
	var sum, min float64 = 0, 2
	for _, r := range ratios {
		sum += r
		if r < min {
			min = r
		}
	}
	avg := sum / float64(len(ratios))
	if avg < 0.9 {
		t.Fatalf("ROD/OPT average = %g, want >= 0.9", avg)
	}
	if min < 0.75 {
		t.Fatalf("ROD/OPT minimum = %g, want >= 0.75", min)
	}
}

func TestLowerBoundAwareROD(t *testing.T) {
	// Construct a case where the floor matters: two streams, stream 0 has a
	// high guaranteed rate. The LB-aware run must never do worse on the
	// restricted ratio.
	rng := rand.New(rand.NewSource(23))
	worse := 0
	for trial := 0; trial < 10; trial++ {
		m, d := 10, 2
		lo := mat.NewMatrix(m, d)
		for j := 0; j < m; j++ {
			lo.Set(j, rng.Intn(d), 0.2+rng.Float64())
		}
		for k := 0; k < d; k++ {
			lo.Set(rng.Intn(m), k, 0.2+rng.Float64())
		}
		c := mat.VecOf(1, 1, 1)
		lk := lo.ColSums()
		// Floor at 40% of stream 0's ideal-axis budget.
		lb := mat.VecOf(0.4*c.Sum()/lk[0], 0)

		base, _, err := Place(lo, c, Config{Selector: SelectMaxPlaneDistance})
		if err != nil {
			t.Fatal(err)
		}
		aware, _, err := Place(lo, c, Config{Selector: SelectMaxPlaneDistance, LowerBound: lb})
		if err != nil {
			t.Fatal(err)
		}
		rBase, err := placement.EvaluateFrom(base, lo, c, lb, 4000)
		if err != nil {
			t.Fatal(err)
		}
		rAware, err := placement.EvaluateFrom(aware, lo, c, lb, 4000)
		if err != nil {
			t.Fatal(err)
		}
		if rAware < rBase-0.03 {
			worse++
		}
	}
	if worse > 2 {
		t.Fatalf("LB-aware ROD lost on the restricted set in %d/10 trials", worse)
	}
}

func TestSelectMinConnectionsReducesCuts(t *testing.T) {
	// A deep chain per stream: the connection-aware Class I choice should
	// produce no more inter-node streams than the random one, on average.
	b := query.NewBuilder()
	for k := 0; k < 3; k++ {
		s := b.Input("")
		for j := 0; j < 8; j++ {
			s = b.Delay("", 0.001, 1, s)
		}
	}
	g := b.MustBuild()
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		t.Fatal(err)
	}
	c := mat.VecOf(1, 1, 1)
	cuts := func(p *placement.Plan) int {
		n := 0
		for _, a := range g.Arcs() {
			if p.NodeOf[a.From] != p.NodeOf[a.To] {
				n++
			}
		}
		return n
	}
	connPlan, _, err := Place(lm.Coef, c, Config{Selector: SelectMinConnections, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	randTotal := 0
	const trials = 10
	for s := 0; s < trials; s++ {
		p, _, err := Place(lm.Coef, c, Config{Seed: int64(s)})
		if err != nil {
			t.Fatal(err)
		}
		randTotal += cuts(p)
	}
	if float64(cuts(connPlan)) > float64(randTotal)/trials {
		t.Fatalf("min-connections cuts %d exceed random average %g",
			cuts(connPlan), float64(randTotal)/trials)
	}
}

func TestPlaceGraphWithJoin(t *testing.T) {
	b := query.NewBuilder()
	i1, i2 := b.Input("a"), b.Input("b")
	f1 := b.Filter("f1", 0.001, 0.8, i1)
	f2 := b.Filter("f2", 0.001, 0.8, i2)
	j := b.Join("j", 0.0001, 0.05, 1.0, f1, f2)
	b.Aggregate("agg", 0.002, 0.1, 5, j)
	g := b.MustBuild()

	plan, report, lm, err := PlaceGraph(g, mat.VecOf(1, 1), Config{Selector: SelectMaxPlaneDistance})
	if err != nil {
		t.Fatal(err)
	}
	if lm.D() != 3 {
		t.Fatalf("expected 3 variables (2 inputs + join cut), got %d", lm.D())
	}
	if plan.NumOps() != g.NumOps() {
		t.Fatal("plan must cover all operators")
	}
	if report.MinPlaneDistance <= 0 {
		t.Fatalf("MinPlaneDistance = %g", report.MinPlaneDistance)
	}
}

func TestPlaceGraphPropagatesModelErrors(t *testing.T) {
	g := &query.Graph{}
	if _, _, _, err := PlaceGraph(g, mat.VecOf(1), Config{}); err == nil {
		t.Fatal("invalid graph must error")
	}
}

func TestGraphOpCountMismatch(t *testing.T) {
	b := query.NewBuilder()
	in := b.Input("i")
	b.Map("m", 1, in)
	g := b.MustBuild()
	lo := mat.MatrixOf([]float64{1}, []float64{1}) // 2 rows, graph has 1 op
	if _, _, err := Place(lo, mat.VecOf(1), Config{Graph: g}); err == nil {
		t.Fatal("op-count mismatch must error")
	}
}

// The headline claim: ROD yields a larger feasible set than every baseline
// on random multi-stream workloads (Figure 14's ordering, in miniature).
func TestRODBeatsBaselinesOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const trials = 8
	var rodSum, llfSum, randSum float64
	for trial := 0; trial < trials; trial++ {
		m, d, n := 30, 3, 4
		lo := mat.NewMatrix(m, d)
		for j := 0; j < m; j++ {
			lo.Set(j, rng.Intn(d), 0.1+rng.Float64())
		}
		for k := 0; k < d; k++ {
			lo.Set(rng.Intn(m), k, 0.1+rng.Float64())
		}
		c := mat.VecOf(1, 1, 1, 1)

		rodPlan, _, err := Place(lo, c, Config{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		rates := make(mat.Vec, d)
		for k := range rates {
			rates[k] = rng.Float64()
		}
		llfPlan, err := placement.LLF(lo, c, rates)
		if err != nil {
			t.Fatal(err)
		}
		randPlan := placement.Random(m, n, rng)

		const samples = 3000
		r1, _ := placement.Evaluate(rodPlan, lo, c, samples)
		r2, _ := placement.Evaluate(llfPlan, lo, c, samples)
		r3, _ := placement.Evaluate(randPlan, lo, c, samples)
		rodSum += r1
		llfSum += r2
		randSum += r3
	}
	if rodSum <= llfSum {
		t.Fatalf("ROD average %g must beat LLF %g", rodSum/trials, llfSum/trials)
	}
	if rodSum <= randSum {
		t.Fatalf("ROD average %g must beat Random %g", rodSum/trials, randSum/trials)
	}
}
