package placement

import (
	"math"
	"math/rand"
	"testing"

	"rodsp/internal/mat"
)

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan([]int{0, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan([]int{0, 2}, 2); err == nil {
		t.Fatal("out-of-range node must error")
	}
	if _, err := NewPlan([]int{-1}, 2); err == nil {
		t.Fatal("negative node must error")
	}
	if _, err := NewPlan(nil, 2); err == nil {
		t.Fatal("empty assignment must error")
	}
	if _, err := NewPlan([]int{0}, 0); err == nil {
		t.Fatal("zero nodes must error")
	}
}

func TestNewPlanCopies(t *testing.T) {
	src := []int{0, 1}
	p, err := NewPlan(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 1
	if p.NodeOf[0] != 0 {
		t.Fatal("NewPlan must copy the slice")
	}
}

func TestPlanAccessors(t *testing.T) {
	p, _ := NewPlan([]int{0, 1, 0, 1, 1}, 3)
	if p.NumOps() != 5 {
		t.Fatalf("NumOps = %d", p.NumOps())
	}
	if got := p.OpsOn(1); len(got) != 3 || got[0] != 1 || got[2] != 4 {
		t.Fatalf("OpsOn(1) = %v", got)
	}
	if got := p.OpsOn(2); got != nil {
		t.Fatalf("OpsOn(2) = %v, want empty", got)
	}
	counts := p.Counts()
	if counts[0] != 2 || counts[1] != 3 || counts[2] != 0 {
		t.Fatalf("Counts = %v", counts)
	}
	if p.String() == "" {
		t.Fatal("String should render")
	}
}

func TestAllocAndNodeCoef(t *testing.T) {
	// The paper's Example 2 / Table 2: L^o = [[4 0][6 0][0 9][0 2]].
	lo := mat.MatrixOf([]float64{4, 0}, []float64{6, 0}, []float64{0, 9}, []float64{0, 2})
	// Plan: {o1,o4} on N1, {o2,o3} on N2 → L^n = [[4 2][6 9]].
	p, _ := NewPlan([]int{0, 1, 1, 0}, 2)
	a := p.Alloc()
	if a.Rows != 2 || a.Cols != 4 {
		t.Fatalf("Alloc shape %dx%d", a.Rows, a.Cols)
	}
	// Each column of A has exactly one 1.
	for j := 0; j < 4; j++ {
		if a.Col(j).Sum() != 1 {
			t.Fatalf("column %d of A sums to %g", j, a.Col(j).Sum())
		}
	}
	ln := p.NodeCoef(lo)
	want := mat.MatrixOf([]float64{4, 2}, []float64{6, 9})
	if !ln.Equal(want, 0) {
		t.Fatalf("NodeCoef =\n%v\nwant\n%v", ln, want)
	}
	// A·L^o must agree with the incremental NodeCoef.
	if !a.Mul(lo).Equal(ln, 0) {
		t.Fatal("A·L^o disagrees with NodeCoef")
	}
	// Constraint (1): column sums preserved.
	if !ln.ColSums().Equal(lo.ColSums(), 0) {
		t.Fatal("allocation must preserve per-stream coefficient sums")
	}
}

func TestNodeCoefShapePanics(t *testing.T) {
	p, _ := NewPlan([]int{0}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on row mismatch")
		}
	}()
	p.NodeCoef(mat.NewMatrix(2, 2))
}

func TestCloneEqual(t *testing.T) {
	p, _ := NewPlan([]int{0, 1, 2}, 3)
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone must be equal")
	}
	q.NodeOf[0] = 1
	if p.Equal(q) {
		t.Fatal("mutated clone must differ")
	}
	if p.NodeOf[0] != 0 {
		t.Fatal("clone must not share storage")
	}
	r, _ := NewPlan([]int{0, 1}, 3)
	if p.Equal(r) {
		t.Fatal("different lengths must differ")
	}
	s, _ := NewPlan([]int{0, 1, 2}, 4)
	if p.Equal(s) {
		t.Fatal("different node counts must differ")
	}
}

func TestCanonical(t *testing.T) {
	// 2,2,0,1 relabels to 0,0,1,2.
	p, _ := NewPlan([]int{2, 2, 0, 1}, 3)
	c := p.Canonical()
	want := []int{0, 0, 1, 2}
	for j := range want {
		if c.NodeOf[j] != want[j] {
			t.Fatalf("Canonical = %v, want %v", c.NodeOf, want)
		}
	}
	// Plans equal up to node permutation canonicalize identically.
	q, _ := NewPlan([]int{1, 1, 2, 0}, 3)
	if !q.Canonical().Equal(c) {
		t.Fatalf("permuted plan canonicalizes differently: %v vs %v", q.Canonical().NodeOf, c.NodeOf)
	}
}

func TestRandomPlanBalancedCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m := 1 + rng.Intn(40)
		n := 1 + rng.Intn(6)
		p := Random(m, n, rng)
		counts := p.Counts()
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			t.Fatalf("Random counts unbalanced: %v", counts)
		}
	}
}

func TestRandomPlanIsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Random(20, 4, rng)
	b := Random(20, 4, rng)
	if a.Equal(b) {
		t.Fatal("consecutive random plans should differ (vanishingly unlikely otherwise)")
	}
}

func TestEvaluateIdealPlan(t *testing.T) {
	// Two identical operators on two nodes: placing one on each achieves
	// the ideal (W = all ones), ratio 1; placing both on one node gives 1/2
	// in 1-D... here d=1: ratio = axis cut at l/(2l)=1/2 → exactly 0.5.
	lo := mat.MatrixOf([]float64{1}, []float64{1})
	c := mat.VecOf(1, 1)
	split, _ := NewPlan([]int{0, 1}, 2)
	ratio, err := Evaluate(split, lo, c, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 1 {
		t.Fatalf("split ratio = %g, want 1", ratio)
	}
	lump, _ := NewPlan([]int{0, 0}, 2)
	ratio, err = Evaluate(lump, lo, c, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratio-0.5) > 0.02 {
		t.Fatalf("lumped ratio = %g, want ~0.5", ratio)
	}
}

func TestEvaluateUses2DExact(t *testing.T) {
	lo := mat.MatrixOf([]float64{4, 0}, []float64{6, 0}, []float64{0, 9}, []float64{0, 2})
	c := mat.VecOf(1, 1)
	p, _ := NewPlan([]int{0, 1, 1, 0}, 2)
	// W rows: N1 = ((4/10)/0.5, (2/11)/0.5) = (0.8, 4/11);
	//         N2 = (1.2, 18/11). Exact area ratio must be deterministic.
	r1, err := Evaluate(p, lo, c, 10)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := Evaluate(p, lo, c, 999999)
	if r1 != r2 {
		t.Fatal("d=2 evaluation must be exact, independent of sample budget")
	}
	if r1 <= 0 || r1 >= 1 {
		t.Fatalf("ratio = %g out of (0,1)", r1)
	}
}

func TestEvaluateFrom(t *testing.T) {
	// Two ops per stream split across nodes balances every stream: the
	// ideal plan, so the restricted ratio is 1 anywhere meaningful.
	lo4 := mat.MatrixOf([]float64{1, 0}, []float64{1, 0}, []float64{0, 1}, []float64{0, 1})
	c := mat.VecOf(1, 1)
	ideal, _ := NewPlan([]int{0, 1, 0, 1}, 2)
	got, err := EvaluateFrom(ideal, lo4, c, mat.VecOf(0.2, 0.2), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("restricted ratio = %g", got)
	}
	// Lumping both single-stream ops on node 0 makes the system infeasible
	// whenever r1+r2 > 1; a raw floor of (0.6,0.6) normalizes to (0.3,0.3)
	// whose sum 0.6 already exceeds the plan's x1+x2 ≤ 0.5 budget, so the
	// whole restricted region is infeasible.
	lo := mat.MatrixOf([]float64{1, 0}, []float64{0, 1})
	lump, _ := NewPlan([]int{0, 0}, 2)
	got, err = EvaluateFrom(lump, lo, c, mat.VecOf(0.6, 0.6), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("floor-violating plan ratio = %g, want 0", got)
	}
	// A malformed floor is an error: never a panic, never a ratio.
	for name, lb := range map[string]mat.Vec{
		"NaN":       mat.VecOf(math.NaN(), 0.1),
		"+Inf":      mat.VecOf(0.1, math.Inf(1)),
		"negative":  mat.VecOf(-0.1, 0.1),
		"too long":  mat.VecOf(0.1, 0.1, 0.1),
		"too short": mat.VecOf(0.1),
		"nil":       nil,
	} {
		if got, err := EvaluateFrom(ideal, lo4, c, lb, 2000); err == nil || got != 0 {
			t.Fatalf("%s lower bound: ratio %g err %v, want 0 and an error", name, got, err)
		}
	}
}
