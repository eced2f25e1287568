package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rodsp/internal/feasible"
	"rodsp/internal/mat"
	"rodsp/internal/placement"
)

// Property: for any positively-loaded operator matrix and any capacities,
// every selector produces a structurally valid plan whose weight matrix
// keeps the capacity-weighted column means at exactly 1.
func TestPlaceQuickProperty(t *testing.T) {
	f := func(seed int64, mRaw, dRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + int(mRaw%30)
		d := 1 + int(dRaw%4)
		n := 1 + int(nRaw%5)
		lo := mat.NewMatrix(m, d)
		for j := 0; j < m; j++ {
			lo.Set(j, rng.Intn(d), 0.05+rng.Float64())
		}
		for k := 0; k < d; k++ {
			lo.Set(rng.Intn(m), k, 0.05+rng.Float64())
		}
		c := make(mat.Vec, n)
		for i := range c {
			c[i] = 0.25 + rng.Float64()
		}
		for _, sel := range []Selector{SelectRandom, SelectMaxPlaneDistance, SelectAxisBalance} {
			plan, report, err := Place(lo, c, Config{Selector: sel, Seed: seed})
			if err != nil {
				return false
			}
			if plan.NumOps() != m || plan.N != n {
				return false
			}
			for _, node := range plan.NodeOf {
				if node < 0 || node >= n {
					return false
				}
			}
			ct := c.Sum()
			for k := 0; k < d; k++ {
				var s float64
				for i := 0; i < n; i++ {
					s += report.Weights.At(i, k) * c[i] / ct
				}
				if math.Abs(s-1) > 1e-6 {
					return false
				}
			}
			// Plane distance never exceeds the ideal.
			if report.MinPlaneDistance > feasible.IdealPlaneDistance(d)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceBestWithLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lo := mat.NewMatrix(12, 2)
	for j := 0; j < 12; j++ {
		lo.Set(j, rng.Intn(2), 0.2+rng.Float64())
	}
	c := mat.VecOf(1, 1, 1)
	lk := lo.ColSums()
	lb := mat.VecOf(0.5*c.Sum()/lk[0], 0)
	plan, report, err := PlaceBest(lo, c, Config{LowerBound: lb}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumOps() != 12 {
		t.Fatal("plan incomplete")
	}
	if report == nil || report.Weights == nil {
		t.Fatal("report missing")
	}
	// The restricted evaluation must succeed and be in range.
	r, err := placement.EvaluateFrom(plan, lo, c, lb, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0 || r > 1 {
		t.Fatalf("restricted ratio %g", r)
	}
}

func TestPlaceBestDefaultSamples(t *testing.T) {
	lo := mat.MatrixOf([]float64{1, 0}, []float64{0, 1}, []float64{1, 0}, []float64{0, 1})
	if _, _, err := PlaceBest(lo, mat.VecOf(1, 1), Config{}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceBestPropagatesErrors(t *testing.T) {
	bad := mat.MatrixOf([]float64{1, 0}) // dead variable 1
	if _, _, err := PlaceBest(bad, mat.VecOf(1), Config{}, 100); err == nil {
		t.Fatal("expected error for dead variable")
	}
}

func TestPinnedOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lo := mat.NewMatrix(16, 2)
	for j := 0; j < 16; j++ {
		lo.Set(j, rng.Intn(2), 0.2+rng.Float64())
	}
	c := mat.VecOf(1, 1, 1)
	pins := map[int]int{0: 2, 5: 2, 9: 0}
	plan, report, err := Place(lo, c, Config{
		Selector: SelectMaxPlaneDistance,
		Pinned:   pins,
	})
	if err != nil {
		t.Fatal(err)
	}
	for op, node := range pins {
		if plan.NodeOf[op] != node {
			t.Fatalf("pinned op %d on node %d, want %d", op, plan.NodeOf[op], node)
		}
	}
	if report.PinnedAssignments != 3 {
		t.Fatalf("PinnedAssignments = %d", report.PinnedAssignments)
	}
	if report.ClassIAssignments+report.ClassIIAssignments+report.PinnedAssignments != 16 {
		t.Fatal("assignment counts do not cover all operators")
	}
	// The rest of the placement still balances: plan quality degrades
	// gracefully, not catastrophically, vs the unpinned run.
	free, _, err := Place(lo, c, Config{Selector: SelectMaxPlaneDistance})
	if err != nil {
		t.Fatal(err)
	}
	rPinned, err := placement.Evaluate(plan, lo, c, 3000)
	if err != nil {
		t.Fatal(err)
	}
	rFree, err := placement.Evaluate(free, lo, c, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if rPinned < rFree*0.5 {
		t.Fatalf("pinning collapsed the plan: %g vs %g", rPinned, rFree)
	}
}

// Operators pinned to one node are added into its load row in operator
// order, not map order: 0.1 + 0.2 + 0.3 has two bit patterns depending on
// which pair is summed first, and it used to come out either way.
func TestPlacePinnedDeterministic(t *testing.T) {
	lo := mat.MatrixOf(
		[]float64{0.1, 0},
		[]float64{0.2, 0},
		[]float64{0.3, 0},
		[]float64{0, 1},
	)
	c := mat.VecOf(1, 1)
	cfg := Config{Selector: SelectMaxPlaneDistance, Pinned: map[int]int{0: 0, 1: 0, 2: 0}}
	var want []uint64
	for run := 0; run < 200; run++ {
		_, report, err := Place(lo, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range report.Weights.Data {
			if run == 0 {
				want = append(want, math.Float64bits(v))
			} else if math.Float64bits(v) != want[i] {
				t.Fatalf("run %d: Weights.Data[%d] = %v (%#x), run 0 gave %v (%#x)", run, i, v, math.Float64bits(v), math.Float64frombits(want[i]), want[i])
			}
		}
	}
}

func TestPinnedValidation(t *testing.T) {
	lo := mat.MatrixOf([]float64{1, 0}, []float64{0, 1})
	c := mat.VecOf(1, 1)
	if _, _, err := Place(lo, c, Config{Pinned: map[int]int{5: 0}}); err == nil {
		t.Fatal("out-of-range pinned op must error")
	}
	if _, _, err := Place(lo, c, Config{Pinned: map[int]int{0: 7}}); err == nil {
		t.Fatal("out-of-range pinned node must error")
	}
}

// Property: ROD is scale-invariant — multiplying all coefficients, or all
// capacities, by a positive constant must not change the deterministic plan.
func TestPlaceScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m, d, n := 3+rng.Intn(20), 1+rng.Intn(3), 2+rng.Intn(4)
		lo := mat.NewMatrix(m, d)
		for j := 0; j < m; j++ {
			lo.Set(j, rng.Intn(d), 0.1+rng.Float64())
		}
		for k := 0; k < d; k++ {
			lo.Set(rng.Intn(m), k, 0.1+rng.Float64())
		}
		c := make(mat.Vec, n)
		for i := range c {
			c[i] = 1
		}
		base, _, err := Place(lo, c, Config{Selector: SelectMaxPlaneDistance})
		if err != nil {
			t.Fatal(err)
		}
		scaledLo := lo.Clone()
		scaledLo.ScaleInPlace(7.3)
		p2, _, err := Place(scaledLo, c, Config{Selector: SelectMaxPlaneDistance})
		if err != nil {
			t.Fatal(err)
		}
		if !base.Equal(p2) {
			t.Fatal("coefficient scaling changed the plan")
		}
		p3, _, err := Place(lo, c.Scale(3.1), Config{Selector: SelectMaxPlaneDistance})
		if err != nil {
			t.Fatal(err)
		}
		if !base.Equal(p3) {
			t.Fatal("capacity scaling changed the plan")
		}
	}
}
