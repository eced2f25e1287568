package feasible

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rodsp/internal/mat"
)

// mustExact unwraps ExactRatio for tests with well-formed inputs.
func mustExact(t *testing.T, w *mat.Matrix, lb mat.Vec) float64 {
	t.Helper()
	r, err := ExactRatio(w, lb)
	if err != nil {
		t.Fatalf("ExactRatio: %v", err)
	}
	return r
}

func TestExactRatioKnownCases(t *testing.T) {
	for _, c := range []struct {
		name string
		w    *mat.Matrix
		lb   mat.Vec
		want float64
	}{
		{"d=2 ideal row", mat.MatrixOf([]float64{1, 1}), nil, 1},
		// x ≤ 1/2 cuts a corner of legs 1/2 off the triangle: 1 − 1/4.
		{"d=2 half cut", mat.MatrixOf([]float64{2, 0}), nil, 0.75},
		{"d=2 two half cuts", mat.MatrixOf([]float64{2, 0}, []float64{0, 2}), nil, 0.5},
		{"d=2 infeasible row", mat.MatrixOf([]float64{1e9, 1e9}), nil, 0},
		{"d=2 zero row", mat.MatrixOf([]float64{0, 0}, []float64{2, 0}), nil, 0.75},
		// 2x − y ≤ 1 cuts the triangle (1/2,0) (1,0) (2/3,1/3), area 1/12.
		{"d=2 negative entry", mat.MatrixOf([]float64{2, -1}), nil, 5.0 / 6},
		{"d=2 ideal rows above a floor", mat.MatrixOf([]float64{1, 1}, []float64{1, 1}), mat.VecOf(0.2, 0.3), 1},
		// x ∈ [0.2, 0.5] under x + y ≤ 1: 0.195 of the floor's 0.32.
		{"d=2 cut above a floor", mat.MatrixOf([]float64{2, 0}), mat.VecOf(0.2, 0), 0.195 / 0.32},
		{"d=2 Σlb ≥ 1", mat.MatrixOf([]float64{1, 1}), mat.VecOf(0.6, 0.5), 0},
		{"d=2 W·lb > 1", mat.MatrixOf([]float64{5, 0}, []float64{0, 1}), mat.VecOf(0.4, 0), 0},
		{"d=3 ideal rows", mat.MatrixOf([]float64{1, 1, 1}, []float64{1, 1, 1}), nil, 1},
		{"d=3 axis cut", mat.MatrixOf([]float64{2, 0, 0}), nil, 0.875},
		{"d=3 three axis cuts", mat.MatrixOf([]float64{2, 0, 0}, []float64{0, 2, 0}, []float64{0, 0, 2}), nil, 0.625},
		{"d=3 duplicate rows", mat.MatrixOf([]float64{2, 0, 0}, []float64{2, 0, 0}), nil, 0.875},
		{"d=3 row on the ideal plane", mat.MatrixOf([]float64{1, 1, 1}, []float64{2, 0, 0}), nil, 0.875},
		// 2Σx ≤ 1 is the simplex scaled by 1/2.
		{"d=3 parallel plane", mat.MatrixOf([]float64{2, 2, 2}), nil, 0.125},
		{"d=3 infeasible row", mat.MatrixOf([]float64{1e9, 1e9, 1e9}), nil, 0},
		{"d=1 half cut", mat.MatrixOf([]float64{2}), nil, 0.5},
		{"d=4 axis cut", mat.MatrixOf([]float64{2, 0, 0, 0}), nil, 1 - 1.0/16},
		{"d=5 axis cut", mat.MatrixOf([]float64{0, 0, 2, 0, 0}), nil, 1 - 1.0/32},
		{"d=6 parallel plane", mat.MatrixOf([]float64{2, 2, 2, 2, 2, 2}), nil, 1.0 / 64},
	} {
		if got := mustExact(t, c.w, c.lb); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: ExactRatio = %.17g, want %.17g", c.name, got, c.want)
		}
	}

	w := mat.MatrixOf([]float64{1, 2})
	for name, lb := range map[string]mat.Vec{
		"lb too short": mat.VecOf(0.1),
		"lb too long":  mat.VecOf(0, 0, 0),
		"NaN lb":       mat.VecOf(math.NaN(), 0),
		"+Inf lb":      mat.VecOf(0, math.Inf(1)),
		"negative lb":  mat.VecOf(-0.1, 0.2),
	} {
		if r, err := ExactRatio(w, lb); err == nil || r != 0 {
			t.Errorf("%s: ratio %v err %v, want 0 and an error", name, r, err)
		}
	}

	// The ratio is a property of the polytope, not of the order its rows
	// and variables are written in.
	rng := rand.New(rand.NewSource(61))
	for d := 2; d <= 6; d++ {
		for trial := 0; trial < 3; trial++ {
			w, lb := randWeights(rng, 3+rng.Intn(6), d), randFloor(rng, d)
			want := mustExact(t, w, lb)
			cols, rowOrder := rng.Perm(d), rng.Perm(w.Rows)
			pw, plb := mat.NewMatrix(w.Rows, d), mat.NewVec(d)
			for i, src := range rowOrder {
				for k, from := range cols {
					pw.Set(i, k, w.At(src, from))
				}
			}
			for k, from := range cols {
				plb[k] = lb[from]
			}
			if got := mustExact(t, pw, plb); math.Abs(got-want) > 1e-12 {
				t.Fatalf("d=%d trial %d: permuted ratio %.17g, original %.17g", d, trial, got, want)
			}
		}
	}
}

func TestExactRatio2DKnownCases(t *testing.T) {
	// x + y ≤ 1 is exactly the ideal simplex.
	if got := mustExact(t, mat.MatrixOf([]float64{1, 1}), nil); math.Abs(got-1) > 1e-12 {
		t.Fatalf("identity constraint ratio = %g", got)
	}
	// x ≤ 1/2 cuts the triangle to area 1/2 − 1/8 = 3/8, ratio 3/4.
	if got := mustExact(t, mat.MatrixOf([]float64{2, 0}), nil); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("half-cut ratio = %g, want 0.75", got)
	}
	if got := mustExact(t, mat.MatrixOf([]float64{1e9, 1e9}), nil); got > 1e-6 {
		t.Fatalf("degenerate ratio = %g", got)
	}
	// x ≤ 1/2 and y ≤ 1/2 cut two corner triangles of area 1/8: ratio 1/2.
	got := mustExact(t, mat.MatrixOf([]float64{2, 0}, []float64{0, 2}), nil)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("double half-cut ratio = %g, want 0.5", got)
	}
}

func TestExactRatio3DIdeal(t *testing.T) {
	w := mat.MatrixOf([]float64{1, 1, 1}, []float64{1, 1, 1})
	if got := mustExact(t, w, nil); math.Abs(got-1) > 1e-9 {
		t.Fatalf("ideal ratio = %g, want 1", got)
	}
}

func TestExactRatio3DAxisCut(t *testing.T) {
	// x0 ≤ 1/2 removes the corner tetrahedron of edge 1/2: ratio 7/8.
	w := mat.MatrixOf([]float64{2, 0, 0})
	if got := mustExact(t, w, nil); math.Abs(got-0.875) > 1e-9 {
		t.Fatalf("axis-cut ratio = %g, want 0.875", got)
	}
	// Three axis cuts at 1/2: 1 − 3/8 = 5/8.
	w3 := mat.MatrixOf([]float64{2, 0, 0}, []float64{0, 2, 0}, []float64{0, 0, 2})
	if got := mustExact(t, w3, nil); math.Abs(got-0.625) > 1e-9 {
		t.Fatalf("triple-cut ratio = %g, want 0.625", got)
	}
}

func TestExactRatio3DParallelPlane(t *testing.T) {
	// 2(x+y+z) ≤ 1: a shrunken tetrahedron of scale 1/2, ratio 1/8.
	w := mat.MatrixOf([]float64{2, 2, 2})
	if got := mustExact(t, w, nil); math.Abs(got-0.125) > 1e-9 {
		t.Fatalf("parallel-plane ratio = %g, want 0.125", got)
	}
}

func TestExactRatio3DEmpty(t *testing.T) {
	w := mat.MatrixOf([]float64{1e9, 1e9, 1e9})
	if got := mustExact(t, w, nil); got > 1e-6 {
		t.Fatalf("degenerate ratio = %g", got)
	}
}

func TestExactRatio3DAgainstQMC(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		w := randWeights(rng, 2+rng.Intn(4), 3)
		exact := mustExact(t, w, nil)
		qmc := mustRatio(t, w, 30000)
		if math.Abs(exact-qmc) > 0.012 {
			t.Fatalf("trial %d: exact %g vs QMC %g for\n%v", trial, exact, qmc, w)
		}
	}
}

// randFloor draws a lower bound with Σlb ≤ 0.3.
func randFloor(rng *rand.Rand, d int) mat.Vec {
	lb := mat.NewVec(d)
	for k := range lb {
		lb[k] = 0.3 * rng.Float64() / float64(d)
	}
	return lb
}

// The QMC estimator's stated errors, each twice the largest |QMC − exact|
// measured over TestRatioToIdealAgainstExact's 30 cases per budget.
const (
	// qmcErr3000 bounds 3 000 samples; measured 0.00741 (d = 4, lb nil).
	qmcErr3000 = 0.015
	// qmcErr60000 bounds 60 000 samples; measured 0.00104 (d = 4 with lb).
	qmcErr60000 = 0.0021
)

// TestRatioToIdealAgainstExact is the QMC estimator's oracle: at each
// budget, RatioToIdealFrom lands within its stated error of ExactRatio
// across d = 2…6, with and without a lower bound.
func TestRatioToIdealAgainstExact(t *testing.T) {
	for _, budget := range []struct {
		samples int
		bound   float64
	}{{3000, qmcErr3000}, {60000, qmcErr60000}} {
		rng := rand.New(rand.NewSource(83))
		worst, at := 0.0, ""
		for d := 2; d <= 6; d++ {
			for trial := 0; trial < 6; trial++ {
				w := randWeights(rng, 2+rng.Intn(9), d)
				var lb mat.Vec
				if trial%2 == 1 {
					lb = randFloor(rng, d)
				}
				exact := mustExact(t, w, lb)
				qmc := mustRatioFrom(t, w, lb, budget.samples)
				what := fmt.Sprintf("d=%d trial %d (lb %v)", d, trial, lb != nil)
				if e := math.Abs(qmc - exact); e > worst {
					worst, at = e, what
				}
				if math.Abs(qmc-exact) > budget.bound {
					t.Errorf("%d samples, %s: QMC %g, exact %g", budget.samples, what, qmc, exact)
				}
			}
		}
		t.Logf("%d samples: max |QMC − exact| = %.3g at %s (bound %g)", budget.samples, worst, at, budget.bound)
	}
}

// BenchmarkExactRatio times one call on the shapes DESIGN §7's cost table
// lists: n rows at d = 2…6, a lower bound from d = 4 on.
func BenchmarkExactRatio(b *testing.B) {
	for _, s := range []struct{ d, n int }{{2, 2}, {3, 3}, {3, 8}, {4, 10}, {5, 10}, {6, 10}} {
		rng := rand.New(rand.NewSource(int64(s.d*100 + s.n)))
		w := randWeights(rng, s.n, s.d)
		var lb mat.Vec
		if s.d >= 4 {
			lb = randFloor(rng, s.d)
		}
		b.Run(fmt.Sprintf("d=%d/n=%d", s.d, s.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchRatio, _ = ExactRatio(w, lb)
			}
		})
	}
}
