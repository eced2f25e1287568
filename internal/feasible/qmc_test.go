package feasible

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rodsp/internal/mat"
)

// mustRatio unwraps RatioToIdealFrom from the origin for tests with
// well-formed inputs.
func mustRatio(t *testing.T, w *mat.Matrix, samples int) float64 {
	t.Helper()
	return mustRatioFrom(t, w, nil, samples)
}

// mustRatioFrom unwraps RatioToIdealFrom for tests with well-formed inputs.
func mustRatioFrom(t *testing.T, w *mat.Matrix, lb mat.Vec, samples int) float64 {
	t.Helper()
	r, err := RatioToIdealFrom(w, lb, samples)
	if err != nil {
		t.Fatalf("RatioToIdealFrom: %v", err)
	}
	return r
}

// mustAuto unwraps RatioAuto for tests with well-formed inputs.
func mustAuto(t *testing.T, w *mat.Matrix, samples int) float64 {
	t.Helper()
	r, err := RatioAuto(w, samples)
	if err != nil {
		t.Fatalf("RatioAuto: %v", err)
	}
	return r
}

func TestHaltonFirstValues(t *testing.T) {
	h := NewHalton(2)
	want := [][2]float64{
		{1. / 2, 1. / 3},
		{1. / 4, 2. / 3},
		{3. / 4, 1. / 9},
		{1. / 8, 4. / 9},
	}
	p := make([]float64, 2)
	for i, w := range want {
		h.Next(p)
		if math.Abs(p[0]-w[0]) > 1e-15 || math.Abs(p[1]-w[1]) > 1e-15 {
			t.Fatalf("point %d = %v, want %v", i, p, w)
		}
	}
}

func TestHaltonRangeAndMean(t *testing.T) {
	h := NewHalton(3)
	p := make([]float64, 3)
	sums := make([]float64, 3)
	const n = 5000
	for i := 0; i < n; i++ {
		h.Next(p)
		for k, x := range p {
			if x <= 0 || x >= 1 {
				t.Fatalf("Halton value %g out of (0,1)", x)
			}
			sums[k] += x
		}
	}
	for k, s := range sums {
		if math.Abs(s/n-0.5) > 0.01 {
			t.Fatalf("dimension %d mean %g far from 0.5", k, s/n)
		}
	}
}

func TestHaltonSkip(t *testing.T) {
	a, b := NewHalton(1), NewHalton(1)
	p, q := make([]float64, 1), make([]float64, 1)
	for i := 0; i < 5; i++ {
		a.Next(p)
	}
	b.Skip(4)
	b.Next(q)
	if p[0] != q[0] {
		t.Fatalf("Skip mismatch: %g vs %g", p[0], q[0])
	}
}

func TestHaltonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dims=0")
		}
	}()
	NewHalton(0)
}

func TestHaltonNextWrongLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong dst length")
		}
	}()
	NewHalton(2).Next(make([]float64, 3))
}

func TestFirstPrimes(t *testing.T) {
	got := firstPrimes(8)
	want := []int{2, 3, 5, 7, 11, 13, 17, 19}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firstPrimes = %v", got)
		}
	}
}

func TestSimplexPointInSimplex(t *testing.T) {
	f := func(a, b, c, d uint32) bool {
		u := []float64{
			(float64(a) + 0.5) / (1 << 33),
			float64(b)/(1<<33) + 0.25,
			float64(c)/(1<<33) + 0.1,
			float64(d)/(1<<33) + 0.4,
		}
		x := make([]float64, 3)
		SimplexPoint(u, x)
		var sum float64
		for _, v := range x {
			if v < 0 {
				return false
			}
			sum += v
		}
		return sum <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Uniform on the solid simplex has E[x_k] = 1/(d+2)... no: for the solid
// simplex in R^d (x>=0, sum<=1) the expectation of each coordinate is
// 1/(d+1). Check d=1 (uniform on [0,1], mean 1/2) and d=2 (mean 1/3).
func TestSimplexPointMean(t *testing.T) {
	for _, d := range []int{1, 2, 4} {
		h := NewHalton(d + 1)
		u := make([]float64, d+1)
		x := make([]float64, d)
		sums := make([]float64, d)
		const n = 20000
		for i := 0; i < n; i++ {
			h.Next(u)
			SimplexPoint(u, x)
			for k, v := range x {
				sums[k] += v
			}
		}
		want := 1.0 / float64(d+1)
		for k, s := range sums {
			if math.Abs(s/n-want) > 0.01 {
				t.Fatalf("d=%d: coordinate %d mean %g, want %g", d, k, s/n, want)
			}
		}
	}
}

func TestSimplexPointPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched lengths")
		}
	}()
	SimplexPoint([]float64{0.5}, make([]float64, 3))
}

func TestRatioToIdealOfIdealIsOne(t *testing.T) {
	for _, d := range []int{1, 2, 5} {
		w := mat.NewMatrix(3, d)
		for i := range w.Data {
			w.Data[i] = 1
		}
		if got := mustRatio(t, w, 2000); got != 1 {
			t.Fatalf("d=%d: ideal plan ratio = %g, want 1", d, got)
		}
	}
}

func TestRatioToIdealAgainstExact2D(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		w := randWeights(rng, 2+rng.Intn(4), 2)
		exact := mustExact(t, w, nil)
		qmc := mustRatio(t, w, 20000)
		if math.Abs(exact-qmc) > 0.01 {
			t.Fatalf("trial %d: exact %g vs QMC %g for\n%v", trial, exact, qmc, w)
		}
	}
}

// TestRatioToIdealAgainstMC checks QMC against a plain pseudo-random Monte
// Carlo count over the same ideal simplex: a second estimator that shares
// neither the Halton points nor ExactRatio's geometry.
func TestRatioToIdealAgainstMC(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	w := randWeights(rng, 4, 4)
	qmc := mustRatio(t, w, 30000)
	const samples = 200000
	u, p := make([]float64, w.Cols+1), make(mat.Vec, w.Cols)
	hits := 0
	for i := 0; i < samples; i++ {
		for k := range u {
			u[k] = rng.Float64()
		}
		SimplexPoint(u, p)
		feasible := true
		for r := 0; r < w.Rows && feasible; r++ {
			feasible = w.Row(r).Dot(p) <= 1
		}
		if feasible {
			hits++
		}
	}
	if mc := float64(hits) / samples; math.Abs(qmc-mc) > 0.015 {
		t.Fatalf("QMC %g vs MC %g disagree", qmc, mc)
	}
}

func TestRatioAutoDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// d=2 and d=3 must match ExactRatio bit for bit.
	for _, d := range []int{2, 3} {
		w := randWeights(rng, 3, d)
		if mustAuto(t, w, 10) != mustExact(t, w, nil) {
			t.Fatalf("d=%d must dispatch to ExactRatio", d)
		}
	}
	// d=4 falls back to QMC.
	w4 := randWeights(rng, 3, 4)
	if mustAuto(t, w4, 5000) != mustRatio(t, w4, 5000) {
		t.Fatal("d=4 must dispatch to QMC")
	}
}

func TestRatioToIdealFrom(t *testing.T) {
	// Ideal plan restricted anywhere is still fully feasible.
	w := mat.MatrixOf([]float64{1, 1}, []float64{1, 1})
	if got := mustRatioFrom(t, w, mat.VecOf(0.2, 0.3), 2000); got != 1 {
		t.Fatalf("restricted ideal ratio = %g", got)
	}
	// Empty restricted region.
	if got := mustRatioFrom(t, w, mat.VecOf(0.6, 0.5), 100); got != 0 {
		t.Fatalf("empty region ratio = %g, want 0", got)
	}
	// A plan infeasible at the lower bound scores 0.
	bad := mat.MatrixOf([]float64{5, 0}, []float64{0, 1})
	if got := mustRatioFrom(t, bad, mat.VecOf(0.4, 0), 2000); got != 0 {
		t.Fatalf("plan violating the floor should score 0, got %g", got)
	}
}

func TestRatioToIdealFromMatchesUnrestricted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := randWeights(rng, 3, 3)
	a := mustRatio(t, w, 10000)
	b := mustRatioFrom(t, w, mat.NewVec(3), 10000)
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("zero lower bound must match unrestricted: %g vs %g", a, b)
	}
}

// Malformed sample budgets and lower bounds return errors (not panics), so
// a bad config cannot crash a long bench run.
func TestRatioErrors(t *testing.T) {
	w := mat.NewMatrix(1, 2)
	for name, f := range map[string]func() (float64, error){
		"zero samples":      func() (float64, error) { return RatioToIdealFrom(w, nil, 0) },
		"negative budget":   func() (float64, error) { return RatioToIdealFrom(w, nil, -5) },
		"lb too short":      func() (float64, error) { return RatioToIdealFrom(w, mat.VecOf(1), 10) },
		"lb too long":       func() (float64, error) { return RatioToIdealFrom(w, mat.VecOf(0, 0, 0), 10) },
		"NaN lb":            func() (float64, error) { return RatioToIdealFrom(w, mat.VecOf(math.NaN(), 0), 10) },
		"+Inf lb":           func() (float64, error) { return RatioToIdealFrom(w, mat.VecOf(0, math.Inf(1)), 10) },
		"negative lb":       func() (float64, error) { return RatioToIdealFrom(w, mat.VecOf(-0.1, 0.2), 10) },
		"auto d=2 zero":     func() (float64, error) { return RatioAuto(w, 0) },
		"auto d=2 negative": func() (float64, error) { return RatioAuto(w, -5) },
		"auto d=3 zero":     func() (float64, error) { return RatioAuto(mat.NewMatrix(1, 3), 0) },
		"auto d=3 negative": func() (float64, error) { return RatioAuto(mat.NewMatrix(2, 3), -1) },
		"auto d=5 zero":     func() (float64, error) { return RatioAuto(mat.NewMatrix(1, 5), 0) },
	} {
		if r, err := f(); err == nil || r != 0 {
			t.Fatalf("%s: ratio %v err %v, want 0 and an error", name, r, err)
		}
	}
	// The case that used to score a plan feasible nowhere as perfect: NaN
	// made every comparison false.
	nowhere := mat.MatrixOf([]float64{5, 5, 5, 5}, []float64{5, 5, 5, 5})
	if r, err := RatioToIdealFrom(nowhere, mat.VecOf(0, math.NaN(), 0, 0), 1000); err == nil || r != 0 {
		t.Fatalf("NaN lower bound: ratio %v err %v, want 0 and an error", r, err)
	}
}

func TestNormalizeDenormalizeRoundTrip(t *testing.T) {
	lk := mat.VecOf(10, 11, 3)
	ct := 4.0
	r := mat.VecOf(0.1, 0.02, 0.5)
	x := Normalize(r, lk, ct)
	back := Denormalize(x, lk, ct)
	if !back.Equal(r, 1e-12) {
		t.Fatalf("round trip %v -> %v -> %v", r, x, back)
	}
}

func TestSamplePoints(t *testing.T) {
	pts := SamplePoints(3, 100)
	if len(pts) != 100 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.Sum() > 1+1e-12 || p.Min() < 0 {
			t.Fatalf("point %v outside simplex", p)
		}
	}
	// QMC points are deterministic.
	again := SamplePoints(3, 100)
	for i := range pts {
		if !pts[i].Equal(again[i], 0) {
			t.Fatal("SamplePoints must be deterministic")
		}
	}
}
