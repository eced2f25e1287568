package feasible

import (
	"math"
	"math/rand"
	"testing"

	"rodsp/internal/mat"
)

func TestFeasibleAt(t *testing.T) {
	s := &System{
		Ln: mat.MatrixOf([]float64{1, 0}, []float64{0, 2}),
		C:  mat.VecOf(1, 1),
	}
	if !s.FeasibleAt(mat.VecOf(1, 0.5)) {
		t.Fatal("boundary point should be feasible")
	}
	if s.FeasibleAt(mat.VecOf(1.1, 0)) {
		t.Fatal("overloaded node 0 should be infeasible")
	}
	u := s.Utilizations(mat.VecOf(0.5, 0.25))
	if !u.Equal(mat.VecOf(0.5, 0.5), 1e-12) {
		t.Fatalf("Utilizations = %v", u)
	}
}

func TestIdealCoefBalancesEveryStream(t *testing.T) {
	lk := mat.VecOf(10, 11)
	c := mat.VecOf(1, 3)
	ideal := IdealCoef(lk, c)
	// Column sums must equal l_k (constraint 1) and rows proportional to C_i.
	if !ideal.ColSums().Equal(lk, 1e-12) {
		t.Fatalf("column sums %v, want %v", ideal.ColSums(), lk)
	}
	if got := ideal.At(1, 0) / ideal.At(0, 0); math.Abs(got-3) > 1e-12 {
		t.Fatalf("rows not proportional to capacity: %g", got)
	}
	// Weights of the ideal matrix are exactly 1 everywhere.
	w, err := Weights(ideal, c, lk)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range w.Data {
		if math.Abs(x-1) > 1e-12 {
			t.Fatalf("ideal weight %g != 1", x)
		}
	}
}

func TestIdealVolume(t *testing.T) {
	// d=2, l=(10,11), C=(1,1): V = 2^2 / (2! · 110).
	got, err := IdealVolume(mat.VecOf(10, 11), mat.VecOf(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := 4.0 / (2 * 110)
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("IdealVolume = %g, want %g", got, want)
	}
	if _, err := IdealVolume(mat.VecOf(0, 1), mat.VecOf(1)); err == nil {
		t.Fatal("zero l_k must error")
	}
	if _, err := IdealVolume(mat.VecOf(1), mat.VecOf(0)); err == nil {
		t.Fatal("zero capacity must error")
	}
}

func TestWeightsErrors(t *testing.T) {
	ln := mat.MatrixOf([]float64{1, 2}, []float64{3, 4})
	if _, err := Weights(ln, mat.VecOf(1), mat.VecOf(1, 1)); err == nil {
		t.Fatal("capacity length mismatch must error")
	}
	if _, err := Weights(ln, mat.VecOf(1, 1), mat.VecOf(1)); err == nil {
		t.Fatal("lk length mismatch must error")
	}
	if _, err := Weights(ln, mat.VecOf(1, 0), mat.VecOf(1, 1)); err == nil {
		t.Fatal("zero capacity must error")
	}
	if _, err := Weights(ln, mat.VecOf(1, 1), mat.VecOf(1, 0)); err == nil {
		t.Fatal("zero lk must error")
	}
}

func TestPlaneDistances(t *testing.T) {
	if got := PlaneDistance(mat.VecOf(3, 4)); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("PlaneDistance = %g, want 0.2", got)
	}
	if !math.IsInf(PlaneDistance(mat.VecOf(0, 0)), 1) {
		t.Fatal("empty node must be at infinity")
	}
	// From the origin the two forms agree.
	wi := mat.VecOf(1, 2)
	if math.Abs(PlaneDistance(wi)-PlaneDistanceFrom(wi, mat.VecOf(0, 0))) > 1e-12 {
		t.Fatal("PlaneDistanceFrom(origin) must equal PlaneDistance")
	}
	// A point beyond the plane has negative distance.
	if PlaneDistanceFrom(mat.VecOf(1, 1), mat.VecOf(1, 1)) >= 0 {
		t.Fatal("point beyond plane must give negative distance")
	}
	w := mat.MatrixOf([]float64{3, 4}, []float64{0.5, 0})
	if got := MinPlaneDistance(w); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("MinPlaneDistance = %g", got)
	}
	if got := MinPlaneDistanceFrom(w, mat.VecOf(0.1, 0.1)); got >= MinPlaneDistance(w) {
		t.Fatal("moving the reference point into the set must shrink the distance")
	}
}

func TestIdealPlaneDistance(t *testing.T) {
	if got := IdealPlaneDistance(2); math.Abs(got-1/math.Sqrt2) > 1e-12 {
		t.Fatalf("IdealPlaneDistance(2) = %g", got)
	}
	// All-ones weight rows sit exactly on the ideal hyperplane.
	w := mat.MatrixOf([]float64{1, 1, 1}, []float64{1, 1, 1})
	if math.Abs(MinPlaneDistance(w)-IdealPlaneDistance(3)) > 1e-12 {
		t.Fatal("ideal weights must attain the ideal plane distance")
	}
}

func TestMinAxisDistancesAndMMADBound(t *testing.T) {
	w := mat.MatrixOf([]float64{2, 0.5}, []float64{1, 1})
	ax := MinAxisDistances(w)
	if !ax.Equal(mat.VecOf(0.5, 1), 1e-12) {
		t.Fatalf("MinAxisDistances = %v", ax)
	}
	if got := MMADLowerBound(w); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("MMADLowerBound = %g, want 0.5", got)
	}
	// A zero column (stream absent from every node) contributes nothing.
	w2 := mat.MatrixOf([]float64{0, 2}, []float64{0, 1})
	if got := MMADLowerBound(w2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("MMADLowerBound with zero column = %g", got)
	}
}

// The MMAD product is a true lower bound on the feasible ratio (Section 4.1):
// the simplex with the clamped axis intercepts is contained in F(W) ∩ F*.
func TestMMADBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n, d := 2+rng.Intn(4), 2+rng.Intn(3)
		w := randWeights(rng, n, d)
		lb := MMADLowerBound(w)
		ratio := mustExact(t, w, nil)
		if lb > ratio+1e-12 {
			t.Fatalf("MMAD bound %g exceeds measured ratio %g for\n%v", lb, ratio, w)
		}
	}
}

func TestHypersphereLowerBound(t *testing.T) {
	if HypersphereLowerBound(0, 3) != 0 {
		t.Fatal("zero radius gives zero bound")
	}
	if HypersphereLowerBound(-1, 3) != 0 {
		t.Fatal("negative radius gives zero bound")
	}
	// d=2 at the ideal radius: (π/8)/(1/2) = π/4.
	got := HypersphereLowerBound(IdealPlaneDistance(2), 2)
	if math.Abs(got-math.Pi/4) > 1e-12 {
		t.Fatalf("HypersphereLowerBound = %g, want π/4", got)
	}
	// Monotone in r, capped at 1.
	if HypersphereLowerBound(0.1, 2) >= HypersphereLowerBound(0.2, 2) {
		t.Fatal("bound must grow with r")
	}
	if HypersphereLowerBound(100, 2) > 1 {
		t.Fatal("bound must be capped at 1")
	}
}

// The hypersphere bound really is a lower bound on the feasible ratio.
func TestHypersphereBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n, d := 2+rng.Intn(4), 2+rng.Intn(3)
		w := randWeights(rng, n, d)
		r := MinPlaneDistance(w)
		bound := HypersphereLowerBound(r, d)
		ratio := mustExact(t, w, nil)
		if bound > ratio+1e-12 {
			t.Fatalf("hypersphere bound %g exceeds ratio %g (r=%g)", bound, ratio, r)
		}
	}
}

// randWeights builds a random weight matrix whose columns sum to n (the
// normalized form of the allocation constraint: Σ_i w_ik·(C_i/C_T) = 1 with
// equal capacities).
func randWeights(rng *rand.Rand, n, d int) *mat.Matrix {
	w := mat.NewMatrix(n, d)
	for k := 0; k < d; k++ {
		var col mat.Vec = make([]float64, n)
		var sum float64
		for i := range col {
			col[i] = rng.Float64()
			sum += col[i]
		}
		for i := range col {
			w.Set(i, k, col[i]/sum*float64(n))
		}
	}
	return w
}
