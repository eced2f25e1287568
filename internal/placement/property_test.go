package placement

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rodsp/internal/feasible"
	"rodsp/internal/mat"
)

// Property: Canonical is idempotent and invariant under node relabeling.
func TestCanonicalQuickProperties(t *testing.T) {
	f := func(seed int64, mRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + int(mRaw%20)
		n := 1 + int(nRaw%6)
		nodeOf := make([]int, m)
		for j := range nodeOf {
			nodeOf[j] = rng.Intn(n)
		}
		p := &Plan{NodeOf: nodeOf, N: n}
		c1 := p.Canonical()
		// Idempotent.
		if !c1.Canonical().Equal(c1) {
			return false
		}
		// Invariant under a random permutation of node labels.
		perm := rng.Perm(n)
		permuted := make([]int, m)
		for j := range nodeOf {
			permuted[j] = perm[nodeOf[j]]
		}
		q := &Plan{NodeOf: permuted, N: n}
		if !q.Canonical().Equal(c1) {
			return false
		}
		// Canonical keeps the same co-location structure.
		for a := 0; a < m; a++ {
			for b := a + 1; b < m; b++ {
				same := nodeOf[a] == nodeOf[b]
				if (c1.NodeOf[a] == c1.NodeOf[b]) != same {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a node's constraint can only shrink the feasible set —
// evaluating a plan on a subset of its nodes upper-bounds the full ratio.
func TestEvaluateMonotoneInConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		m, d := 8+rng.Intn(10), 2
		lo := mat.NewMatrix(m, d)
		for j := 0; j < m; j++ {
			lo.Set(j, rng.Intn(d), 0.1+rng.Float64())
		}
		for k := 0; k < d; k++ {
			lo.Set(rng.Intn(m), k, 0.1+rng.Float64())
		}
		// A system whose constraint rows are a subset of another's has a
		// ratio at least as large. Build W directly.
		p3 := Random(m, 3, rng)
		c3 := mat.VecOf(1, 1, 1)
		w, err := WeightsOf(p3, lo, c3)
		if err != nil {
			t.Fatal(err)
		}
		full := mustExact(t, w)
		// Drop the last constraint row: feasible set can only grow.
		sub := mat.NewMatrix(2, d)
		copy(sub.Row(0), w.Row(0))
		copy(sub.Row(1), w.Row(1))
		subRatio := mustExact(t, sub)
		if subRatio < full-1e-9 {
			t.Fatalf("dropping a constraint shrank the set: %g -> %g", full, subRatio)
		}
	}
}

func mustExact(t *testing.T, w *mat.Matrix) float64 {
	t.Helper()
	r, err := feasible.ExactRatio(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
