package feasible

import (
	"math/rand"
	"testing"

	"rodsp/internal/mat"
	"rodsp/internal/par"
)

// The chunked evaluators must be bit-identical for any worker count: the
// compute plane's core determinism guarantee. Covers the plain ratio, the
// restricted (lb != nil) path and SamplePoints, at workers 1, 2 and 8.
func TestEvaluatorsBitIdenticalAcrossWorkers(t *testing.T) {
	defer par.SetWorkers(0)

	rng := rand.New(rand.NewSource(71))
	type input struct {
		w  *mat.Matrix
		lb mat.Vec
	}
	var inputs []input
	for trial := 0; trial < 6; trial++ {
		w := randWeights(rng, 2+rng.Intn(5), 2+rng.Intn(4))
		lb := mat.NewVec(w.Cols)
		for k := range lb {
			lb[k] = 0.3 * rng.Float64() / float64(w.Cols)
		}
		inputs = append(inputs, input{w, lb})
	}

	type result struct {
		plain, from float64
		pts         []mat.Vec
	}
	run := func(in input) result {
		plain := mustRatio(t, in.w, 5000)
		from := mustRatioFrom(t, in.w, in.lb, 5000)
		return result{plain, from, SamplePoints(in.w.Cols, 500)}
	}

	par.SetWorkers(1)
	var want []result
	for _, in := range inputs {
		want = append(want, run(in))
	}

	for _, w := range []int{2, 8} {
		par.SetWorkers(w)
		for i, in := range inputs {
			got := run(in)
			if got.plain != want[i].plain {
				t.Fatalf("workers=%d input %d: RatioToIdeal %v != %v", w, i, got.plain, want[i].plain)
			}
			if got.from != want[i].from {
				t.Fatalf("workers=%d input %d: RatioToIdealFrom %v != %v", w, i, got.from, want[i].from)
			}
			for p := range want[i].pts {
				if !got.pts[p].Equal(want[i].pts[p], 0) {
					t.Fatalf("workers=%d input %d: SamplePoints[%d] differs", w, i, p)
				}
			}
		}
	}
}
