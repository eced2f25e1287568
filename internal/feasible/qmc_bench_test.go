package feasible

import (
	"math/rand"
	"testing"

	"rodsp/internal/mat"
)

func BenchmarkRatioToIdeal(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	w := randWeights(rng, 8, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RatioToIdealFrom(w, nil, 20000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRatioToIdealFrom(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	w := randWeights(rng, 8, 5)
	lb := make([]float64, 5)
	for k := range lb {
		lb[k] = 0.05
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RatioToIdealFrom(w, lb, 20000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRatioToIdealFromDense is shaped like the traffic: a 10 × 5 plan
// whose ratio is ≈ 0.8 (a ROD plan scores 0.88–0.94), so most points pay for
// every row instead of leaving on an early one as randWeights' ≈ 0.04 does,
// at the 60 000-sample budget of the replan workload. Its ns/op is the
// figure to hold against feasible.ratio_ms of `benchmark/run.sh --trace 1`.
// certified/op is the share of its points the safe radius decides without a
// dot product, counted after the timed loop.
func BenchmarkRatioToIdealFromDense(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	w := mat.NewMatrix(10, 5)
	for i := range w.Data {
		w.Data[i] = 0.8 + 0.3*rng.Float64()
	}
	lb := make(mat.Vec, 5)
	for k := range lb {
		lb[k] = 0.01
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := RatioToIdealFrom(w, lb, 60000)
		if err != nil {
			b.Fatal(err)
		}
		benchRatio = r
	}
	b.StopTimer()
	certified, rejected := decidedShares(w, lb, 60000)
	b.ReportMetric(certified, "certified/op")
	b.ReportMetric(rejected, "rejected/op")
}

// decidedShares is the share of RatioToIdealFrom(w, lb, samples)'s points
// that its view's radii count as hits, and the share they count as misses,
// without testing a row: what the safe radii save on this plan.
func decidedShares(w *mat.Matrix, lb mat.Vec, samples int) (certified, rejected float64) {
	scale, err := boundScale(w.Cols, lb)
	if err != nil || scale <= 0 {
		return 0, 0
	}
	v := cellViewOf(w.Cols, min(samples, viewCap(w.Cols)))
	sure, out := 0, 0
	for g, bd := range newHitRule(w, lb, scale, v.keys).bounds {
		sums := v.sums[v.starts[g]:v.starts[g+1]]
		s, in := bd.split(sums)
		sure, out = sure+s, out+len(sums)-in
	}
	return float64(sure) / float64(samples), float64(out) / float64(samples)
}

// BenchmarkCellView is the one-time build of the view the replan workload's
// final ratio counts with (d = 5, 60 000 points, 330 cells): the cell keys,
// the grouping, the sorts and the copy, from a filled table.
func BenchmarkCellView(b *testing.B) {
	const d, n = 5, 60000
	tab := simplexPoints(d, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchView = newCellView(tab.pts, tab.sums, d, pointKeys(tab.pts, tab.sums, d, cellEvery))
	}
}

// benchView keeps the built view live.
var benchView *cellView

// benchRatio keeps the measured call's result live.
var benchRatio float64
