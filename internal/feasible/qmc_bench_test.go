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
	b.ReportMetric(certifiedShare(w, lb, 60000), "certified/op")
}

// certifiedShare is the share of RatioToIdealFrom(w, lb, samples)'s points
// that countHits counts as hits without testing a row: what the safe radius
// saves on this plan (0 with the radius off).
func certifiedShare(w *mat.Matrix, lb mat.Vec, samples int) float64 {
	scale, err := boundScale(w.Cols, lb, samples)
	if err != nil || scale <= 0 {
		return 0
	}
	rule := newHitRule(w, lb, scale)
	pts, sums := simplexPoints(w.Cols, samples)
	var rest [certBlock]int
	n := 0
	eachBlock(pts, sums, w.Cols, 0, samples, func(_ int, _, bs []float64) {
		for lo := 0; lo < len(bs); lo += certBlock {
			blk := bs[lo:min(lo+certBlock, len(bs))]
			n += len(blk) - uncertified(&rest, blk, rule.radius)
		}
	})
	return float64(n) / float64(samples)
}

// benchRatio keeps the measured call's result live.
var benchRatio float64
