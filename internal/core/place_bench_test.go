package core

import (
	"math/rand"
	"testing"

	"rodsp/internal/feasible"
	"rodsp/internal/mat"
	"rodsp/internal/par"
	"rodsp/internal/query"
	"rodsp/internal/workload"
)

func benchWorkload(m, d, n int) (*mat.Matrix, mat.Vec) {
	rng := rand.New(rand.NewSource(11))
	lo := mat.NewMatrix(m, d)
	for j := 0; j < m; j++ {
		lo.Set(j, rng.Intn(d), 0.05+rng.Float64())
	}
	for k := 0; k < d; k++ {
		lo.Set(rng.Intn(m), k, 0.05+rng.Float64())
	}
	c := make(mat.Vec, n)
	for i := range c {
		c[i] = 0.5 + rng.Float64()
	}
	return lo, c
}

func BenchmarkPlace(b *testing.B) {
	lo, c := benchWorkload(200, 5, 10)
	cfg := Config{Selector: SelectMaxPlaneDistance}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Place(lo, c, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlaceBest(b *testing.B) {
	lo, c := benchWorkload(200, 5, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := PlaceBest(lo, c, Config{}, 3000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplanDecision is one placement decision shaped like the replan
// workload of benchmark/ (not imported from it: that is its own module): the
// m = 200, d = 5 tree graph on 10 nodes, a lower bound rotating over 16
// forecast points at 15–50 % of capacity, and load model → PlaceBest(3000) →
// a 60 000-sample ratio, on one worker. Its CPU profile is the cost budget of
// a decision (DESIGN §7). shared/op is the share of PlaceBest's Phase 2 steps
// walked once for both arms, averaged over the forecast points after the
// timed loop.
func BenchmarkReplanDecision(b *testing.B) {
	defer par.SetWorkers(0)
	par.SetWorkers(1)
	g, err := workload.RandomTrees(workload.TreeConfig{Streams: 5, OpsPerStream: 40, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	caps := make(mat.Vec, 10)
	for i := range caps {
		caps[i] = 0.5 + rng.Float64()
	}
	lk, ct := lm.Coef.ColSums(), caps.Sum()
	bounds := make([]mat.Vec, 16)
	for f := range bounds {
		x := make(mat.Vec, lm.D())
		for k := range x {
			x[k] = 0.1 + rng.Float64()
		}
		x = x.Scale((0.15 + 0.35*rng.Float64()) / x.Sum())
		bounds[f] = feasible.Denormalize(x, lk, ct)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb := bounds[i%len(bounds)]
		lm, err := query.BuildLoadModel(g)
		if err != nil {
			b.Fatal(err)
		}
		_, rep, err := PlaceBest(lm.Coef, caps, Config{LowerBound: lb, Seed: 1}, 3000)
		if err != nil {
			b.Fatal(err)
		}
		nb := feasible.Normalize(lb, lm.Coef.ColSums(), ct)
		if benchRatio, err = feasible.RatioToIdealFrom(rep.Weights, nb, 60000); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var shared float64
	for _, lb := range bounds {
		shared += sharedShare(lm.Coef, caps, Config{LowerBound: lb, Seed: 1})
	}
	b.ReportMetric(shared/float64(len(bounds)), "shared/op")
}

// sharedShare is the share of PlaceBest(lo, c, cfg)'s Phase 2 steps walked
// once for both arms: every step before the first one whose Class II rules
// disagree, or all of them when the rules never do.
func sharedShare(lo *mat.Matrix, c mat.Vec, cfg Config) float64 {
	cfg.Selector = portfolio[0]
	w, err := newWalk(lo, c, cfg)
	if err != nil {
		return 0
	}
	f := w.walkShared()
	if f == nil {
		return 1
	}
	w.run(portfolio[0])
	steps := w.report.ClassIAssignments + w.report.ClassIIAssignments
	return float64(f.report.ClassIAssignments+f.report.ClassIIAssignments-1) / float64(steps)
}

// benchRatio keeps the measured decision's result live.
var benchRatio float64
