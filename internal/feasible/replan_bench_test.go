package feasible_test

import (
	"math/rand"
	"testing"

	"rodsp/internal/core"
	"rodsp/internal/feasible"
	"rodsp/internal/mat"
	"rodsp/internal/par"
	"rodsp/internal/query"
	"rodsp/internal/workload"
)

// BenchmarkReplanRatio is the last step of BenchmarkReplanDecision
// (internal/core) alone: the 60 000-sample ratio of the plan PlaceBest(3000)
// picks, over the same m = 200, d = 5 tree graph on 10 nodes and the same 16
// forecast lower bounds, on one worker. It lives in the external test
// package because it needs both core, which imports feasible, and the
// unexported count of what the safe radii decide. kernel/op is the share of
// the ratio's points that reach pairFits, certified/op and rejected/op the
// shares the radii count as hits and misses, averaged over the plans after
// the timed loop.
func BenchmarkReplanRatio(b *testing.B) {
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
	plans := make([]*mat.Matrix, 16)
	bounds := make([]mat.Vec, len(plans))
	for f := range plans {
		x := make(mat.Vec, lm.D())
		for k := range x {
			x[k] = 0.1 + rng.Float64()
		}
		x = x.Scale((0.15 + 0.35*rng.Float64()) / x.Sum())
		lb := feasible.Denormalize(x, lk, ct)
		_, rep, err := core.PlaceBest(lm.Coef, caps, core.Config{LowerBound: lb, Seed: 1}, 3000)
		if err != nil {
			b.Fatal(err)
		}
		plans[f], bounds[f] = rep.Weights, feasible.Normalize(lb, lk, ct)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := i % len(plans)
		if _, err := feasible.RatioToIdealFrom(plans[f], bounds[f], 60000); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var certified, rejected float64
	for f := range plans {
		c, r := feasible.DecidedShares(plans[f], bounds[f], 60000)
		certified, rejected = certified+c, rejected+r
	}
	n := float64(len(plans))
	b.ReportMetric(1-(certified+rejected)/n, "kernel/op")
	b.ReportMetric(certified/n, "certified/op")
	b.ReportMetric(rejected/n, "rejected/op")
}
