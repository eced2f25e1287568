// Benchmarks regenerating every table and figure of the paper's evaluation
// (one per experiment-index row of DESIGN.md), plus micro-benchmarks of the
// hot machinery. Run a single figure with e.g.
//
//	go test -bench Figure14 -benchtime 1x
//
// The per-figure benchmarks use the quick parameter sets; cmd/rodbench
// (without -quick) runs the full paper-scale sweeps.
package rodsp_test

import (
	"io"
	"math/rand"
	"testing"

	"rodsp"
	"rodsp/internal/bench"
	"rodsp/internal/core"
	"rodsp/internal/feasible"
	"rodsp/internal/mat"
	"rodsp/internal/query"
	"rodsp/internal/sim"
	"rodsp/internal/trace"
	"rodsp/internal/workload"
)

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(io.Discard, name, true, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- One benchmark per paper artifact (see DESIGN.md experiment index).

// BenchmarkFigure2TraceVariability regenerates Figure 2 (trace stats).
func BenchmarkFigure2TraceVariability(b *testing.B) { runExperiment(b, "figure2") }

// BenchmarkTable2ExamplePlans regenerates Table 2 / Figures 5-6 (the
// Example 2 plans, exact feasible sets).
func BenchmarkTable2ExamplePlans(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFigure9PlaneDistance regenerates Figure 9 (feasible ratio vs
// r/r* over random coefficient matrices).
func BenchmarkFigure9PlaneDistance(b *testing.B) { runExperiment(b, "figure9") }

// BenchmarkFigure14BaseResiliency regenerates Figure 14 (ratio-to-ideal and
// ratio-to-ROD vs operator count, all five algorithms).
func BenchmarkFigure14BaseResiliency(b *testing.B) { runExperiment(b, "figure14") }

// BenchmarkFigure15VaryInputs regenerates Figure 15 (ratio-to-ROD vs number
// of input streams).
func BenchmarkFigure15VaryInputs(b *testing.B) { runExperiment(b, "figure15") }

// BenchmarkOptimalComparison regenerates the Section 7.3.1 ROD-vs-optimal
// study on small graphs.
func BenchmarkOptimalComparison(b *testing.B) { runExperiment(b, "optimal") }

// BenchmarkLatencyUnderBurst regenerates the reconstructed Figure 16
// (end-to-end latency under bursty traces at rising mean load).
func BenchmarkLatencyUnderBurst(b *testing.B) { runExperiment(b, "latency") }

// BenchmarkLoadShiftRobustness regenerates the reconstructed Figure 17
// (feasibility after the load mix shifts away from the observed point).
func BenchmarkLoadShiftRobustness(b *testing.B) { runExperiment(b, "loadshift") }

// BenchmarkLowerBoundExtension regenerates the Section 6.1 experiment
// (floor-aware ROD on restricted workload sets).
func BenchmarkLowerBoundExtension(b *testing.B) { runExperiment(b, "lowerbound") }

// BenchmarkNonlinearJoins regenerates the Section 6.2 experiment (join
// workloads through linearization cuts).
func BenchmarkNonlinearJoins(b *testing.B) { runExperiment(b, "joins") }

// BenchmarkOperatorClustering regenerates the Section 6.3 experiment
// (clustering under communication CPU costs).
func BenchmarkOperatorClustering(b *testing.B) { runExperiment(b, "clustering") }

// BenchmarkRODVariantsAblation regenerates the ablation over ROD's Class-I
// and Class-II design choices.
func BenchmarkRODVariantsAblation(b *testing.B) { runExperiment(b, "rodvariants") }

// BenchmarkStaticVsDynamic regenerates the static-vs-dynamic-migration
// experiment behind the paper's Section 1 argument.
func BenchmarkStaticVsDynamic(b *testing.B) { runExperiment(b, "dynamic") }

// BenchmarkOrderingAblation regenerates the phase-1 ordering ablation plus
// the heterogeneous-capacity check.
func BenchmarkOrderingAblation(b *testing.B) { runExperiment(b, "ordering") }

// BenchmarkSimVsPrototype regenerates the simulator-vs-engine utilization
// cross-validation (the paper's Section 7.3.1 trust argument).
func BenchmarkSimVsPrototype(b *testing.B) { runExperiment(b, "crossval") }

// BenchmarkEmpiricalFeasibleSet regenerates the Section 7.1 methodology
// check: feasible-set ratios measured by actually running the system at
// sampled workload points vs the analytic integrator.
func BenchmarkEmpiricalFeasibleSet(b *testing.B) { runExperiment(b, "empirical") }

// ---- Micro-benchmarks of the machinery under the experiments.

// BenchmarkRODPlacement200 places a 200-operator, 5-stream workload on 10
// nodes — the paper's largest Figure 14 point.
func BenchmarkRODPlacement200(b *testing.B) {
	g, err := workload.RandomTrees(workload.TreeConfig{Streams: 5, OpsPerStream: 40, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		b.Fatal(err)
	}
	caps := make(mat.Vec, 10)
	for i := range caps {
		caps[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Place(lm.Coef, caps, core.Config{Selector: core.SelectMaxPlaneDistance}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQMCFeasibleRatio measures the Quasi-Monte-Carlo feasible-set
// integrator at d=5 with 4096 samples.
func BenchmarkQMCFeasibleRatio(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := mat.NewMatrix(10, 5)
	for k := 0; k < 5; k++ {
		var sum float64
		col := make([]float64, 10)
		for i := range col {
			col[i] = rng.Float64()
			sum += col[i]
		}
		for i := range col {
			w.Set(i, k, col[i]/sum*10)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feasible.RatioToIdealFrom(w, nil, 4096)
	}
}

// BenchmarkHalton measures low-discrepancy point generation (d=6).
func BenchmarkHalton(b *testing.B) {
	h := feasible.NewHalton(6)
	p := make([]float64, 6)
	for i := 0; i < b.N; i++ {
		h.Next(p)
	}
}

// BenchmarkLoadModelBuild measures linearized load-model construction on a
// 200-operator graph.
func BenchmarkLoadModelBuild(b *testing.B) {
	g, err := workload.RandomTrees(workload.TreeConfig{Streams: 5, OpsPerStream: 40, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.BuildLoadModel(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures discrete-event simulation speed
// (events/op reported as ns/op over a fixed 60-simulated-second run).
func BenchmarkSimulatorThroughput(b *testing.B) {
	gb := query.NewBuilder()
	in := gb.Input("I")
	s := gb.Filter("f", 0.0005, 0.7, in)
	s = gb.Map("m", 0.0004, s)
	gb.Aggregate("a", 0.0005, 0.1, 5, s)
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	tr := trace.Poisson(trace.PoissonConfig{Mean: 500, Dt: 1, Bins: 64, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			Graph:      g,
			NodeOf:     []int{0, 0, 0},
			Capacities: mat.VecOf(1),
			Sources:    map[query.StreamID]*trace.Trace{g.Inputs()[0]: tr},
			Duration:   60,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatePlan measures end-to-end plan evaluation (NodeCoef +
// weights + QMC) as used thousands of times by the sweeps.
func BenchmarkEvaluatePlan(b *testing.B) {
	g, err := workload.RandomTrees(workload.TreeConfig{Streams: 4, OpsPerStream: 25, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	caps := []float64{1, 1, 1, 1, 1, 1}
	plan, _, lm, err := rodsp.Place(g, caps, rodsp.Config{Selector: rodsp.SelectMaxPlaneDistance})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rodsp.FeasibleRatio(plan, lm, caps, 2048); err != nil {
			b.Fatal(err)
		}
	}
}
