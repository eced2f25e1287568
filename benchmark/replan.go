package main

import (
	"fmt"
	"math/rand"
	"time"

	"rodsp/internal/core"
	"rodsp/internal/feasible"
	"rodsp/internal/mat"
	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/workload"
)

// The replan workload is the paper's m = 200, d = 5 instance on 10 nodes:
// what the controller pays for one placement decision.
const (
	replanStreams   = 5
	replanOps       = 40 // per stream
	replanNodes     = 10
	replanForecasts = 16    // forecast points the items rotate over
	placeSamples    = 3000  // PlaceBest's QMC budget, the controller-scale value the core benchmarks use
	ratioSamples    = 60000 // the final feasible-set estimate; sized so one item takes 20–40 ms here
	replanWindow    = time.Second
	replanSetups    = 9 // set-ups per run; setup_s is the median
)

// replanInput is everything generated from the seed.
type replanInput struct {
	g      *query.Graph
	caps   mat.Vec
	bounds []mat.Vec // raw-rate lower bounds, one per forecast point
}

// replanState is one set-up instance plus the per-forecast results used by
// the determinism check.
type replanState struct {
	in    replanInput
	seed  int64
	plans [replanForecasts][]int
	ratio [replanForecasts]float64
	seen  [replanForecasts]bool
}

// newReplanInput generates the graph, the heterogeneous capacities and the
// forecast points. The points are drawn in normalized coordinates (a random
// direction scaled to 15–50 % of total capacity) and mapped back to rates.
func newReplanInput(seed int64) (replanInput, error) {
	g, err := workload.RandomTrees(workload.TreeConfig{Streams: replanStreams, OpsPerStream: replanOps, Seed: seed})
	if err != nil {
		return replanInput{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	caps := make(mat.Vec, replanNodes)
	for i := range caps {
		caps[i] = 0.5 + rng.Float64()
	}
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		return replanInput{}, err
	}
	lk, ct := lm.Coef.ColSums(), caps.Sum()
	bounds := make([]mat.Vec, replanForecasts)
	for f := range bounds {
		x := make(mat.Vec, lm.D())
		sum := 0.0
		for k := range x {
			x[k] = 0.1 + rng.Float64()
			sum += x[k]
		}
		u := 0.15 + 0.35*rng.Float64()
		for k := range x {
			x[k] *= u / sum
		}
		bounds[f] = feasible.Denormalize(x, lk, ct)
	}
	return replanInput{g: g, caps: caps, bounds: bounds}, nil
}

// item makes one placement decision at forecast point i mod replanForecasts:
// load model → PlaceBest → feasible-set ratio. It returns the ratio, and
// fails the run's checks on an invalid plan or a result that differs from an
// earlier one at the same forecast point.
func (r *replanState) item(i int, tr *tracer, parent int, o *outcome) (float64, error) {
	f := i % replanForecasts
	lb := r.in.bounds[f]
	root := tr.begin("replan.item", parent)
	defer tr.end(root)

	sp := tr.begin("query.loadmodel", root)
	lm, err := query.BuildLoadModel(r.in.g)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin("core.placebest", root)
	plan, rep, err := core.PlaceBest(lm.Coef, r.in.caps, core.Config{LowerBound: lb, Seed: r.seed}, placeSamples)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin("feasible.ratio", root)
	nb := feasible.Normalize(lb, lm.Coef.ColSums(), r.in.caps.Sum())
	ratio, err := feasible.RatioToIdealFrom(rep.Weights, nb, ratioSamples)
	tr.end(sp)
	if err != nil {
		return 0, err
	}

	known := len(o.problems)
	if len(plan.NodeOf) != r.in.g.NumOps() {
		o.fail("item %d: plan places %d operators, graph has %d", i, len(plan.NodeOf), r.in.g.NumOps())
	}
	for op, n := range plan.NodeOf {
		if n < 0 || n >= replanNodes {
			o.fail("item %d: operator %d placed on node %d of %d", i, op, n, replanNodes)
		}
	}
	if !r.seen[f] {
		r.seen[f], r.plans[f], r.ratio[f] = true, append([]int(nil), plan.NodeOf...), ratio
	} else if ratio != r.ratio[f] || !equalInts(plan.NodeOf, r.plans[f]) {
		o.fail("item %d: forecast point %d gave a different plan or ratio (%v vs %v) than before", i, f, ratio, r.ratio[f])
	}
	if len(o.problems) > known {
		o.Failed++
	}
	return ratio, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replanSeries collects the per-window samples of a replan run.
type replanSeries struct {
	capacity, cpuNs, p50Ms, p95Ms []float64
	items                         int64
}

// loop makes decisions back to back (closed loop, one client) for dur.
// Windows end at the first item completion past each replanWindow, so a
// window's rate is not quantized by whole items; the first is discarded.
func (r *replanState) loop(dur time.Duration, next *int, tr *tracer, parent int, s *replanSeries, o *outcome) error {
	end := time.Now().Add(dur)
	first := true
	for time.Now().Before(end) {
		t0, cpu0 := time.Now(), cpuNow()
		var lat []float64
		for {
			t := time.Now()
			if _, err := r.item(*next, tr, parent, o); err != nil {
				return err
			}
			*next++
			s.items++
			lat = append(lat, float64(time.Since(t))/float64(time.Millisecond))
			if time.Since(t0) >= replanWindow || !time.Now().Before(end) {
				break
			}
		}
		if !first {
			n := float64(len(lat))
			s.capacity = append(s.capacity, n/time.Since(t0).Seconds())
			s.cpuNs = append(s.cpuNs, float64(cpuNow()-cpu0)/n)
			s.p50Ms = append(s.p50Ms, median(lat))
			s.p95Ms = append(s.p95Ms, quantile(lat, 0.95))
		}
		first = false
	}
	return nil
}

// setupReplan generates the inputs and makes the first decision,
// replanSetups times; setup_s is the median.
func setupReplan(cfg runConfig, tr *tracer, parent int, o *outcome) (*replanState, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		start := time.Now()
		sp := tr.begin("setup", parent)
		in, err := newReplanInput(cfg.seed)
		if err != nil {
			return nil, nil, err
		}
		r := &replanState{in: in, seed: cfg.seed}
		_, err = r.item(0, tr, sp, o)
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == replanSetups-1 {
			return r, setups, nil
		}
	}
}

// ratios completes the per-forecast results and compares ROD with the
// largest-load-first balancer on the same points. Both means are exact
// counts over fixed QMC points: they repeat bit for bit.
func (r *replanState) ratios(o *outcome) (plan, llf float64, err error) {
	lm, err := query.BuildLoadModel(r.in.g)
	if err != nil {
		return 0, 0, err
	}
	for f := 0; f < replanForecasts; f++ {
		if !r.seen[f] {
			if _, err := r.item(f, nil, 0, o); err != nil {
				return 0, 0, err
			}
		}
		p, err := placement.LLF(lm.Coef, r.in.caps, r.in.bounds[f])
		if err != nil {
			return 0, 0, err
		}
		lr, err := placement.EvaluateFrom(p, lm.Coef, r.in.caps, r.in.bounds[f], ratioSamples)
		if err != nil {
			return 0, 0, err
		}
		plan += r.ratio[f] / replanForecasts
		llf += lr / replanForecasts
	}
	if plan < llf {
		o.fail("ROD's mean feasible-set ratio %.6f is below largest-load-first's %.6f", plan, llf)
	}
	return plan, llf, nil
}

// runReplan runs the placement-plane workload.
func runReplan(cfg runConfig) (*outcome, error) {
	if cfg.trace {
		return runReplanTraced(cfg)
	}
	o := newOutcome(endToEnd)
	r, setups, err := setupReplan(cfg, nil, 0, o)
	if err != nil {
		return nil, err
	}
	o.set("setup_s", median(setups))
	o.samples["setup_s"] = fmt.Sprintf("median of %d set-ups", len(setups))

	var s replanSeries
	next := 1
	if err := r.loop(time.Duration(cfg.seconds*float64(time.Second)), &next, nil, 0, &s, o); err != nil {
		return nil, err
	}
	if _, _, err := r.ratios(o); err != nil {
		return nil, err
	}
	if len(s.capacity) == 0 {
		return nil, fmt.Errorf("replan: %g s is too short for one kept window", cfg.seconds)
	}
	o.Attempted = s.items
	o.setWindows("capacity_per_s", s.capacity, true)
	o.setWindows("cpu_ns_per_item", s.cpuNs, false)
	o.setWindows("latency_p50_ms", s.p50Ms, false)
	o.setWindows("latency_p95_ms", s.p95Ms, false)
	return o, nil
}
