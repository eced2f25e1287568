package check

import (
	"fmt"
	"math"
	"math/rand"

	"rodsp/internal/core"
	"rodsp/internal/feasible"
	"rodsp/internal/mat"
	"rodsp/internal/query"
	"rodsp/internal/workload"
)

// Metamorphic invariants — properties the paper's math guarantees for *any*
// input, checked on seeded random instances. Unlike the engine episodes,
// these are pure compute-plane checks: fully deterministic given the seed
// (the QMC point set is fixed, so set-inclusion arguments hold exactly
// sample by sample, not just statistically).
//
//   - The ideal placement's feasible-set ratio is exactly 1, and every
//     placement's ratio lies in [0, 1] (Theorem 1: the ideal coefficient
//     matrix attains the maximum feasible set).
//   - Scaling the weight matrix up — globally or any single node's row —
//     can only shrink the feasible set: the ratio is monotone
//     non-increasing, pointwise on the shared QMC sample set.
//   - Feasibility is monotone under rate scaling: if rate point R is
//     feasible then αR is feasible for every α ∈ [0, 1] (the feasible set
//     is downward closed — the property that makes "resilience to load
//     variations" well-defined).
//   - Aggregating operator coefficient rows by node conserves the column
//     sums under any placement and any sequence of migrations (load moves
//     between nodes; it is never created or destroyed).
type MetamorphicConfig struct {
	Seed    int64
	Cases   int // random instances per invariant (default 8)
	Samples int // QMC budget per ratio estimate (default 4096)
}

// RunMetamorphic executes the invariant catalog, returning the first
// violation (nil = all hold).
func RunMetamorphic(cfg MetamorphicConfig) error {
	if cfg.Cases <= 0 {
		cfg.Cases = 8
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 4096
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	if err := checkIdealRatio(rng, cfg); err != nil {
		return err
	}
	if err := checkRatioMonotone(rng, cfg); err != nil {
		return err
	}
	if err := checkFeasibilityDownwardClosed(rng, cfg); err != nil {
		return err
	}
	if err := checkPlacementConservation(rng, cfg); err != nil {
		return err
	}
	return nil
}

// checkIdealRatio: the ideal coefficient matrix normalizes to the all-ones
// weight matrix, whose feasible set IS the ideal simplex — ratio exactly 1.
func checkIdealRatio(rng *rand.Rand, cfg MetamorphicConfig) error {
	for i := 0; i < cfg.Cases; i++ {
		n := 2 + rng.Intn(4)
		d := 2 + rng.Intn(4)
		c := randVec(rng, n, 0.5, 2)
		lk := randVec(rng, d, 0.2, 3)
		w, err := feasible.Weights(feasible.IdealCoef(lk, c), c, lk)
		if err != nil {
			return fmt.Errorf("check: ideal weights: %w", err)
		}
		ratio, err := feasible.RatioToIdealFrom(w, nil, cfg.Samples)
		if err != nil {
			return err
		}
		if ratio != 1 {
			return fmt.Errorf("check: ideal placement ratio = %g, want exactly 1 (n=%d d=%d case %d)", ratio, n, d, i)
		}
	}
	return nil
}

// checkRatioMonotone: ratios live in [0, 1] and scaling weights up (whole
// matrix or one row) never grows the feasible set.
func checkRatioMonotone(rng *rand.Rand, cfg MetamorphicConfig) error {
	for i := 0; i < cfg.Cases; i++ {
		n := 2 + rng.Intn(4)
		d := 2 + rng.Intn(4)
		w := mat.NewMatrix(n, d)
		for k := range w.Data {
			w.Data[k] = 0.3 + rng.Float64()*2.5
		}
		prev := math.Inf(1)
		for _, alpha := range []float64{1, 1.3, 2, 4} {
			ws := w.Clone()
			ws.ScaleInPlace(alpha)
			ratio, err := feasible.RatioToIdealFrom(ws, nil, cfg.Samples)
			if err != nil {
				return err
			}
			if ratio < 0 || ratio > 1 {
				return fmt.Errorf("check: ratio %g outside [0,1] (case %d, alpha %g)", ratio, i, alpha)
			}
			if ratio > prev {
				return fmt.Errorf("check: ratio grew from %g to %g when scaling weights by %g (case %d)", prev, ratio, alpha, i)
			}
			prev = ratio
		}
		// Single-row scale-up: overloading one node shrinks (or keeps) the set.
		base, err := feasible.RatioToIdealFrom(w, nil, cfg.Samples)
		if err != nil {
			return err
		}
		row := rng.Intn(n)
		ws := w.Clone()
		r := ws.Row(row)
		for k := range r {
			r[k] *= 1.8
		}
		scaled, err := feasible.RatioToIdealFrom(ws, nil, cfg.Samples)
		if err != nil {
			return err
		}
		if scaled > base {
			return fmt.Errorf("check: ratio grew from %g to %g when scaling node %d's weights (case %d)", base, scaled, row, i)
		}
	}
	return nil
}

// checkFeasibilityDownwardClosed: L^n R ≤ C and 0 ≤ α ≤ 1 imply
// L^n (αR) ≤ C for non-negative load coefficients.
func checkFeasibilityDownwardClosed(rng *rand.Rand, cfg MetamorphicConfig) error {
	for i := 0; i < cfg.Cases; i++ {
		n := 2 + rng.Intn(4)
		d := 2 + rng.Intn(4)
		ln := mat.NewMatrix(n, d)
		for k := range ln.Data {
			ln.Data[k] = rng.Float64() * 2
		}
		sys := &feasible.System{Ln: ln, C: randVec(rng, n, 0.5, 2)}
		// Scale the all-ones direction onto the feasible boundary's 90%.
		u := sys.Utilizations(onesVec(d))
		umax := u.Max()
		if umax <= 0 {
			continue
		}
		r := make(mat.Vec, d)
		for k := range r {
			r[k] = 0.9 / umax
		}
		if !sys.FeasibleAt(r) {
			return fmt.Errorf("check: constructed rate point infeasible (case %d)", i)
		}
		for _, alpha := range []float64{0.9, 0.5, 0.1, 0} {
			ra := make(mat.Vec, d)
			for k := range r {
				ra[k] = alpha * r[k]
			}
			if !sys.FeasibleAt(ra) {
				return fmt.Errorf("check: feasible set not downward closed: R feasible but %g·R not (case %d)", alpha, i)
			}
		}
	}
	return nil
}

// checkPlacementConservation: ROD placements and arbitrary migration
// sequences conserve the load model's coefficient column sums.
func checkPlacementConservation(rng *rand.Rand, cfg MetamorphicConfig) error {
	for i := 0; i < cfg.Cases; i++ {
		g, err := workload.RandomTrees(workload.TreeConfig{
			Streams:      2 + rng.Intn(3),
			OpsPerStream: 3 + rng.Intn(5),
			Seed:         rng.Int63(),
		})
		if err != nil {
			return err
		}
		lm, err := query.BuildLoadModel(g)
		if err != nil {
			return err
		}
		nodes := 2 + rng.Intn(4)
		caps := onesVec(nodes)
		plan, _, err := core.Place(lm.Coef, caps, core.Config{})
		if err != nil {
			return err
		}
		nodeOf := append([]int(nil), plan.NodeOf...)
		want := lm.CoefSums()
		for step := 0; step <= 5; step++ {
			if step > 0 { // migrate a random operator
				nodeOf[rng.Intn(len(nodeOf))] = rng.Intn(nodes)
			}
			// Aggregate rows into the per-node coefficient matrix, then sum
			// the nodes back — the round trip the migration path exercises.
			nodeAgg := mat.NewMatrix(nodes, lm.D())
			for op := 0; op < lm.Coef.Rows; op++ {
				if nodeOf[op] < 0 || nodeOf[op] >= nodes {
					return fmt.Errorf("check: operator %d unplaced (case %d)", op, i)
				}
				row := lm.Coef.Row(op)
				dst := nodeAgg.Row(nodeOf[op])
				for j := range row {
					dst[j] += row[j]
				}
			}
			got := nodeAgg.ColSums()
			for j := range got {
				if math.Abs(got[j]-want[j]) > 1e-9 {
					return fmt.Errorf("check: coefficient sum for var %d drifted to %g (want %g) after %d migrations (case %d)",
						j, got[j], want[j], step, i)
				}
			}
		}
	}
	return nil
}

func randVec(rng *rand.Rand, n int, lo, hi float64) mat.Vec {
	v := make(mat.Vec, n)
	for i := range v {
		v[i] = lo + rng.Float64()*(hi-lo)
	}
	return v
}

func onesVec(n int) mat.Vec {
	v := make(mat.Vec, n)
	for i := range v {
		v[i] = 1
	}
	return v
}
