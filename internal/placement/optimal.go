package placement

import (
	"fmt"

	"rodsp/internal/feasible"
	"rodsp/internal/mat"
)

// Evaluate computes the feasible-set size of a plan as a ratio to the ideal
// feasible set through feasible.RatioAuto: exactly (feasible.ExactRatio) at
// d = 2 and 3, by QMC over the ideal simplex otherwise.
func Evaluate(p *Plan, lo *mat.Matrix, c mat.Vec, samples int) (float64, error) {
	w, err := WeightsOf(p, lo, c)
	if err != nil {
		return 0, err
	}
	return feasible.RatioAuto(w, samples)
}

// EvaluateFrom is Evaluate over the Section 6.1 restricted workload set
// {R ≥ B}; lb is the raw lower bound (length d), converted to normalized
// coordinates internally.
func EvaluateFrom(p *Plan, lo *mat.Matrix, c mat.Vec, lb mat.Vec, samples int) (float64, error) {
	if len(lb) != lo.Cols {
		return 0, fmt.Errorf("placement: lower bound has %d entries for %d variables", len(lb), lo.Cols)
	}
	w, err := WeightsOf(p, lo, c)
	if err != nil {
		return 0, err
	}
	nb := feasible.Normalize(lb, lo.ColSums(), c.Sum())
	return feasible.RatioToIdealFrom(w, nb, samples)
}

// WeightsOf returns the normalized weight matrix of a plan.
func WeightsOf(p *Plan, lo *mat.Matrix, c mat.Vec) (*mat.Matrix, error) {
	ln := p.NodeCoef(lo)
	return feasible.Weights(ln, c, lo.ColSums())
}

// OptimalConfig bounds the brute-force search.
type OptimalConfig struct {
	// Samples is the QMC budget per candidate when d > 3.
	Samples int
	// MaxPlans caps the number of evaluated candidates (0 = no cap). The
	// search fails rather than silently truncating when the cap is hit.
	MaxPlans int
}

// Optimal exhaustively searches all operator placements and returns one
// with the maximum feasible-set ratio, together with that ratio. With
// homogeneous capacities the search enumerates only canonical
// (restricted-growth) assignments, cutting the n^m space by up to n!.
// It is intended for the small instances of Section 7.3.1 (≤ ~20 operators
// on 2 nodes).
func Optimal(lo *mat.Matrix, c mat.Vec, cfg OptimalConfig) (*Plan, float64, error) {
	m := lo.Rows
	n := len(c)
	if m == 0 || n == 0 {
		return nil, 0, fmt.Errorf("placement: Optimal needs operators and nodes")
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 4096
	}
	homogeneous := true
	for _, ci := range c[1:] {
		if ci != c[0] {
			homogeneous = false
			break
		}
	}

	var (
		best      *Plan
		bestRatio = -1.0
		evaluated = 0
	)
	nodeOf := make([]int, m)
	var rec func(j, used int) error
	rec = func(j, used int) error {
		if j == m {
			if cfg.MaxPlans > 0 && evaluated >= cfg.MaxPlans {
				return fmt.Errorf("placement: Optimal exceeded MaxPlans=%d", cfg.MaxPlans)
			}
			evaluated++
			p := &Plan{NodeOf: nodeOf, N: n}
			ratio, err := Evaluate(p, lo, c, cfg.Samples)
			if err != nil {
				return err
			}
			if ratio > bestRatio {
				bestRatio = ratio
				best = p.Clone()
			}
			return nil
		}
		limit := n
		if homogeneous && used < n {
			// Canonical form: operator j may open at most one new node.
			limit = used + 1
		}
		for i := 0; i < limit; i++ {
			nodeOf[j] = i
			nextUsed := used
			if i == used {
				nextUsed++
			}
			if err := rec(j+1, nextUsed); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, 0); err != nil {
		return nil, 0, err
	}
	return best, bestRatio, nil
}
