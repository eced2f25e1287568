// Package core implements ROD — Resilient Operator Distribution — the
// paper's primary contribution (Section 5), with the Section 6 extensions:
// general lower bounds on input rates and pluggable Class-I tie-breaking
// (including the communication-aware minimum-inter-node-streams choice).
//
// The algorithm has two phases. Phase 1 sorts operators by the Euclidean
// norm of their load coefficient vectors, descending, so high-impact
// operators are placed while the most freedom remains. Phase 2 walks the
// sorted list; for each operator it partitions nodes into Class I (the
// candidate hyperplane after assignment still lies entirely on or above the
// ideal hyperplane — i.e. every normalized weight w_ik stays ≤ 1, so the
// assignment cannot shrink the final feasible set) and Class II (the rest).
// A Class I node is chosen when one exists (following the MMAD heuristic);
// otherwise the Class II node with the maximum candidate plane distance is
// chosen (the MMPD heuristic).
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rodsp/internal/feasible"
	"rodsp/internal/mat"
	"rodsp/internal/par"
	"rodsp/internal/placement"
	"rodsp/internal/query"
)

// Selector chooses among Class I nodes, where any choice preserves the
// reachable feasible set; the paper notes a random node "or some other
// criteria" may be used (Section 5.2).
type Selector int

const (
	// SelectRandom picks a uniformly random Class I node (the paper's
	// default formulation).
	SelectRandom Selector = iota
	// SelectMaxPlaneDistance picks the Class I node keeping the maximum
	// candidate plane distance — fully deterministic.
	SelectMaxPlaneDistance
	// SelectMinConnections picks the Class I node minimizing the number of
	// new inter-node streams (Section 5.2's communication-aware choice);
	// requires Config.Graph.
	SelectMinConnections
	// SelectAxisBalance is this repository's refinement: Class I choices
	// follow the max-plane-distance rule, but Class II placements maximize
	// plane distance *divided by the node's worst axis weight*, penalizing
	// the deepest cut into the ideal simplex. It clearly beats the paper's
	// plain distance rule on operator-rich workloads and loses on sparse
	// ones; PlaceBest runs both and keeps the winner.
	SelectAxisBalance
)

// String names the selector.
func (s Selector) String() string {
	switch s {
	case SelectRandom:
		return "random"
	case SelectMaxPlaneDistance:
		return "max-plane-distance"
	case SelectMinConnections:
		return "min-connections"
	case SelectAxisBalance:
		return "axis-balance"
	default:
		return fmt.Sprintf("selector(%d)", int(s))
	}
}

// Ordering selects the phase-1 operator order. The paper sorts by
// descending coefficient norm so high-impact operators are placed while
// freedom remains (like LPT scheduling and first-fit-decreasing packing);
// the alternatives exist for the ordering ablation.
type Ordering int

const (
	// OrderNormDescending is the paper's phase 1 (the default).
	OrderNormDescending Ordering = iota
	// OrderNormAscending places small operators first (the classic greedy
	// mistake — kept for the ablation).
	OrderNormAscending
	// OrderRandom shuffles the operators (seeded by Config.Seed).
	OrderRandom
)

// String names the ordering.
func (o Ordering) String() string {
	switch o {
	case OrderNormDescending:
		return "norm-desc"
	case OrderNormAscending:
		return "norm-asc"
	case OrderRandom:
		return "random"
	default:
		return fmt.Sprintf("ordering(%d)", int(o))
	}
}

// Config tunes a ROD run.
type Config struct {
	// LowerBound is the Section 6.1 workload floor B (raw rates, length d);
	// nil optimizes against the origin.
	LowerBound mat.Vec
	// Selector picks among Class I nodes; default SelectRandom.
	Selector Selector
	// Ordering overrides the phase-1 operator order (ablation support);
	// default OrderNormDescending.
	Ordering Ordering
	// Seed drives SelectRandom and OrderRandom.
	Seed int64
	// Graph supplies connectivity for SelectMinConnections.
	Graph *query.Graph
	// Pinned forces specific operators onto specific nodes (operator row →
	// node index) before the greedy phase runs — source/sink affinity,
	// licensing constraints, co-location requirements. Pinned load is part
	// of every subsequent Class I/II decision.
	Pinned map[int]int
}

// Report captures the decisions of a ROD run for inspection and tests.
type Report struct {
	// Order is the phase-1 operator order (indices into L^o rows).
	Order []int
	// ClassIAssignments and ClassIIAssignments count how operators were
	// placed; PinnedAssignments counts pre-placed (Config.Pinned) operators.
	ClassIAssignments, ClassIIAssignments, PinnedAssignments int
	// Weights is the final normalized weight matrix W.
	Weights *mat.Matrix
	// MinPlaneDistance is the final MMPD objective value r (measured from
	// the normalized lower bound when one is configured).
	MinPlaneDistance float64
	// MinAxisDistances is the final per-axis MMAD metric.
	MinAxisDistances mat.Vec
}

// Place runs ROD over an operator load coefficient matrix and node
// capacities, returning the plan and a report.
func Place(lo *mat.Matrix, c mat.Vec, cfg Config) (*placement.Plan, *Report, error) {
	m, d := lo.Rows, lo.Cols
	n := len(c)
	if m == 0 {
		return nil, nil, fmt.Errorf("core: no operators to place")
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("core: no nodes to place onto")
	}
	for i, ci := range c {
		if ci <= 0 {
			return nil, nil, fmt.Errorf("core: node %d capacity %g must be positive", i, ci)
		}
	}
	for j := 0; j < m; j++ {
		for k := 0; k < d; k++ {
			if lo.At(j, k) < 0 {
				return nil, nil, fmt.Errorf("core: negative load coefficient l^o[%d][%d] = %g", j, k, lo.At(j, k))
			}
		}
	}
	lk := lo.ColSums()
	for k, l := range lk {
		if l <= 0 {
			return nil, nil, fmt.Errorf("core: variable %d has zero total load coefficient (stream feeds no operator)", k)
		}
	}
	ct := c.Sum()

	// Normalized lower bound b_k = B_k·l_k/C_T (zero when not configured).
	b := mat.NewVec(d)
	if cfg.LowerBound != nil {
		if len(cfg.LowerBound) != d {
			return nil, nil, fmt.Errorf("core: lower bound has %d entries for %d variables", len(cfg.LowerBound), d)
		}
		for k := range b {
			if v := cfg.LowerBound[k]; !(v >= 0) || math.IsInf(v, 1) {
				return nil, nil, fmt.Errorf("core: lower bound %g for variable %d, want finite and non-negative", v, k)
			}
		}
		b = feasible.Normalize(cfg.LowerBound, lk, ct)
	}
	if cfg.Selector == SelectMinConnections && cfg.Graph == nil {
		return nil, nil, fmt.Errorf("core: SelectMinConnections requires Config.Graph")
	}
	if cfg.Graph != nil && cfg.Graph.NumOps() != m {
		return nil, nil, fmt.Errorf("core: graph has %d operators, L^o has %d rows", cfg.Graph.NumOps(), m)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Phase 1: order by ‖l^o_j‖ descending (index ascending on ties), or
	// per the ablation override.
	order := make([]int, m)
	for j := range order {
		order[j] = j
	}
	norms := make([]float64, m)
	for j := 0; j < m; j++ {
		norms[j] = lo.Row(j).Norm()
	}
	switch cfg.Ordering {
	case OrderNormAscending:
		sort.SliceStable(order, func(a, x int) bool { return norms[order[a]] < norms[order[x]] })
	case OrderRandom:
		rng.Shuffle(m, func(a, x int) { order[a], order[x] = order[x], order[a] })
	default:
		sort.SliceStable(order, func(a, x int) bool { return norms[order[a]] > norms[order[x]] })
	}

	// Phase 2: greedy assignment. Pinned operators are placed first so
	// their load shapes every subsequent decision.
	//
	// The incremental compute plane: per-node accumulated load rows (ln)
	// are the only mutable state, updated in O(d) on each assignment, and
	// every candidate (operator, node) pair is scored in a single fused
	// O(d) pass that never materializes the candidate weight row — the
	// Class I flag, squared norm, lower-bound dot product and worst axis
	// weight accumulate together, in the same index order the naive
	// matrix rebuild would use, so every decision (and therefore the
	// plan) is bit-identical to full recomputation.
	nodeOf := make([]int, m)
	ln := mat.NewMatrix(n, d)
	report := &Report{Order: order}
	// Pinned rows are added in ascending operator order: floating-point
	// addition does not commute in the last bit, and map order is random.
	pinned := make([]int, 0, len(cfg.Pinned))
	for j := range cfg.Pinned {
		pinned = append(pinned, j)
	}
	sort.Ints(pinned)
	for _, j := range pinned {
		node := cfg.Pinned[j]
		if j < 0 || j >= m {
			return nil, nil, fmt.Errorf("core: pinned operator %d outside [0,%d)", j, m)
		}
		if node < 0 || node >= n {
			return nil, nil, fmt.Errorf("core: operator %d pinned to node %d outside [0,%d)", j, node, n)
		}
		nodeOf[j] = node
		ln.Row(node).AddInPlace(lo.Row(j))
		report.PinnedAssignments++
	}
	share := make([]float64, n)
	for i := range share {
		share[i] = c[i] / ct
	}
	cand := candScores{
		norm: make([]float64, n),
		dotB: make([]float64, n),
		maxW: make([]float64, n),
	}
	classI := make([]int, 0, n)
	placedPrefix := make([]int, 0, m) // order prefix, every entry assigned
	const eps = 1e-9
	for _, j := range order {
		if _, pinned := cfg.Pinned[j]; pinned {
			placedPrefix = append(placedPrefix, j)
			continue
		}
		loRow := lo.Row(j)
		classI = classI[:0]
		for i := 0; i < n; i++ {
			lnRow := ln.Row(i)
			sh := share[i]
			inClassI := true
			var s2, sb, maxV float64
			for k := 0; k < d; k++ {
				v := (lnRow[k] + loRow[k]) / lk[k] / sh
				if v > 1+eps {
					inClassI = false
				}
				s2 += v * v
				sb += v * b[k]
				if k == 0 || v > maxV {
					maxV = v
				}
			}
			cand.norm[i] = math.Sqrt(s2)
			cand.dotB[i] = sb
			cand.maxW[i] = maxV
			if inClassI {
				classI = append(classI, i)
			}
		}
		var dest int
		if len(classI) > 0 {
			dest = selectClassI(classI, &cand, placedPrefix, nodeOf, j, cfg, rng)
			report.ClassIAssignments++
		} else {
			dest = selectClassII(&cand, cfg)
			report.ClassIIAssignments++
		}
		nodeOf[j] = dest
		ln.Row(dest).AddInPlace(loRow)
		placedPrefix = append(placedPrefix, j)
	}

	plan := &placement.Plan{NodeOf: nodeOf, N: n}
	wFinal, err := feasible.Weights(ln, c, lk)
	if err != nil {
		return nil, nil, err
	}
	report.Weights = wFinal
	report.MinPlaneDistance = feasible.MinPlaneDistanceFrom(wFinal, b)
	report.MinAxisDistances = feasible.MinAxisDistances(wFinal)
	return plan, report, nil
}

// candScores holds the fused per-candidate statistics of one Phase 2 step:
// for every node, the candidate weight row's Euclidean norm, its dot
// product with the normalized lower bound, and its worst axis weight —
// everything any selector needs, computed without building the row.
type candScores struct {
	norm, dotB, maxW []float64
}

// distOrigin is feasible.PlaneDistance of the candidate row: 1/‖W_i‖, with
// an empty row at infinity.
func (cs *candScores) distOrigin(i int) float64 {
	if cs.norm[i] == 0 {
		return math.Inf(1)
	}
	return 1 / cs.norm[i]
}

// distFromB is feasible.PlaneDistanceFrom of the candidate row:
// (1 − W_i·b)/‖W_i‖, the Section 6.1 lower-bound metric.
func (cs *candScores) distFromB(i int) float64 {
	if cs.norm[i] == 0 {
		return math.Inf(1)
	}
	return (1 - cs.dotB[i]) / cs.norm[i]
}

// selectClassII picks the destination when every node's candidate
// hyperplane already dips below the ideal one. The paper's rule is the
// maximum candidate plane distance (measured from the Section 6.1 lower
// bound when configured); SelectAxisBalance maximizes that distance divided
// by the node's worst axis weight, penalizing the deepest cut into the
// ideal simplex.
func selectClassII(cand *candScores, cfg Config) int {
	n := len(cand.norm)
	if cfg.Selector == SelectAxisBalance {
		best, bestScore := 0, math.Inf(-1)
		for i := 0; i < n; i++ {
			// Distance rewarded, worst-axis overshoot penalized: the deepest
			// axis cut dominates the feasible-set loss once rows exceed the
			// ideal budget.
			score := cand.distFromB(i) / cand.maxW[i]
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		return best
	}
	best, bestDist := 0, math.Inf(-1)
	for i := 0; i < n; i++ {
		if dist := cand.distFromB(i); dist > bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}

func selectClassI(candidates []int, cand *candScores, placedPrefix []int, nodeOf []int, j int, cfg Config, rng *rand.Rand) int {
	switch cfg.Selector {
	case SelectMaxPlaneDistance, SelectAxisBalance:
		// Class I choices cannot shrink the reachable feasible set, so the
		// tie-break always uses the origin-based plane distance: measuring
		// from a diagonal lower bound here would systematically favour
		// axis-concentrated nodes (the Figure 8 bottleneck shape). The
		// Section 6.1 from-the-floor metric applies only to the Class II
		// (MMPD) decision.
		best, bestDist := candidates[0], math.Inf(-1)
		for _, i := range candidates {
			if dist := cand.distOrigin(i); dist > bestDist {
				best, bestDist = i, dist
			}
		}
		return best
	case SelectMinConnections:
		// Maximize already-placed neighbors on the destination (equivalent
		// to minimizing newly created inter-node streams).
		best, bestScore := candidates[0], -1
		for _, i := range candidates {
			score := 0
			for _, prev := range placedPrefix {
				if nodeOf[prev] == i && cfg.Graph.Connected(query.OpID(j), query.OpID(prev)) {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		return best
	default: // SelectRandom
		return candidates[rng.Intn(len(candidates))]
	}
}

// PlaceBest is a two-run portfolio: it places with the paper's Class II
// rule (SelectMaxPlaneDistance) and with the SelectAxisBalance refinement,
// estimates each plan's feasible-set ratio by QMC over the ideal simplex
// (restricted to the configured lower bound, if any), and returns the
// better plan with its report. Neither rule dominates alone: the paper's
// wins when operators are few and coarse, the refinement on operator-rich
// workloads.
//
// The two arms run concurrently on the par worker pool; the winner is
// chosen by comparing the arms in a fixed order, so the result is
// identical to the serial portfolio for any worker count.
func PlaceBest(lo *mat.Matrix, c mat.Vec, cfg Config, samples int) (*placement.Plan, *Report, error) {
	if samples <= 0 {
		samples = 2000
	}
	lk := lo.ColSums()
	selectors := []Selector{SelectMaxPlaneDistance, SelectAxisBalance}
	type arm struct {
		plan   *placement.Plan
		report *Report
		ratio  float64
	}
	arms, err := par.Map(len(selectors), func(i int) (arm, error) {
		c2 := cfg
		c2.Selector = selectors[i]
		plan, report, err := Place(lo, c, c2)
		if err != nil {
			return arm{}, err
		}
		var ratio float64
		if cfg.LowerBound != nil {
			nb := feasible.Normalize(cfg.LowerBound, lk, c.Sum())
			ratio, err = feasible.RatioToIdealFrom(report.Weights, nb, samples)
		} else {
			ratio, err = feasible.RatioAuto(report.Weights, samples)
		}
		if err != nil {
			return arm{}, err
		}
		return arm{plan, report, ratio}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	var (
		bestPlan   *placement.Plan
		bestReport *Report
		bestRatio  = -1.0
	)
	for _, a := range arms {
		if a.ratio > bestRatio {
			bestPlan, bestReport, bestRatio = a.plan, a.report, a.ratio
		}
	}
	return bestPlan, bestReport, nil
}

// PlaceGraph builds the (linearized) load model of g and runs ROD on it.
// It returns the plan, the report and the load model (whose variable list
// explains the weight-matrix columns).
func PlaceGraph(g *query.Graph, c mat.Vec, cfg Config) (*placement.Plan, *Report, *query.LoadModel, error) {
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		return nil, nil, nil, err
	}
	if cfg.Graph == nil {
		cfg.Graph = g
	}
	plan, report, err := Place(lm.Coef, c, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return plan, report, lm, nil
}
