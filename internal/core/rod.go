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
	"slices"
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
	w, err := newWalk(lo, c, cfg)
	if err != nil {
		return nil, nil, err
	}
	w.run(cfg.Selector)
	return w.result()
}

// walk is one ROD run from validation to the last assignment: Phase 1's
// order and Phase 2's state. The incremental compute plane: per-node
// accumulated load rows (ln) are the only mutable state, updated in O(d)
// on each assignment, and every candidate (operator, node) pair is scored
// in a single fused O(d) pass that never materializes the candidate weight
// row — the Class I flag, squared norm, lower-bound dot product and worst
// axis weight accumulate together, in the same index order the naive
// matrix rebuild would use, so every decision (and therefore the plan) is
// bit-identical to full recomputation.
type walk struct {
	lo       *mat.Matrix
	c, lk, b mat.Vec // capacities, column sums, normalized lower bound
	share    []float64
	cfg      Config
	rng      *rand.Rand // seeded on the first draw; see rand
	ln       *mat.Matrix
	nodeOf   []int
	report   Report // Order and the class counts so far
	at       int    // report.Order[:at] is placed
	cand     candScores
	classI   []int
}

// newWalk validates a run, orders the operators (Phase 1) and places the
// pinned ones, leaving a walk at the first step of Phase 2.
func newWalk(lo *mat.Matrix, c mat.Vec, cfg Config) (*walk, error) {
	m, d := lo.Rows, lo.Cols
	n := len(c)
	if m == 0 {
		return nil, fmt.Errorf("core: no operators to place")
	}
	if n == 0 {
		return nil, fmt.Errorf("core: no nodes to place onto")
	}
	for i, ci := range c {
		if ci <= 0 {
			return nil, fmt.Errorf("core: node %d capacity %g must be positive", i, ci)
		}
	}
	for j := 0; j < m; j++ {
		for k := 0; k < d; k++ {
			if lo.At(j, k) < 0 {
				return nil, fmt.Errorf("core: negative load coefficient l^o[%d][%d] = %g", j, k, lo.At(j, k))
			}
		}
	}
	lk := lo.ColSums()
	for k, l := range lk {
		if l <= 0 {
			return nil, fmt.Errorf("core: variable %d has zero total load coefficient (stream feeds no operator)", k)
		}
	}
	ct := c.Sum()

	// Normalized lower bound b_k = B_k·l_k/C_T (zero when not configured).
	b := mat.NewVec(d)
	if cfg.LowerBound != nil {
		if len(cfg.LowerBound) != d {
			return nil, fmt.Errorf("core: lower bound has %d entries for %d variables", len(cfg.LowerBound), d)
		}
		for k := range b {
			if v := cfg.LowerBound[k]; !(v >= 0) || math.IsInf(v, 1) {
				return nil, fmt.Errorf("core: lower bound %g for variable %d, want finite and non-negative", v, k)
			}
		}
		b = feasible.Normalize(cfg.LowerBound, lk, ct)
	}
	if cfg.Selector == SelectMinConnections && cfg.Graph == nil {
		return nil, fmt.Errorf("core: SelectMinConnections requires Config.Graph")
	}
	if cfg.Graph != nil && cfg.Graph.NumOps() != m {
		return nil, fmt.Errorf("core: graph has %d operators, L^o has %d rows", cfg.Graph.NumOps(), m)
	}
	w := &walk{lo: lo, c: c, lk: lk, b: b, cfg: cfg, ln: mat.NewMatrix(n, d), nodeOf: make([]int, m), classI: make([]int, 0, n)}

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
		w.rand().Shuffle(m, func(a, x int) { order[a], order[x] = order[x], order[a] })
	default:
		sort.SliceStable(order, func(a, x int) bool { return norms[order[a]] > norms[order[x]] })
	}
	w.report.Order = order

	// Phase 2 places pinned operators first so their load shapes every
	// subsequent decision. Pinned rows are added in ascending operator
	// order: floating-point addition does not commute in the last bit, and
	// map order is random.
	pinned := make([]int, 0, len(cfg.Pinned))
	for j := range cfg.Pinned {
		pinned = append(pinned, j)
	}
	sort.Ints(pinned)
	for _, j := range pinned {
		node := cfg.Pinned[j]
		if j < 0 || j >= m {
			return nil, fmt.Errorf("core: pinned operator %d outside [0,%d)", j, m)
		}
		if node < 0 || node >= n {
			return nil, fmt.Errorf("core: operator %d pinned to node %d outside [0,%d)", j, node, n)
		}
		w.nodeOf[j] = node
		w.ln.Row(node).AddInPlace(lo.Row(j))
		w.report.PinnedAssignments++
	}
	w.share = make([]float64, n)
	for i := range w.share {
		w.share[i] = c[i] / ct
	}
	w.cand = newCandScores(n)
	return w, nil
}

// rand is the run's random source. It is seeded on the first draw, since
// seeding costs more than a Phase 2 step and most runs never draw; the
// draws, and so the plan, are those of a source seeded up front.
func (w *walk) rand() *rand.Rand {
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(w.cfg.Seed))
	}
	return w.rng
}

// scoreNext moves past pinned operators to the next one Phase 2 must
// place and scores it on every node into cand and classI. It returns false
// once every operator is placed.
func (w *walk) scoreNext() bool {
	order := w.report.Order
	for ; w.at < len(order); w.at++ {
		if _, pinned := w.cfg.Pinned[order[w.at]]; !pinned {
			break
		}
	}
	if w.at == len(order) {
		return false
	}
	const eps = 1e-9
	loRow := w.lo.Row(order[w.at])
	d := len(loRow)
	lk, b := w.lk, w.b
	w.classI = w.classI[:0]
	for i, sh := range w.share {
		lnRow := w.ln.Row(i)
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
		w.cand.norm[i] = math.Sqrt(s2)
		w.cand.dotB[i] = sb
		w.cand.maxW[i] = maxV
		if inClassI {
			w.classI = append(w.classI, i)
		}
	}
	return true
}

// choose is sel's destination for the scored operator.
func (w *walk) choose(sel Selector) int {
	if len(w.classI) > 0 {
		return w.selectClassI(sel)
	}
	return selectClassII(&w.cand, sel)
}

// assign places the scored operator on dest.
func (w *walk) assign(dest int) {
	if len(w.classI) > 0 {
		w.report.ClassIAssignments++
	} else {
		w.report.ClassIIAssignments++
	}
	j := w.report.Order[w.at]
	w.nodeOf[j] = dest
	w.ln.Row(dest).AddInPlace(w.lo.Row(j))
	w.at++
}

// run finishes Phase 2 with sel.
func (w *walk) run(sel Selector) {
	for w.scoreNext() {
		w.assign(w.choose(sel))
	}
}

// fork returns a copy of w that shares nothing mutable with it and holds
// the scored operator's class, so each copy can assign it differently.
// The copy has no random source: only selectors that never draw fork, and
// after Phase 1 has drawn its order.
func (w *walk) fork() *walk {
	f := *w
	f.ln = w.ln.Clone()
	f.nodeOf = slices.Clone(w.nodeOf)
	f.report.Order = slices.Clone(w.report.Order)
	f.cand = newCandScores(len(w.share))
	f.classI = append(make([]int, 0, len(w.share)), w.classI...)
	f.rng = nil
	return &f
}

// result is the placed walk's plan and report.
func (w *walk) result() (*placement.Plan, *Report, error) {
	wFinal, err := feasible.Weights(w.ln, w.c, w.lk)
	if err != nil {
		return nil, nil, err
	}
	report := w.report
	report.Weights = wFinal
	report.MinPlaneDistance = feasible.MinPlaneDistanceFrom(wFinal, w.b)
	report.MinAxisDistances = feasible.MinAxisDistances(wFinal)
	return &placement.Plan{NodeOf: w.nodeOf, N: len(w.c)}, &report, nil
}

// candScores holds the fused per-candidate statistics of one Phase 2 step:
// for every node, the candidate weight row's Euclidean norm, its dot
// product with the normalized lower bound, and its worst axis weight —
// everything any selector needs, computed without building the row.
type candScores struct {
	norm, dotB, maxW []float64
}

func newCandScores(n int) candScores {
	return candScores{norm: make([]float64, n), dotB: make([]float64, n), maxW: make([]float64, n)}
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
func selectClassII(cand *candScores, sel Selector) int {
	n := len(cand.norm)
	if sel == SelectAxisBalance {
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

func (w *walk) selectClassI(sel Selector) int {
	candidates, cand := w.classI, &w.cand
	switch sel {
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
		j := w.report.Order[w.at]
		for _, i := range candidates {
			score := 0
			for _, prev := range w.report.Order[:w.at] {
				if w.nodeOf[prev] == i && w.cfg.Graph.Connected(query.OpID(j), query.OpID(prev)) {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		return best
	default: // SelectRandom
		return candidates[w.rand().Intn(len(candidates))]
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
// The two arms share validation, Phase 1 and every Class I choice, so they
// are walked once until the first Class II step whose two rules disagree;
// there the walk forks. The two suffixes and the two evaluations run
// concurrently on the par worker pool, and arms that never disagree have
// one plan, evaluated once. The winner is chosen by comparing the arms in
// a fixed order, so the result is identical to two independent runs of
// Place for any worker count.
func PlaceBest(lo *mat.Matrix, c mat.Vec, cfg Config, samples int) (*placement.Plan, *Report, error) {
	if samples <= 0 {
		samples = 2000
	}
	cfg.Selector = portfolio[0]
	w, err := newWalk(lo, c, cfg)
	if err != nil {
		return nil, nil, err
	}
	walks := []*walk{w}
	if f := w.walkShared(); f != nil {
		walks = append(walks, f)
	}
	type arm struct {
		plan   *placement.Plan
		report *Report
		ratio  float64
	}
	arms, err := par.Map(len(walks), func(i int) (arm, error) {
		walks[i].run(portfolio[i])
		plan, report, err := walks[i].result()
		if err != nil {
			return arm{}, err
		}
		var ratio float64
		if cfg.LowerBound != nil {
			ratio, err = feasible.RatioToIdealFrom(report.Weights, walks[i].b, samples)
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

// portfolio is PlaceBest's two arms, in the order ties go to. Both make
// every Class I choice by distOrigin, so they can differ only at a Class II
// step.
var portfolio = [2]Selector{SelectMaxPlaneDistance, SelectAxisBalance}

// walkShared walks w for both portfolio arms until the first Class II step
// whose two rules pick different nodes. It places that step each arm's way
// and returns the second arm's fork; it returns nil, with w placed, when
// the rules never disagree.
func (w *walk) walkShared() *walk {
	for w.scoreNext() {
		dest, alt := w.choose(portfolio[0]), w.choose(portfolio[1])
		if alt != dest {
			f := w.fork()
			f.assign(alt)
			w.assign(dest)
			return f
		}
		w.assign(dest)
	}
	return nil
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
