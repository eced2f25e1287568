package sim

import (
	"fmt"
	"math"
	"sort"

	"rodsp/internal/mat"
)

// The paper's Section 1 argument against purely dynamic load distribution:
// capturing short-term variations needs frequent statistics gathering, and
// reacting requires operator state migration that stalls processing for
// hundreds of milliseconds. This file adds exactly that machinery to the
// simulator so the argument can be measured rather than asserted: a
// rebalancer observes per-operator load over a window, asks a policy for
// moves, and every move freezes both the source and destination node for
// the configured migration time while the operator relocates.

// Move relocates one operator to a destination node.
type Move struct {
	Op int
	To int
}

// Policy decides the moves for one rebalancing round.
type Policy interface {
	// Plan receives the per-operator average load (CPU-seconds/second over
	// the last window), the current operator→node map and the node
	// capacities, and returns the desired moves.
	Plan(opLoads []float64, nodeOf []int, caps mat.Vec) []Move
}

// RebalanceConfig switches the simulator into dynamic-distribution mode.
type RebalanceConfig struct {
	// Period between statistics collections / decisions (seconds).
	Period float64
	// MigrationTime is the processing stall charged to BOTH the source and
	// the destination node per moved operator (the paper reports a base
	// overhead of a few hundred milliseconds, more with large state).
	MigrationTime float64
	// Policy chooses the moves; nil disables rebalancing.
	Policy Policy
}

// RebalanceStats reports what the dynamic mechanism did during a run.
type RebalanceStats struct {
	Rounds int
	Moves  int
	// StallSeconds is the total node-time frozen by migrations.
	StallSeconds float64
}

// validate checks the configuration.
func (rc *RebalanceConfig) validate() error {
	if rc.Period <= 0 {
		return fmt.Errorf("sim: rebalance period %g must be positive", rc.Period)
	}
	if rc.MigrationTime < 0 {
		return fmt.Errorf("sim: negative migration time %g", rc.MigrationTime)
	}
	if rc.Policy == nil {
		return fmt.Errorf("sim: rebalance configured without a policy")
	}
	return nil
}

// LLFPolicy is the classic reactive balancer: repeatedly move the largest
// movable operator from the most-utilized node to the least-utilized one
// while the spread exceeds the tolerance.
type LLFPolicy struct {
	// Tolerance is the max-minus-min utilization spread that triggers moves
	// (e.g. 0.1 = rebalance when nodes differ by more than 10 points).
	Tolerance float64
	// MaxMoves bounds the moves suggested per round (0 = 8).
	MaxMoves int
}

// Plan implements Policy.
func (p *LLFPolicy) Plan(opLoads []float64, nodeOf []int, caps mat.Vec) []Move {
	maxMoves := p.MaxMoves
	if maxMoves == 0 {
		maxMoves = 8
	}
	node := make([]int, len(nodeOf))
	copy(node, nodeOf)
	util := make(mat.Vec, len(caps))
	for op, n := range node {
		util[n] += opLoads[op] / caps[n]
	}
	var moves []Move
	for len(moves) < maxMoves {
		hi, lo := util.ArgMax(), util.ArgMin()
		if util[hi]-util[lo] <= p.Tolerance {
			break
		}
		// Largest operator on the hot node that fits the gap without
		// overshooting past the cold node's new level.
		gap := (util[hi] - util[lo]) / 2
		best, bestLoad := -1, 0.0
		for op, n := range node {
			if n != hi {
				continue
			}
			l := opLoads[op] / caps[hi]
			if l <= gap+1e-12 && l > bestLoad {
				best, bestLoad = op, l
			}
		}
		if best == -1 {
			break // nothing movable without making things worse
		}
		moves = append(moves, Move{Op: best, To: lo})
		node[best] = lo
		util[hi] -= opLoads[best] / caps[hi]
		util[lo] += opLoads[best] / caps[lo]
	}
	return moves
}

// CorrelationPolicy mimics the paper's earlier dynamic scheme in spirit:
// like LLFPolicy but it prefers moving, among the hot node's candidates,
// the operator whose load history correlates most with the node's total
// (separating correlated load). History is supplied by the simulator as
// the per-operator load of the last few windows.
type CorrelationPolicy struct {
	Tolerance float64
	MaxMoves  int

	history [][]float64 // ring of per-op load snapshots
}

// observe records one window's per-op loads (called by the simulator).
func (p *CorrelationPolicy) observe(opLoads []float64) {
	snap := make([]float64, len(opLoads))
	copy(snap, opLoads)
	p.history = append(p.history, snap)
	if len(p.history) > 16 {
		p.history = p.history[1:]
	}
}

// Plan implements Policy.
func (p *CorrelationPolicy) Plan(opLoads []float64, nodeOf []int, caps mat.Vec) []Move {
	maxMoves := p.MaxMoves
	if maxMoves == 0 {
		maxMoves = 8
	}
	node := make([]int, len(nodeOf))
	copy(node, nodeOf)
	util := make(mat.Vec, len(caps))
	for op, n := range node {
		util[n] += opLoads[op] / caps[n]
	}
	var moves []Move
	for len(moves) < maxMoves {
		hi, lo := util.ArgMax(), util.ArgMin()
		if util[hi]-util[lo] <= p.Tolerance {
			break
		}
		gap := (util[hi] - util[lo]) / 2
		candidates := candidates(node, opLoads, caps, hi, gap)
		if len(candidates) == 0 {
			break
		}
		best := p.mostCorrelated(candidates, node, hi)
		moves = append(moves, Move{Op: best, To: lo})
		node[best] = lo
		util[hi] -= opLoads[best] / caps[hi]
		util[lo] += opLoads[best] / caps[lo]
	}
	return moves
}

func candidates(node []int, opLoads []float64, caps mat.Vec, hi int, gap float64) []int {
	var out []int
	for op, n := range node {
		if n == hi && opLoads[op]/caps[hi] <= gap+1e-12 && opLoads[op] > 0 {
			out = append(out, op)
		}
	}
	return out
}

func (p *CorrelationPolicy) mostCorrelated(candidates []int, node []int, hi int) int {
	if len(p.history) < 3 {
		// No history yet: fall back to the largest candidate.
		best := candidates[0]
		last := p.lastLoads()
		for _, op := range candidates[1:] {
			if last != nil && last[op] > last[best] {
				best = op
			}
		}
		return best
	}
	// Node series = sum of member op series per window.
	nodeSeries := make([]float64, len(p.history))
	for t, snap := range p.history {
		for op, n := range node {
			if n == hi {
				nodeSeries[t] += snap[op]
			}
		}
	}
	best, bestScore := candidates[0], -2.0
	for _, op := range candidates {
		opSeries := make([]float64, len(p.history))
		for t, snap := range p.history {
			opSeries[t] = snap[op]
		}
		if score := correlation(opSeries, nodeSeries); score > bestScore {
			best, bestScore = op, score
		}
	}
	return best
}

func (p *CorrelationPolicy) lastLoads() []float64 {
	if len(p.history) == 0 {
		return nil
	}
	return p.history[len(p.history)-1]
}

// correlation is a local Pearson correlation (avoids importing stats here).
func correlation(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n == 0 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// sortMovesDeterministic keeps move application order stable.
func sortMovesDeterministic(moves []Move) {
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].Op != moves[j].Op {
			return moves[i].Op < moves[j].Op
		}
		return moves[i].To < moves[j].To
	})
}
