package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"rodsp/internal/feasible"
	"rodsp/internal/mat"
	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/workload"
)

// placeNaive is the pre-refactor Phase 2: for every (operator, node)
// candidate it clones the accumulated load matrix, rebuilds the full
// normalized weight matrix with feasible.Weights and scores the candidate
// row with the geometry helpers. It is the O(m·n·n·d) reference the fused
// incremental scorer in Place must reproduce bit for bit.
func placeNaive(lo *mat.Matrix, c mat.Vec, cfg Config) (*placement.Plan, *Report, error) {
	m, d := lo.Rows, lo.Cols
	n := len(c)
	lk := lo.ColSums()
	ct := c.Sum()
	b := mat.NewVec(d)
	if cfg.LowerBound != nil {
		b = feasible.Normalize(cfg.LowerBound, lk, ct)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

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

	nodeOf := make([]int, m)
	ln := mat.NewMatrix(n, d)
	report := &Report{Order: order}
	var pinned []int
	for j := range cfg.Pinned {
		pinned = append(pinned, j)
	}
	sort.Ints(pinned)
	for _, j := range pinned {
		node := cfg.Pinned[j]
		nodeOf[j] = node
		ln.Row(node).AddInPlace(lo.Row(j))
		report.PinnedAssignments++
	}
	var placed []int
	const eps = 1e-9
	for _, j := range order {
		if _, pinned := cfg.Pinned[j]; pinned {
			placed = append(placed, j)
			continue
		}
		var classI []int
		dOrigin := make([]float64, n)
		dFromB := make([]float64, n)
		maxW := make([]float64, n)
		for i := 0; i < n; i++ {
			trial := ln.Clone()
			trial.Row(i).AddInPlace(lo.Row(j))
			w, err := feasible.Weights(trial, c, lk)
			if err != nil {
				return nil, nil, err
			}
			row := w.Row(i)
			dOrigin[i] = feasible.PlaneDistance(row)
			dFromB[i] = feasible.PlaneDistanceFrom(row, b)
			maxW[i] = row.Max()
			if maxW[i] <= 1+eps {
				classI = append(classI, i)
			}
		}
		var dest int
		if len(classI) > 0 {
			switch cfg.Selector {
			case SelectMaxPlaneDistance, SelectAxisBalance:
				best, bestDist := classI[0], math.Inf(-1)
				for _, i := range classI {
					if dOrigin[i] > bestDist {
						best, bestDist = i, dOrigin[i]
					}
				}
				dest = best
			case SelectMinConnections:
				best, bestScore := classI[0], -1
				for _, i := range classI {
					score := 0
					for _, prev := range placed {
						if nodeOf[prev] == i && cfg.Graph.Connected(query.OpID(j), query.OpID(prev)) {
							score++
						}
					}
					if score > bestScore {
						best, bestScore = i, score
					}
				}
				dest = best
			default:
				dest = classI[rng.Intn(len(classI))]
			}
			report.ClassIAssignments++
		} else {
			best, bestScore := 0, math.Inf(-1)
			for i := 0; i < n; i++ {
				score := dFromB[i]
				if cfg.Selector == SelectAxisBalance {
					score = dFromB[i] / maxW[i]
				}
				if score > bestScore {
					best, bestScore = i, score
				}
			}
			dest = best
			report.ClassIIAssignments++
		}
		nodeOf[j] = dest
		ln.Row(dest).AddInPlace(lo.Row(j))
		placed = append(placed, j)
	}

	plan := &placement.Plan{NodeOf: nodeOf, N: n}
	w, err := feasible.Weights(ln, c, lk)
	if err != nil {
		return nil, nil, err
	}
	report.Weights = w
	report.MinPlaneDistance = feasible.MinPlaneDistanceFrom(w, b)
	report.MinAxisDistances = feasible.MinAxisDistances(w)
	return plan, report, nil
}

// Property: the incremental fused scorer is bit-identical to naive full
// recomputation — same plan, same class counts, same final weight matrix
// and geometry metrics — across random tree workloads, every selector and
// every ordering, with and without lower bounds and pinned operators.
func TestPlaceMatchesNaiveRecomputation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	selectors := []Selector{SelectRandom, SelectMaxPlaneDistance, SelectMinConnections, SelectAxisBalance}
	orderings := []Ordering{OrderNormDescending, OrderNormAscending, OrderRandom}
	for trial := 0; trial < 100; trial++ {
		g, err := workload.RandomTrees(workload.TreeConfig{
			Streams:      1 + rng.Intn(3),
			OpsPerStream: 1 + rng.Intn(6),
			Seed:         rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		lm, err := query.BuildLoadModel(g)
		if err != nil {
			t.Fatal(err)
		}
		lo := lm.Coef
		n := 2 + rng.Intn(5)
		c := make(mat.Vec, n)
		for i := range c {
			c[i] = 0.25 + rng.Float64()
		}
		cfg := Config{Seed: rng.Int63(), Graph: g}
		if trial%2 == 1 {
			lk := lo.ColSums()
			lb := mat.NewVec(lo.Cols)
			for k := range lb {
				lb[k] = 0.3 * rng.Float64() * c.Sum() / lk[k] / float64(lo.Cols)
			}
			cfg.LowerBound = lb
		}
		if trial%3 == 2 && lo.Rows >= 2 {
			// Pin two operators to distinct nodes so pinned load accumulation
			// has a unique floating-point order regardless of map iteration.
			cfg.Pinned = map[int]int{0: 0, 1: 1 % n}
			if cfg.Pinned[0] == cfg.Pinned[1] {
				cfg.Pinned = map[int]int{0: 0}
			}
		}
		for _, sel := range selectors {
			for _, ord := range orderings {
				cfg.Selector, cfg.Ordering = sel, ord
				plan, rep, err := Place(lo, c, cfg)
				if err != nil {
					t.Fatalf("trial %d %v/%v: Place: %v", trial, sel, ord, err)
				}
				nPlan, nRep, err := placeNaive(lo, c, cfg)
				if err != nil {
					t.Fatalf("trial %d %v/%v: placeNaive: %v", trial, sel, ord, err)
				}
				for j := range plan.NodeOf {
					if plan.NodeOf[j] != nPlan.NodeOf[j] {
						t.Fatalf("trial %d %v/%v: operator %d on node %d, naive says %d",
							trial, sel, ord, j, plan.NodeOf[j], nPlan.NodeOf[j])
					}
				}
				if rep.ClassIAssignments != nRep.ClassIAssignments ||
					rep.ClassIIAssignments != nRep.ClassIIAssignments ||
					rep.PinnedAssignments != nRep.PinnedAssignments {
					t.Fatalf("trial %d %v/%v: class counts (%d,%d,%d) vs naive (%d,%d,%d)",
						trial, sel, ord,
						rep.ClassIAssignments, rep.ClassIIAssignments, rep.PinnedAssignments,
						nRep.ClassIAssignments, nRep.ClassIIAssignments, nRep.PinnedAssignments)
				}
				for i := range rep.Order {
					if rep.Order[i] != nRep.Order[i] {
						t.Fatalf("trial %d %v/%v: order differs at %d", trial, sel, ord, i)
					}
				}
				if !rep.Weights.Equal(nRep.Weights, 0) {
					t.Fatalf("trial %d %v/%v: weight matrices differ bit-wise", trial, sel, ord)
				}
				if rep.MinPlaneDistance != nRep.MinPlaneDistance {
					t.Fatalf("trial %d %v/%v: MinPlaneDistance %v vs %v",
						trial, sel, ord, rep.MinPlaneDistance, nRep.MinPlaneDistance)
				}
				if !rep.MinAxisDistances.Equal(nRep.MinAxisDistances, 0) {
					t.Fatalf("trial %d %v/%v: MinAxisDistances %v vs %v",
						trial, sel, ord, rep.MinAxisDistances, nRep.MinAxisDistances)
				}
			}
		}
	}
}
