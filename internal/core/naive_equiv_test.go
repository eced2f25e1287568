package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rodsp/internal/feasible"
	"rodsp/internal/mat"
	"rodsp/internal/par"
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

// placeBestIndependent is PlaceBest as two independent runs of Place: each
// arm walks Phase 2 from the start, both are scored with the same ratio call
// on the par pool, and the first arm wins ties. It is the reference the
// shared walk, which forks only at the arms' first disagreement, must
// reproduce bit for bit.
func placeBestIndependent(lo *mat.Matrix, c mat.Vec, cfg Config, samples int) (*placement.Plan, *Report, error) {
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

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Property: PlaceBest's shared walk returns exactly what two independent
// arms return — the chosen plan and its whole report, weights bit for bit —
// on tree graphs, sparse matrices and all-Class-I instances, with and
// without lower bounds and pins, under every ordering, with fewer
// operators than nodes, on one worker and on four. The instances must
// include walks that never reach Class II, walks that agree through their
// Class II steps, walks that fork at their first Class II step and walks
// that fork later.
func TestPlaceBestMatchesIndependentArms(t *testing.T) {
	defer par.SetWorkers(0)
	type instance struct {
		lo  *mat.Matrix
		c   mat.Vec
		cfg Config
	}
	rng := rand.New(rand.NewSource(101))
	var cases []instance
	for trial := 0; trial < 240; trial++ {
		var in instance
		n := 1 + rng.Intn(10)
		switch trial % 3 {
		case 0:
			g, err := workload.RandomTrees(workload.TreeConfig{
				Streams:      1 + rng.Intn(5),
				OpsPerStream: 1 + rng.Intn(40),
				Seed:         rng.Int63(),
			})
			if err != nil {
				t.Fatal(err)
			}
			lm, err := query.BuildLoadModel(g)
			if err != nil {
				t.Fatal(err)
			}
			in.lo, in.cfg.Graph = lm.Coef, g
		case 1:
			// Sparse rows, as in benchWorkload; small m often leaves
			// fewer operators than nodes.
			m, d := 1+rng.Intn(60), 1+rng.Intn(6)
			in.lo = mat.NewMatrix(m, d)
			for j := 0; j < m; j++ {
				in.lo.Set(j, rng.Intn(d), 0.05+rng.Float64())
			}
			for k := 0; k < d; k++ {
				in.lo.Set(rng.Intn(m), k, 0.05+rng.Float64())
			}
			n = 1 + rng.Intn(12)
		default:
			// Identical rows, q per node of equal capacity: every step
			// has a Class I node.
			d := 1 + rng.Intn(5)
			in.lo = mat.NewMatrix(n*(1+rng.Intn(6)), d)
			for i := range in.lo.Data {
				in.lo.Data[i] = 1
			}
		}
		in.c = make(mat.Vec, n)
		for i := range in.c {
			in.c[i] = 1
			if trial%3 != 2 {
				in.c[i] = 0.25 + rng.Float64()
			}
		}
		m := in.lo.Rows
		in.cfg.Seed = rng.Int63()
		in.cfg.Ordering = []Ordering{OrderNormDescending, OrderNormAscending, OrderRandom}[rng.Intn(3)]
		in.cfg.Selector = Selector(rng.Intn(4)) // PlaceBest must ignore it
		if rng.Intn(2) == 1 {
			lk := in.lo.ColSums()
			in.cfg.LowerBound = mat.NewVec(in.lo.Cols)
			for k := range in.cfg.LowerBound {
				in.cfg.LowerBound[k] = 0.3 * rng.Float64() * in.c.Sum() / lk[k] / float64(in.lo.Cols)
			}
		}
		if rng.Intn(3) == 0 {
			in.cfg.Pinned = map[int]int{}
			for p := rng.Intn(4); p > 0; p-- {
				in.cfg.Pinned[rng.Intn(m)] = rng.Intn(n)
			}
		}
		cases = append(cases, in)
	}

	var fewOps, noClassII, agree, forkFirst, forkLater int
	for ci, in := range cases {
		if in.lo.Rows < len(in.c) {
			fewOps++
		}
		cfg := in.cfg
		cfg.Selector = portfolio[0]
		w, err := newWalk(in.lo, in.c, cfg)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		f := w.walkShared()
		switch {
		case f != nil && f.report.ClassIIAssignments == 1:
			forkFirst++
		case f != nil:
			forkLater++
		case w.report.ClassIIAssignments == 0:
			noClassII++
		default:
			agree++
		}
		if f != nil && (&f.report.Order[0] == &w.report.Order[0] || &f.nodeOf[0] == &w.nodeOf[0] ||
			&f.ln.Data[0] == &w.ln.Data[0] || &f.cand.norm[0] == &w.cand.norm[0]) {
			t.Fatalf("case %d: the fork shares state with the walk it came from", ci)
		}
	}
	t.Logf("%d instances: %d with m < n; %d never reach Class II, %d agree through Class II, %d fork at the first Class II step, %d later",
		len(cases), fewOps, noClassII, agree, forkFirst, forkLater)
	if fewOps == 0 || noClassII == 0 || agree == 0 || forkFirst == 0 || forkLater == 0 {
		t.Fatal("the instances must cover every kind counted above")
	}

	for _, workers := range []int{1, 4} {
		par.SetWorkers(workers)
		for ci, in := range cases {
			what := fmt.Sprintf("workers=%d case %d (m=%d d=%d n=%d lb=%v pins=%v %v)",
				workers, ci, in.lo.Rows, in.lo.Cols, len(in.c), in.cfg.LowerBound != nil, in.cfg.Pinned, in.cfg.Ordering)
			plan, rep, err := PlaceBest(in.lo, in.c, in.cfg, 300)
			if err != nil {
				t.Fatalf("%s: PlaceBest: %v", what, err)
			}
			wPlan, wRep, err := placeBestIndependent(in.lo, in.c, in.cfg, 300)
			if err != nil {
				t.Fatalf("%s: reference: %v", what, err)
			}
			if !slices.Equal(plan.NodeOf, wPlan.NodeOf) || plan.N != wPlan.N {
				t.Fatalf("%s: plan %v, independent arms %v", what, plan.NodeOf, wPlan.NodeOf)
			}
			if !slices.Equal(rep.Order, wRep.Order) ||
				rep.ClassIAssignments != wRep.ClassIAssignments ||
				rep.ClassIIAssignments != wRep.ClassIIAssignments ||
				rep.PinnedAssignments != wRep.PinnedAssignments {
				t.Fatalf("%s: order or class counts (%d,%d,%d) differ from the independent arms' (%d,%d,%d)", what,
					rep.ClassIAssignments, rep.ClassIIAssignments, rep.PinnedAssignments,
					wRep.ClassIAssignments, wRep.ClassIIAssignments, wRep.PinnedAssignments)
			}
			if rep.Weights.Rows != wRep.Weights.Rows || !sameBits(rep.Weights.Data, wRep.Weights.Data) ||
				!sameBits([]float64{rep.MinPlaneDistance}, []float64{wRep.MinPlaneDistance}) ||
				!sameBits(rep.MinAxisDistances, wRep.MinAxisDistances) {
				t.Fatalf("%s: weights or distances differ bit-wise from the independent arms'", what)
			}
		}
	}
}
