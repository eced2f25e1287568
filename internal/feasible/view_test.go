package feasible

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rodsp/internal/mat"
	"rodsp/internal/par"
)

// checkView holds a view to its definition, built here from the table
// independently of newCellView: the first len(v.sums) table points, grouped
// by cellKey when the dimension has cells and they number at least
// cellEvery per cell, groups in ascending key order, each sorted by Σp with
// ties in table order, points and sums copied bit for bit.
func checkView(t *testing.T, what string, d int, v *cellView) {
	t.Helper()
	n := len(v.sums)
	tab := simplexPoints(d, n)
	key := make([]int, n)
	used := map[int]bool{}
	if q := cellLevels(d); q > 0 {
		for j, s := range tab.sums {
			key[j] = int(cellKey(tab.pts[j*d:(j+1)*d], s, q))
			used[key[j]] = true
		}
	}
	grouped := n > 0 && len(used) > 0 && n >= cellEvery*len(used)
	if !grouped {
		clear(key)
	}
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(key[a], key[b]), cmp.Compare(tab.sums[a], tab.sums[b]))
	})
	wantStarts, wantKeys := []int{0}, []uint16(nil)
	for slot, j := range order {
		if grouped && (slot == 0 || key[j] != key[order[slot-1]]) {
			wantKeys = append(wantKeys, uint16(key[j]))
			if slot > 0 {
				wantStarts = append(wantStarts, slot)
			}
		}
		if !mat.Vec(v.pts[slot*d:(slot+1)*d]).Equal(tab.pts[j*d:(j+1)*d], 0) || v.sums[slot] != tab.sums[j] {
			t.Errorf("%s: view slot %d holds point %v (sum %v), want table point %d %v (sum %v)", what, slot, v.pts[slot*d:(slot+1)*d], v.sums[slot], j, tab.pts[j*d:(j+1)*d], tab.sums[j])
			return
		}
	}
	wantStarts = append(wantStarts, n)
	if !slices.Equal(v.keys, wantKeys) || (v.keys == nil) != (wantKeys == nil) || !slices.Equal(v.starts, wantStarts) {
		t.Errorf("%s: %d points in groups %v with keys %v, want groups %v with keys %v", what, n, v.starts, v.keys, wantStarts, wantKeys)
	}
}

// cellsFrom returns the smallest n whose first n table points of dimension
// d number at least cellEvery per cell they use, the first view grouped by
// cell, or 0 when no n ≤ limit is.
func cellsFrom(d, limit int) int {
	q := cellLevels(d)
	if q == 0 {
		return 0
	}
	tab := simplexPoints(d, limit)
	used := map[uint16]bool{}
	for j, s := range tab.sums {
		used[cellKey(tab.pts[j*d:(j+1)*d], s, q)] = true
		if j+1 >= cellEvery*len(used) {
			return j + 1
		}
	}
	return 0
}

// Every count a view gives must be the row-wise reference's over the same
// prefix, at any worker count: on uniform, mixed-sign and 40-row plans and
// on rows with NaN or ±Inf entries, with no lower bound, a lower bound, and
// one with Σlb ≥ 1 (RatioToIdealFrom returns 0 there, so the view is
// counted directly with scale = 1 − Σlb), at budgets either side of the
// first grouped view, in dimensions with coarse, fine and no cells.
func TestCellViewMatchesReference(t *testing.T) {
	defer par.SetWorkers(0)
	rng := rand.New(rand.NewSource(61))
	const top = 60000
	nan, inf := math.NaN(), math.Inf(1)
	for _, d := range []int{2, 3, 5, 8, 13, 14} {
		withRow := func(v float64) *mat.Matrix {
			w := uniformWeights(rng, 6, d, 0.6, 1.6)
			w.Set(rng.Intn(6), rng.Intn(d), v)
			return w
		}
		plans := []struct {
			name string
			w    *mat.Matrix
		}{
			{"uniform", uniformWeights(rng, 10, d, 0.6, 1.6)},
			{"mixed-sign", uniformWeights(rng, 9, d, -1, 2.5)},
			{"40 rows", uniformWeights(rng, 40, d, 0.3, 1.3)},
			{"NaN entry", withRow(nan)},
			{"+Inf entry", withRow(inf)},
			{"−Inf entry", withRow(-inf)},
		}
		lb, full := mat.NewVec(d), mat.NewVec(d)
		for k := range lb {
			lb[k] = 0.3 * rng.Float64() / float64(d)
			full[k] = 1.0 / float64(d-1)
		}
		ns := []int{1, 2, 57, 400, 3000, top}
		if from := cellsFrom(d, top); from > 0 {
			ns = append(ns, from-1, from)
			if v := cellViewOf(d, from-1); v.keys != nil {
				t.Fatalf("d=%d: the %d-point view is grouped, want one group", d, from-1)
			}
			if v := cellViewOf(d, from); v.keys == nil {
				t.Fatalf("d=%d: the %d-point view is one group, want cells", d, from)
			}
		}
		all := simplexPoints(d, top).pts
		for _, n := range ns {
			v := cellViewOf(d, n)
			checkView(t, fmt.Sprintf("d=%d n=%d", d, n), d, v)
			for _, pl := range plans {
				for _, b := range []mat.Vec{nil, lb, full} {
					what := fmt.Sprintf("d=%d n=%d %s lb=%v", d, n, pl.name, b != nil)
					scale := 1.0
					if b != nil {
						scale = 1 - b.Sum()
					}
					want := countHitsRowwise(pl.w, b, scale, all[:n*d])
					if scale <= 0 {
						if got := viewHits(pl.w, b, scale, v, 0, n); got != want {
							t.Fatalf("%s (Σlb ≥ 1): view counts %d hits, row-wise reference %d", what, got, want)
						}
						want = 0
					}
					for _, workers := range []int{1, 2, 8} {
						par.SetWorkers(workers)
						got, err := RatioToIdealFrom(pl.w, b, n)
						if err != nil || got != float64(want)/float64(n) {
							t.Fatalf("%s workers=%d: ratio %v (err %v), row-wise reference %d of %d", what, workers, got, err, want, n)
						}
					}
				}
			}
		}
	}
}

// Many goroutines asking one dimension for views of several sizes at once
// must each count the reference answer, and the first callers of a size must
// share one build. Run it under -race.
func TestCellViewConcurrentFirstUse(t *testing.T) {
	defer par.SetWorkers(0)
	par.SetWorkers(2)
	const d, users = 5, 16
	ns := []int{400, 3000, 20011, 60000}
	rng := rand.New(rand.NewSource(67))
	w := uniformWeights(rng, 10, d, 0.8, 1.1)
	lb := mat.NewVec(d)
	for k := range lb {
		lb[k] = 0.02
	}
	want := map[int]float64{}
	for _, n := range ns {
		want[n] = refRatio(w, lb, n)
	}
	forgetTable(d)
	views := make([]*cellView, users)
	var wg sync.WaitGroup
	for u := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := ns[u%len(ns)]
			views[u] = cellViewOf(d, n)
			if got, err := RatioToIdealFrom(w, lb, n); err != nil || got != want[n] {
				t.Errorf("user %d (n=%d): ratio %v err %v, reference %v", u, n, got, err, want[n])
			}
		}()
	}
	wg.Wait()
	for u, v := range views {
		if first := views[u%len(ns)]; v != first {
			t.Fatalf("user %d got a view of its own build for n=%d", u, ns[u%len(ns)])
		}
	}
	for _, v := range views[:len(ns)] {
		checkView(t, fmt.Sprintf("n=%d", len(v.sums)), d, v)
	}
}

// The views of one dimension must stay within tableCapFloats: a view that
// does not fit drops the least recently used first, and a dropped view is
// built again, identical, with identical counts.
func TestCellViewEviction(t *testing.T) {
	const d = 5
	// Two views of this size fit the budget, three do not.
	ns := []int{120000, 120001, 120002}
	if 2*ns[2]*(d+1) > tableCapFloats || 3*ns[0]*(d+1) <= tableCapFloats {
		t.Fatalf("%d-point views do not straddle the budget", ns[0])
	}
	forgetTable(d)
	held := func() []int {
		tab := tableOf(d)
		tab.mu.Lock()
		defer tab.mu.Unlock()
		var have []int
		floats := 0
		for _, v := range tab.views {
			have = append(have, len(v.sums))
			floats += len(v.pts) + len(v.sums)
		}
		if floats > tableCapFloats {
			t.Fatalf("views hold %d floats, the budget is %d", floats, tableCapFloats)
		}
		slices.Sort(have)
		return have
	}
	rng := rand.New(rand.NewSource(71))
	w := uniformWeights(rng, 10, d, 0.8, 1.1)
	ratio := func(n int) float64 {
		r, err := RatioToIdealFrom(w, nil, n)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	first := cellViewOf(d, ns[0])
	want := ratio(ns[0])
	ratio(ns[1])
	cellViewOf(d, ns[0]) // ns[1]'s view is now the least recently used
	ratio(ns[2])
	if got := held(); !slices.Equal(got, []int{ns[0], ns[2]}) {
		t.Fatalf("views held %v, want %v: the least recently used must go", got, []int{ns[0], ns[2]})
	}
	ratio(ns[1])
	if got := held(); !slices.Equal(got, []int{ns[1], ns[2]}) {
		t.Fatalf("views held %v, want %v", got, []int{ns[1], ns[2]})
	}
	again := cellViewOf(d, ns[0])
	if again == first {
		t.Fatal("a dropped view was served again instead of rebuilt")
	}
	checkView(t, "rebuilt", d, again)
	if !slices.Equal(again.pts, first.pts) || !slices.Equal(again.sums, first.sums) || !slices.Equal(again.keys, first.keys) || !slices.Equal(again.starts, first.starts) {
		t.Fatal("the rebuilt view differs from the dropped one")
	}
	if got := ratio(ns[0]); got != want {
		t.Fatalf("ratio %v after the rebuild, %v before", got, want)
	}
	if ref := refRatio(w, nil, ns[0]); want != ref {
		t.Fatalf("ratio %v, reference %v", want, ref)
	}
}
