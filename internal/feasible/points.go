package feasible

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"rodsp/internal/mat"
)

const (
	// tableCapFloats bounds the memoised points of one dimension to 16 MiB,
	// plus 1/d of that for their sums, and the dimension's cell views,
	// their points and sums together, to as much again. Every in-repo
	// caller stays far below it (60 000 samples at d ≤ 10 is 5.3 MB of
	// table and as much per view); it exists because the rodsp façade
	// accepts any budget.
	tableCapFloats = 1 << 21
	// streamBlock is how many points past the cap are generated at a time.
	streamBlock = 512
	// maxCells bounds a dimension's direction grid, q^(d−1) ≤ maxCells
	// (cellLevels), so a cell key fits a uint16.
	maxCells = 4096
)

// pointTable holds the first len(sums) QMC simplex points of one dimension,
// each point's in-order coordinate sum (mat.Vec.Sum) in sums, and the cell
// views built from them so far, least recently used first. A published
// slice or view is never written again: growth allocates new pts and sums,
// so readers keep using what they were handed without synchronisation.
// views is read and written under mu only.
type pointTable struct {
	mu    sync.Mutex
	pts   []float64
	sums  []float64
	views []*cellView
}

// points is a prefix [0, n) of one dimension's table: the flat row-major
// points and their sums.
type points struct {
	pts, sums []float64
}

var (
	tablesMu sync.Mutex
	tables   = map[int]*pointTable{}
)

// tableOf returns dimension d's table, creating it empty on first use.
func tableOf(d int) *pointTable {
	if d <= 0 {
		panic(fmt.Sprintf("feasible: dimension must be positive, got %d", d))
	}
	tablesMu.Lock()
	defer tablesMu.Unlock()
	t := tables[d]
	if t == nil {
		t = &pointTable{}
		tables[d] = t
	}
	return t
}

// simplexPoints returns the first n points (fewer when n exceeds the cap) of
// the dimension-d simplex QMC sequence, with their sums. The points are a
// pure function of (d, index), so they are generated once per process and
// shared by every evaluation; memoising them can change how long a call
// takes, never what it returns. Concurrent callers needing the same missing
// suffix wait for one fill instead of each running their own.
func simplexPoints(d, n int) points {
	t := tableOf(d)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.prefix(d, n)
}

// prefix grows the table to cover n points, at least doubling it, and
// returns its first n (fewer past the cap). The caller holds t.mu.
func (t *pointTable) prefix(d, n int) points {
	capPoints := tableCapFloats / d
	n = min(n, capPoints)
	if have := len(t.sums); have < n {
		size := min(max(n, 2*have), capPoints)
		grownPts, grownSums := make([]float64, size*d), make([]float64, size)
		copy(grownPts, t.pts)
		copy(grownSums, t.sums)
		fillPoints(grownPts[have*d:], grownSums[have:], d, have)
		t.pts, t.sums = grownPts, grownSums
	}
	return points{pts: t.pts[:n*d], sums: t.sums[:n]}
}

// viewCap is the most points a cell view of dimension d covers: one view's
// points and sums fill the views' budget.
func viewCap(d int) int { return tableCapFloats / (d + 1) }

// cellViewOf returns the cell view of the first n ≤ viewCap(d) points of
// dimension d. The first caller of an n builds it from the table under the
// dimension's mutex, so concurrent first callers wait for one build; later
// callers share it. To keep the dimension's views within tableCapFloats,
// the least recently used are dropped first; a caller still counting with a
// dropped view keeps it until it is done, and the next caller of its n
// builds it again, identical.
func cellViewOf(d, n int) *cellView {
	t := tableOf(d)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, v := range t.views {
		if len(v.sums) == n {
			t.views = append(slices.Delete(t.views, i, i+1), v)
			return v
		}
	}
	tab := t.prefix(d, n)
	v := newCellView(tab.pts, tab.sums, d, pointKeys(tab.pts, tab.sums, d, cellEvery))
	used := v.floats()
	for _, held := range t.views {
		used += held.floats()
	}
	for used > tableCapFloats {
		used -= t.views[0].floats()
		t.views = slices.Delete(t.views, 0, 1)
	}
	t.views = append(t.views, v)
	return v
}

// cellView is a prefix of one dimension's table laid out for hitRule: its
// points grouped by direction cell, group g holding those of grid key
// keys[g] at [starts[g], starts[g+1]), in ascending key order, and sorted by
// Σp inside each group (ties in table order), with pts and sums copied in
// that order. keys is nil when the view is a single group. A view is never
// written after newCellView returns.
type cellView struct {
	pts, sums []float64
	keys      []uint16
	starts    []int
}

// floats is what a view counts against its dimension's budget.
func (v *cellView) floats() int { return len(v.pts) + len(v.sums) }

// pointKeys returns the grid key (cellKey) of every one of the flat
// row-major points pts with sums, or nil when dimension d has no cells or
// the points number fewer than every per cell they use: below that,
// cellRadii costs more than the radii of the cells save.
func pointKeys(pts, sums []float64, d, every int) []uint16 {
	q := cellLevels(d)
	if q == 0 {
		return nil
	}
	keys := make([]uint16, len(sums))
	seen := make([]bool, 1<<(cellBits(q)*(d-1)))
	used := 0
	for j, s := range sums {
		key := cellKey(pts[j*d:(j+1)*d], s, q)
		keys[j] = key
		if !seen[key] {
			seen[key], used = true, used+1
		}
	}
	if len(sums) < every*used {
		return nil
	}
	return keys
}

// newCellView lays out the flat row-major points pts with sums as a cell
// view, grouped by keys (one key per point; nil or empty: a single group).
// Table sums are never NaN, so sorting by them is a total order.
func newCellView(pts, sums []float64, d int, keys []uint16) *cellView {
	type slot struct {
		sum float64
		j   int
	}
	n := len(sums)
	order := make([]slot, n)
	v := &cellView{pts: make([]float64, n*d), sums: make([]float64, n), starts: []int{0, n}}
	if len(keys) == 0 {
		for j, s := range sums {
			order[j] = slot{s, j}
		}
	} else {
		// A counting sort by key, in ascending key and then input order.
		at := make([]int, int(slices.Max(keys))+1)
		for _, key := range keys {
			at[key]++
		}
		v.starts = v.starts[:1]
		for key, c := range at {
			at[key] = v.starts[len(v.starts)-1]
			if c > 0 {
				v.keys = append(v.keys, uint16(key))
				v.starts = append(v.starts, at[key]+c)
			}
		}
		for j, key := range keys {
			order[at[key]] = slot{sums[j], j}
			at[key]++
		}
	}
	for g := 0; g+1 < len(v.starts); g++ {
		slices.SortFunc(order[v.starts[g]:v.starts[g+1]], func(a, b slot) int {
			switch {
			case a.sum < b.sum:
				return -1
			case a.sum > b.sum:
				return 1
			}
			return a.j - b.j
		})
	}
	for at, o := range order {
		copy(v.pts[at*d:(at+1)*d], pts[o.j*d:(o.j+1)*d])
		v.sums[at] = o.sum
	}
	return v
}

// cellLevels returns q, the levels each of a direction's first d − 1
// coordinates is cut into: the largest q with q^(d−1) ≤ maxCells, or 0 when
// that leaves fewer than 2 (d = 1 and d > 13), where a dimension has no cells.
func cellLevels(d int) int {
	if d < 2 {
		return 0
	}
	// Start just below the root, so the loop takes a step or two.
	q := max(1, int(math.Pow(maxCells, 1/float64(d-1)))-1)
	for math.Pow(float64(q+1), float64(d-1)) <= maxCells {
		q++
	}
	if q < 2 {
		return 0
	}
	return q
}

// cellBits is how many bits of a grid key one coordinate's level takes.
func cellBits(q int) int { return bits.Len(uint(q - 1)) }

// cellKey returns the grid key of the direction u = p/s of a point p ≥ 0
// with in-order sum s: u's first d − 1 coordinates cut into q levels,
// i_k = min(⌊fl(fl(p_k/s)·q)⌋, q − 1), packed cellBits(q) bits apart from
// k = 0 up (at most 15 bits for every d with cells). The NaN quotients of
// s = 0 land in level 0. The exact u_k lies within cellSlack of the
// level's [i_k/q, (i_k+1)/q]; see cellRadii.
func cellKey(p []float64, s float64, q int) uint16 {
	qf, b := float64(q), cellBits(q)
	key := 0
	for k, v := range p[:len(p)-1] {
		if x := v / s * qf; x >= 1 {
			key |= min(int(x), q-1) << (b * k)
		}
	}
	return uint16(key)
}

// fillPoints writes the simplex points numbered first, first+1, … of
// dimension d into dst and their sums into sums (len(dst) = d·len(sums)). It
// is the only generator of QMC sample points: the table is built by it and
// samples past the cap stream through it.
func fillPoints(dst, sums []float64, d, first int) {
	h := NewHaltonAt(d+1, int64(first))
	u := make([]float64, d+1)
	for j := range sums {
		p := dst[j*d : (j+1)*d]
		h.Next(u)
		SimplexPoint(u, p)
		sums[j] = mat.Vec(p).Sum()
	}
}

// eachBlock calls visit with the points numbered [lo, hi) of tab's dimension
// d and their sums, in order, as flat blocks: the table serves the indices
// it covers in one block, and the rest are generated into a reused scratch
// block that is only valid during the visit.
func eachBlock(tab points, d, lo, hi int, visit func(first int, blk, sums []float64)) {
	cached := len(tab.sums)
	var scratch, scratchSums []float64
	for s := lo; s < hi; {
		var (
			end     int
			blk, bs []float64
		)
		if s < cached {
			end = min(hi, cached)
			blk, bs = tab.pts[s*d:end*d], tab.sums[s:end]
		} else {
			if scratch == nil {
				scratch, scratchSums = make([]float64, streamBlock*d), make([]float64, streamBlock)
			}
			end = min(hi, s+streamBlock)
			blk, bs = scratch[:(end-s)*d], scratchSums[:end-s]
			fillPoints(blk, bs, d, s)
		}
		visit(s, blk, bs)
		s = end
	}
}
