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
	// plus 1/d of that for their sums and 1/(4d) for their cells. Every
	// in-repo caller stays far below it (60 000 samples at d ≤ 10 is 5.4 MB
	// with the sums and cells); it exists because the rodsp façade accepts
	// any budget.
	tableCapFloats = 1 << 21
	// streamBlock is how many points past the cap are generated at a time.
	streamBlock = 512
	// maxCells bounds a dimension's direction grid, q^(d−1) ≤ maxCells
	// (cellLevels), so a cell id and a cell key fit a uint16.
	maxCells = 4096
)

// pointTable holds the first len(sums) QMC simplex points of one dimension
// and, in sums, each point's in-order coordinate sum (mat.Vec.Sum), the Σp
// the safe radii are compared with. In cells it holds each point's direction
// cell (cellKey) as a 1-based id: ids are handed out in order of first
// appearance, so the cells of a prefix are a prefix of keys, and firstOf[c]
// is the first point of cell id c+1. A published slice is never written
// again: growth allocates new pts, sums and cells and appends to clipped
// keys and firstOf, so readers keep using the slices they were handed
// without synchronisation. idOf, the id of each grid key (0: not seen), is
// read and written under mu only.
type pointTable struct {
	mu      sync.Mutex
	pts     []float64
	sums    []float64
	cells   []uint16
	keys    []uint16
	firstOf []int
	idOf    []uint16
}

// points is a prefix [0, n) of one dimension's table: the flat row-major
// points, their sums, their cell ids, and the grid key of every cell id the
// prefix uses (id c at keys[c−1]). cells and keys are nil for a dimension
// without cells (cellLevels 0).
type points struct {
	pts, sums   []float64
	cells, keys []uint16
}

var (
	tablesMu sync.Mutex
	tables   = map[int]*pointTable{}
)

// simplexPoints returns the first n points (fewer when n exceeds the cap) of
// the dimension-d simplex QMC sequence, with their sums and cells. The points
// and their cells are a pure function of (d, index), so they are generated
// once per process and shared by every evaluation; memoising them can change
// how long a call takes, never what it returns. Concurrent callers needing
// the same missing suffix wait for one fill instead of each running their
// own.
func simplexPoints(d, n int) points {
	if d <= 0 {
		panic(fmt.Sprintf("feasible: dimension must be positive, got %d", d))
	}
	capPoints := tableCapFloats / d
	n = min(n, capPoints)

	tablesMu.Lock()
	t := tables[d]
	if t == nil {
		t = &pointTable{}
		tables[d] = t
	}
	tablesMu.Unlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	if have := len(t.sums); have < n {
		size := min(max(n, 2*have), capPoints)
		grownPts, grownSums := make([]float64, size*d), make([]float64, size)
		copy(grownPts, t.pts)
		copy(grownSums, t.sums)
		fillPoints(grownPts[have*d:], grownSums[have:], d, have)
		t.pts, t.sums = grownPts, grownSums
		if q := cellLevels(d); q > 0 {
			grownCells := make([]uint16, size)
			copy(grownCells, t.cells)
			t.cells = grownCells
			t.assignCells(d, q, have)
		}
	}
	p := points{pts: t.pts[:n*d], sums: t.sums[:n]}
	if t.cells != nil {
		used, _ := slices.BinarySearch(t.firstOf, n)
		p.cells, p.keys = t.cells[:n], t.keys[:used:used]
	}
	return p
}

// assignCells numbers the cells of the points from first on, continuing the
// table's first-appearance numbering.
func (t *pointTable) assignCells(d, q, first int) {
	if t.idOf == nil {
		t.idOf = make([]uint16, 1<<(cellBits(q)*(d-1)))
	}
	t.keys, t.firstOf = slices.Clip(t.keys), slices.Clip(t.firstOf)
	for j := first; j < len(t.sums); j++ {
		key := cellKey(t.pts[j*d:(j+1)*d], t.sums[j], q)
		if t.idOf[key] == 0 {
			t.keys, t.firstOf = append(t.keys, key), append(t.firstOf, j)
			t.idOf[key] = uint16(len(t.keys))
		}
		t.cells[j] = t.idOf[key]
	}
}

// cellLevels returns q, the levels each of a direction's first d − 1
// coordinates is cut into: the largest q with q^(d−1) ≤ maxCells, or 0 when
// that leaves fewer than 2 (d = 1 and d > 13), where a dimension has no cells.
func cellLevels(d int) int {
	if d < 2 {
		return 0
	}
	q := 1
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
// d, their sums and cells, in order, as flat blocks: the table serves the
// indices it covers in one block (cells nil if tab has none), and the rest
// are generated into a reused scratch block, without cells, that is only
// valid during the visit.
func eachBlock(tab points, d, lo, hi int, visit func(first int, blk, sums []float64, cells []uint16)) {
	cached := len(tab.sums)
	var scratch, scratchSums []float64
	for s := lo; s < hi; {
		var (
			end     int
			blk, bs []float64
			cells   []uint16
		)
		if s < cached {
			end = min(hi, cached)
			blk, bs = tab.pts[s*d:end*d], tab.sums[s:end]
			if tab.cells != nil {
				cells = tab.cells[s:end]
			}
		} else {
			if scratch == nil {
				scratch, scratchSums = make([]float64, streamBlock*d), make([]float64, streamBlock)
			}
			end = min(hi, s+streamBlock)
			blk, bs = scratch[:(end-s)*d], scratchSums[:end-s]
			fillPoints(blk, bs, d, s)
		}
		visit(s, blk, bs, cells)
		s = end
	}
}
