package feasible

import (
	"fmt"
	"sync"

	"rodsp/internal/mat"
)

const (
	// tableCapFloats bounds the memoised points of one dimension to 16 MiB,
	// plus 1/d of that for their sums. Every in-repo caller stays far below
	// it (60 000 samples at d ≤ 10 is 5.3 MB with the sums); it exists
	// because the rodsp façade accepts any budget.
	tableCapFloats = 1 << 21
	// streamBlock is how many points past the cap are generated at a time.
	streamBlock = 512
)

// pointTable holds the first len(sums) QMC simplex points of one dimension
// and, in sums, each point's in-order coordinate sum (mat.Vec.Sum), the Σp
// the safe radius is compared with. A published pts or sums is never written
// again: growth allocates new slices, so readers keep using the ones they
// were handed without synchronisation.
type pointTable struct {
	mu   sync.Mutex
	pts  []float64
	sums []float64
}

var (
	tablesMu sync.Mutex
	tables   = map[int]*pointTable{}
)

// simplexPoints returns the first n points (fewer when n exceeds the cap) of
// the dimension-d simplex QMC sequence as one flat row-major slice, and their
// sums. The points are a pure function of (d, index), so they are generated
// once per process and shared by every evaluation; memoising them can change
// how long a call takes, never what it returns. Concurrent callers needing
// the same missing suffix wait for one fill instead of each running their
// own.
func simplexPoints(d, n int) (pts, sums []float64) {
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
	}
	return t.pts[:n*d], t.sums[:n]
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

// eachBlock calls visit with the points numbered [lo, hi) of dimension d and
// their sums, in order, as flat blocks: the table (pts and sums as obtained
// from simplexPoints) serves the indices it covers in one block, and the
// rest are generated into a reused scratch block that is only valid during
// the visit.
func eachBlock(pts, sums []float64, d, lo, hi int, visit func(first int, blk, sums []float64)) {
	cached := len(sums)
	var scratch, scratchSums []float64
	for s := lo; s < hi; {
		var (
			end     int
			blk, bs []float64
		)
		if s < cached {
			end = min(hi, cached)
			blk, bs = pts[s*d:end*d], sums[s:end]
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
