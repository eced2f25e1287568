package feasible

import (
	"fmt"
	"sync"
)

const (
	// tableCapFloats bounds the memoised points of one dimension to 16 MiB.
	// Every in-repo caller stays far below it (60 000 samples at d ≤ 10 is
	// 4.8 MB); it exists because the rodsp façade accepts any budget.
	tableCapFloats = 1 << 21
	// streamBlock is how many points past the cap are generated at a time.
	streamBlock = 512
)

// pointTable holds the first len(pts)/d QMC simplex points of one dimension.
// A published pts is never written again: growth allocates a new slice, so
// readers keep using the one they were handed without synchronisation.
type pointTable struct {
	mu  sync.Mutex
	pts []float64
}

var (
	tablesMu sync.Mutex
	tables   = map[int]*pointTable{}
)

// simplexPoints returns the first n points (fewer when n exceeds the cap) of
// the dimension-d simplex QMC sequence as one flat row-major slice. The
// points are a pure function of (d, index), so they are generated once per
// process and shared by every evaluation; memoising them can change how long
// a call takes, never what it returns. Concurrent callers needing the same
// missing suffix wait for one fill instead of each running their own.
func simplexPoints(d, n int) []float64 {
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
	if have := len(t.pts) / d; have < n {
		grown := make([]float64, min(max(n, 2*have), capPoints)*d)
		copy(grown, t.pts)
		fillPoints(grown[have*d:], d, have)
		t.pts = grown
	}
	return t.pts[:n*d]
}

// fillPoints writes the simplex points numbered first, first+1, … of
// dimension d into dst (len(dst) a multiple of d). It is the only generator
// of QMC sample points: the table is built by it and samples past the cap
// stream through it.
func fillPoints(dst []float64, d, first int) {
	h := NewHaltonAt(d+1, int64(first))
	u := make([]float64, d+1)
	for off := 0; off < len(dst); off += d {
		h.Next(u)
		SimplexPoint(u, dst[off:off+d])
	}
}

// eachBlock calls visit with the points numbered [lo, hi) of dimension d, in
// order, as flat blocks: table (a prefix obtained from simplexPoints) serves
// the indices it covers in one block, and the rest are generated into a
// reused scratch block that is only valid during the visit.
func eachBlock(table []float64, d, lo, hi int, visit func(first int, blk []float64)) {
	cached := len(table) / d
	var scratch []float64
	for s := lo; s < hi; {
		var (
			end int
			blk []float64
		)
		if s < cached {
			end = min(hi, cached)
			blk = table[s*d : end*d]
		} else {
			if scratch == nil {
				scratch = make([]float64, streamBlock*d)
			}
			end = min(hi, s+streamBlock)
			blk = scratch[:(end-s)*d]
			fillPoints(blk, d, s)
		}
		visit(s, blk)
		s = end
	}
}
