package feasible

import (
	"fmt"
	"math"
	"math/rand"

	"rodsp/internal/mat"
	"rodsp/internal/par"
)

// SimplexPoint maps d+1 independent uniforms in (0,1) to a point uniformly
// distributed in the solid standard simplex {x ≥ 0, Σ x_k ≤ 1} ⊂ R^d, via
// the exponential-spacings construction: y_i = −ln(1−u_i) are i.i.d.
// exponentials, (y_1,…,y_{d+1})/Σ y is uniform on the boundary simplex of
// dimension d, and dropping the last coordinate projects it uniformly onto
// the solid simplex. len(u) must be len(dst)+1.
func SimplexPoint(u []float64, dst []float64) {
	if len(u) != len(dst)+1 {
		panic(fmt.Sprintf("feasible: SimplexPoint needs %d uniforms for dimension %d", len(dst)+1, len(dst)))
	}
	var sum float64
	for k := range dst {
		dst[k] = -math.Log1p(-u[k])
		sum += dst[k]
	}
	sum += -math.Log1p(-u[len(dst)])
	for k := range dst {
		dst[k] /= sum
	}
}

// RatioAuto computes the feasible ratio with exact geometry where available
// (d = 2 polygon clipping, d = 3 polytope enumeration) and QMC otherwise.
func RatioAuto(w *mat.Matrix, samples int) (float64, error) {
	switch w.Cols {
	case 2:
		return ExactRatio2D(w), nil
	case 3:
		return ExactRatio3D(w), nil
	default:
		return RatioToIdealFrom(w, nil, samples)
	}
}

// RatioToIdealFrom estimates |F(W)| / |F*|, the fraction of the ideal
// simplex (in normalized coordinates) that satisfies every node constraint
// W_i·x ≤ 1, by Halton QMC with the given sample budget. A non-nil lb
// restricts the ideal region to {x ≥ lb, Σ x_k ≤ 1} (Section 6.1 workload
// sets with lower bound B, already normalized); nil means the origin.
// Returns 0 when the restricted region is empty (Σ lb ≥ 1).
//
// The sample points are a pure function of (d, index) and come from the
// process-wide table (simplexPoints); only the hit count depends on w and lb.
// The sweep is chunked across the par worker pool and the per-chunk hit
// counts are integers reduced in chunk order, so the result is bit-identical
// for any worker count. A malformed budget or lower bound (wrong length, a
// negative or non-finite entry) returns an error, not a panic and not a
// ratio, so a bad config can neither crash a long bench run nor score as a
// plan.
func RatioToIdealFrom(w *mat.Matrix, lb mat.Vec, samples int) (float64, error) {
	d := w.Cols
	if samples <= 0 {
		return 0, fmt.Errorf("feasible: sample budget must be positive, got %d", samples)
	}
	scale := 1.0
	if lb != nil {
		if len(lb) != d {
			return 0, fmt.Errorf("feasible: lower bound length %d, want %d", len(lb), d)
		}
		for k, v := range lb {
			if !(v >= 0) || math.IsInf(v, 1) {
				return 0, fmt.Errorf("feasible: lower bound entry %d is %g, want finite and non-negative", k, v)
			}
		}
		scale = 1 - lb.Sum()
		if scale <= 0 {
			return 0, nil
		}
	}
	table := simplexPoints(d, samples)
	pan := packPanels(w)
	chunks := par.Chunks(samples, par.Workers())
	hits := make([]int, len(chunks))
	_ = par.ForEach(len(chunks), func(ci int) error {
		eachBlock(table, d, chunks[ci].Lo, chunks[ci].Hi, func(_ int, blk []float64) {
			hits[ci] += countHits(pan, d, lb, scale, blk)
		})
		return nil
	})
	total := 0
	for _, n := range hits {
		total += n
	}
	return float64(total) / float64(samples), nil
}

// mcChunk is the fixed Monte-Carlo chunk size. It is independent of the
// worker count so the per-chunk derived RNG streams — and therefore the
// estimate — never change as parallelism changes.
const mcChunk = 8192

// RatioToIdealMC is the plain (pseudo-random) Monte Carlo counterpart of
// RatioToIdealFrom(w, nil, samples), used to cross-validate the QMC
// estimator. Samples are drawn in fixed-size chunks, each from an RNG
// stream derived from seed and the chunk index, evaluated across the par
// worker pool; the result is identical for any worker count.
func RatioToIdealMC(w *mat.Matrix, samples int, seed int64) (float64, error) {
	d := w.Cols
	if samples <= 0 {
		return 0, fmt.Errorf("feasible: sample budget must be positive, got %d", samples)
	}
	pan := packPanels(w)
	chunks := par.FixedChunks(samples, mcChunk)
	hits := make([]int, len(chunks))
	_ = par.ForEach(len(chunks), func(ci int) error {
		c := chunks[ci]
		rng := rand.New(rand.NewSource(seed + int64(ci)*0x9E3779B9))
		u := make([]float64, d+1)
		blk := make([]float64, (c.Hi-c.Lo)*d)
		for off := 0; off < len(blk); off += d {
			for i := range u {
				u[i] = rng.Float64()
			}
			SimplexPoint(u, blk[off:off+d])
		}
		hits[ci] = countHits(pan, d, nil, 1, blk)
		return nil
	})
	total := 0
	for _, n := range hits {
		total += n
	}
	return float64(total) / float64(samples), nil
}

// SamplePoints returns n QMC points uniformly covering the ideal simplex in
// normalized coordinates — the workload points the Borealis experiments
// draw "all within the ideal feasible set" (Section 7.1). They are the same
// points RatioToIdealFrom integrates over, copied out of the shared table: the
// caller owns what it gets.
func SamplePoints(d, n int) []mat.Vec {
	pts := make([]mat.Vec, n)
	eachBlock(simplexPoints(d, n), d, 0, n, func(first int, blk []float64) {
		for off := 0; off < len(blk); off += d {
			pts[first+off/d] = mat.Vec(blk[off : off+d]).Clone()
		}
	})
	return pts
}

// Denormalize converts a normalized point x back to raw input rates:
// r_k = x_k · C_T / l_k.
func Denormalize(x, lk mat.Vec, ct float64) mat.Vec {
	r := make(mat.Vec, len(x))
	for k := range x {
		r[k] = x[k] * ct / lk[k]
	}
	return r
}

// Normalize converts raw input rates to normalized coordinates:
// x_k = l_k r_k / C_T.
func Normalize(r, lk mat.Vec, ct float64) mat.Vec {
	x := make(mat.Vec, len(r))
	for k := range r {
		x[k] = lk[k] * r[k] / ct
	}
	return x
}

// panelRows is how many node rows countHits tests a point against in one
// pass: a single row's dot is one serial chain of adds, four are
// independent and overlap. pairFits is written out for exactly four.
const panelRows = 4

// packPanels lays w out for countHits: its rows in groups of panelRows, the
// last group padded with zero rows, each group stored column by column (the
// panelRows weights of column 0, then those of column 1, …). A padding row's
// dot is zero, so it never rejects a point.
func packPanels(w *mat.Matrix) []float64 {
	d := w.Cols
	groups := (w.Rows + panelRows - 1) / panelRows
	pan := make([]float64, groups*panelRows*d)
	for i := 0; i < w.Rows; i++ {
		g, r := i/panelRows, i%panelRows
		for k, v := range w.Row(i) {
			pan[(g*d+k)*panelRows+r] = v
		}
	}
	return pan
}

// countHits returns how many of the flat row-major points in pts land in the
// feasible set after the map x_k = lb_k + scale·p_k (the identity when lb is
// nil): W_i·x ≤ 1 + 1e-12 on every row of W, packed by packPanels. It is the
// package's one hit rule. An odd last point is counted as a pair of itself.
func countHits(pan []float64, d int, lb mat.Vec, scale float64, pts []float64) int {
	n := len(pts) / d
	hits := countPairs(pan, d, lb, scale, pts[:n&^1*d])
	if n%2 == 1 {
		last := pts[(n-1)*d : n*d]
		hits += countPairs(pan, d, lb, scale, append(last[:d:d], last...)) / 2
	}
	return hits
}

// countPairs is countHits for an even number of points: it maps them two at
// a time and tests each pair with pairFits.
func countPairs(pan []float64, d int, lb mat.Vec, scale float64, pts []float64) int {
	var xa, xb []float64
	if lb != nil {
		buf := make([]float64, 2*d)
		xa, xb = buf[:d], buf[d:]
	}
	hits := 0
	for off := 0; off+2*d <= len(pts); off += 2 * d {
		a, b := pts[off:off+d], pts[off+d:off+2*d]
		if lb != nil {
			for k := range xa {
				xa[k] = lb[k] + scale*a[k]
				xb[k] = lb[k] + scale*b[k]
			}
			a, b = xa, xb
		}
		okA, okB := pairFits(pan, a, b)
		if okA {
			hits++
		}
		if okB {
			hits++
		}
	}
	return hits
}

// pairFits tests the points a and b against every panel, one panel at a
// time: eight independent sums per column. Each row's sum starts from
// w_i0·x_0 and adds the terms in ascending k, the order Vec.Dot uses, so
// every dot and every decision is bit-identical to testing the rows one by
// one. It returns once both points are rejected.
func pairFits(pan, a, b []float64) (okA, okB bool) {
	const limit = 1 + 1e-12
	d := len(a)
	b = b[:d]
	stride := panelRows * d
	okA, okB = true, true
	for p := 0; p+stride <= len(pan) && (okA || okB); p += stride {
		q := pan[p : p+stride]
		a0, b0 := a[0], b[0]
		ra0, ra1, ra2, ra3 := q[0]*a0, q[1]*a0, q[2]*a0, q[3]*a0
		rb0, rb1, rb2, rb3 := q[0]*b0, q[1]*b0, q[2]*b0, q[3]*b0
		for k := 1; k < d; k++ {
			c := q[panelRows*k : panelRows*k+panelRows : panelRows*k+panelRows]
			ak, bk := a[k], b[k]
			ra0 += c[0] * ak
			ra1 += c[1] * ak
			ra2 += c[2] * ak
			ra3 += c[3] * ak
			rb0 += c[0] * bk
			rb1 += c[1] * bk
			rb2 += c[2] * bk
			rb3 += c[3] * bk
		}
		if ra0 > limit || ra1 > limit || ra2 > limit || ra3 > limit {
			okA = false
		}
		if rb0 > limit || rb1 > limit || rb2 > limit || rb3 > limit {
			okB = false
		}
	}
	return okA, okB
}
