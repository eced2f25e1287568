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

// RatioToIdeal estimates |F(W)| / |F*|: the fraction of the ideal simplex
// (in normalized coordinates) that satisfies every node constraint
// W_i·x ≤ 1. Uses Halton QMC with the given sample budget, fanned across
// the par worker pool. It errors on a non-positive sample budget.
func RatioToIdeal(w *mat.Matrix, samples int) (float64, error) {
	return RatioToIdealFrom(w, nil, samples)
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
		return RatioToIdeal(w, samples)
	}
}

// RatioToIdealFrom estimates the feasible fraction of the *restricted*
// ideal region {x ≥ lb, Σ x_k ≤ 1} (Section 6.1 workload sets with lower
// bound B, already normalized). A nil lb means the origin. Returns 0 when
// the restricted region is empty (Σ lb ≥ 1).
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
	chunks := par.Chunks(samples, par.Workers())
	hits := make([]int, len(chunks))
	_ = par.ForEach(len(chunks), func(ci int) error {
		eachBlock(table, d, chunks[ci].Lo, chunks[ci].Hi, func(_ int, blk []float64) {
			hits[ci] += countHits(w, lb, scale, blk)
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
// RatioToIdeal, used to cross-validate the QMC estimator. Samples are
// drawn in fixed-size chunks, each from an RNG stream derived from seed
// and the chunk index, evaluated across the par worker pool; the result is
// identical for any worker count.
func RatioToIdealMC(w *mat.Matrix, samples int, seed int64) (float64, error) {
	d := w.Cols
	if samples <= 0 {
		return 0, fmt.Errorf("feasible: sample budget must be positive, got %d", samples)
	}
	chunks := par.FixedChunks(samples, mcChunk)
	hits := make([]int, len(chunks))
	_ = par.ForEach(len(chunks), func(ci int) error {
		c := chunks[ci]
		rng := rand.New(rand.NewSource(seed + int64(ci)*0x9E3779B9))
		u := make([]float64, d+1)
		x := make(mat.Vec, d)
		n := 0
		for s := c.Lo; s < c.Hi; s++ {
			for i := range u {
				u[i] = rng.Float64()
			}
			SimplexPoint(u, x)
			if feasiblePoint(w, x) {
				n++
			}
		}
		hits[ci] = n
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
// points RatioToIdeal integrates over, copied out of the shared table: the
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

// countHits returns how many of the flat row-major simplex points in pts
// land in the feasible set after the map x_k = lb_k + scale·p_k (the identity
// when lb is nil): W_i·x ≤ 1 on every row, the test feasiblePoint applies,
// with the rows of w.Data walked in place.
func countHits(w *mat.Matrix, lb mat.Vec, scale float64, pts []float64) int {
	d := w.Cols
	data := w.Data[:w.Rows*d]
	var buf mat.Vec
	if lb != nil {
		buf = make(mat.Vec, d)
	}
	hits := 0
points:
	for off := 0; off+d <= len(pts); off += d {
		x := pts[off : off+d]
		if lb != nil {
			for k, p := range x {
				buf[k] = lb[k] + scale*p
			}
			x = buf
		}
		for r := 0; r < len(data); r += d {
			var dot float64
			for k, wk := range data[r : r+d] {
				dot += wk * x[k]
			}
			if dot > 1+1e-12 {
				continue points
			}
		}
		hits++
	}
	return hits
}

func feasiblePoint(w *mat.Matrix, x mat.Vec) bool {
	for i := 0; i < w.Rows; i++ {
		if w.Row(i).Dot(x) > 1+1e-12 {
			return false
		}
	}
	return true
}
