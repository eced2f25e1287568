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
	scale, err := boundScale(w.Cols, lb, samples)
	if err != nil || scale <= 0 {
		return 0, err
	}
	d := w.Cols
	pts, sums := simplexPoints(d, samples)
	rule := newHitRule(w, lb, scale)
	chunks := par.Chunks(samples, par.Workers())
	hits := make([]int, len(chunks))
	_ = par.ForEach(len(chunks), func(ci int) error {
		eachBlock(pts, sums, d, chunks[ci].Lo, chunks[ci].Hi, func(_ int, blk, bs []float64) {
			hits[ci] += rule.countHits(blk, bs)
		})
		return nil
	})
	total := 0
	for _, n := range hits {
		total += n
	}
	return float64(total) / float64(samples), nil
}

// boundScale checks a QMC evaluation's budget and lower bound and returns
// the scale of the map x_k = lb_k + scale·p_k: 1 for a nil lb, 1 − Σ lb
// otherwise, ≤ 0 when the restricted region is empty.
func boundScale(d int, lb mat.Vec, samples int) (float64, error) {
	if samples <= 0 {
		return 0, fmt.Errorf("feasible: sample budget must be positive, got %d", samples)
	}
	if lb == nil {
		return 1, nil
	}
	if len(lb) != d {
		return 0, fmt.Errorf("feasible: lower bound length %d, want %d", len(lb), d)
	}
	for k, v := range lb {
		if !(v >= 0) || math.IsInf(v, 1) {
			return 0, fmt.Errorf("feasible: lower bound entry %d is %g, want finite and non-negative", k, v)
		}
	}
	return 1 - lb.Sum(), nil
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
	rule := newHitRule(w, nil, 1)
	chunks := par.FixedChunks(samples, mcChunk)
	hits := make([]int, len(chunks))
	_ = par.ForEach(len(chunks), func(ci int) error {
		c := chunks[ci]
		rng := rand.New(rand.NewSource(seed + int64(ci)*0x9E3779B9))
		u := make([]float64, d+1)
		blk, sums := make([]float64, (c.Hi-c.Lo)*d), make([]float64, c.Hi-c.Lo)
		for j := range sums {
			p := blk[j*d : (j+1)*d]
			for i := range u {
				u[i] = rng.Float64()
			}
			SimplexPoint(u, p)
			sums[j] = mat.Vec(p).Sum()
		}
		hits[ci] = rule.countHits(blk, sums)
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
	table, sums := simplexPoints(d, n)
	eachBlock(table, sums, d, 0, n, func(first int, blk, _ []float64) {
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

// certMargin scales the fixed margin certRadius keeps below the limit; see
// certRadius for why 2⁻³⁰ covers every rounding between the radius and the
// kernel's verdict.
const certMargin = 0x1p-30

// certRadius returns the safe radius T of one evaluation: every point p ≥ 0
// whose in-order coordinate sum s satisfies s ≤ T passes every row of w
// after the map x_k = lb_k + scale·p_k (lb nil: the identity), i.e. pairFits
// would find each row's dot ≤ 1 + 1e-12. With c_i = W_i·lb,
// e_i = 2⁻³⁰·(1 + Σ_k|w_ik|·lb_k + scale·max_k|w_ik|) and
// M_i = max_k w_ik it is
//
//	T = min(1, min over rows with M_i > 0 of (1 − c_i − e_i) / (scale·M_i)),
//
// since exactly W_i·x = c_i + scale·W_i·p ≤ c_i + scale·M_i·Σp for p ≥ 0.
// A row with M_i ≤ 0 imposes no limit beyond 1 − c_i − e_i ≥ 0; a row
// where that fails, or any NaN or ±Inf in w, lb or scale, gives T = −∞ and
// nothing is certified. The cap at 1 bounds Σp, and so every magnitude
// below, to that of a simplex point.
//
// Why e_i suffices, with u = 2⁻⁵³ and every term non-negative except w and
// c: fl(lb_k + scale·p_k) is within 2u of its exact value (one fused or two
// rounded operations), the kernel's ascending-k dot within d·u·Σ_k|w_ik|·x_k
// of the exact dot of the rounded x, c_i within d·u·Σ_k|w_ik|·lb_k of W_i·lb,
// Σp within d·u of s, and the quotient, the product scale·M_i and the
// subtraction add a few u of 1 + |c_i| + e_i. Summed, the computed dot of a
// point with s ≤ T exceeds 1 − e_i by at most (3d + 12)·u·(1 + Σ_k|w_ik|·lb_k
// + scale·max_k|w_ik|), which is below e_i for d ≤ 2²⁰; wider points get no
// certificate. So a certified point is a hit by the same rule pairFits
// applies, and c_i + scale·(W_i·p) only ever certifies: a point it does not
// certify is decided by pairFits alone, and every count stays bit-identical.
func certRadius(w *mat.Matrix, lb mat.Vec, scale float64) float64 {
	if w.Cols > 1<<20 {
		return math.Inf(-1)
	}
	t := 1.0
	for i := 0; i < w.Rows; i++ {
		var c, mag, top float64
		hi := math.Inf(-1)
		for k, v := range w.Row(i) {
			if lb != nil {
				c += v * lb[k]
				mag += math.Abs(v) * lb[k]
			}
			hi, top = max(hi, v), max(top, math.Abs(v))
		}
		room := 1 - c - certMargin*(1+mag+scale*top)
		if !(room >= 0) {
			return math.Inf(-1)
		}
		if hi > 0 {
			t = min(t, room/(scale*hi))
		}
	}
	return t
}

// hitRule is one evaluation's plan laid out for countHits: W packed by
// packPanels, the map x_k = lb_k + scale·p_k (the identity when lb is nil),
// and the safe radius of certRadius, or −∞ when it would certify too few
// points to pay for itself. It is read-only, so every par chunk and the
// past-the-cap eachBlock path share one.
type hitRule struct {
	pan    []float64
	d      int
	lb     mat.Vec
	scale  float64
	radius float64
}

func newHitRule(w *mat.Matrix, lb mat.Vec, scale float64) hitRule {
	r := hitRule{pan: packPanels(w), d: w.Cols, lb: lb, scale: scale, radius: certRadius(w, lb, scale)}
	// The points with Σp ≤ T are a share T^d of the simplex the QMC points
	// cover evenly, and about that share of each block certifies.
	if !(r.radius >= 0) || math.Pow(r.radius, float64(r.d))*gatherEvery < 1 {
		r.radius = math.Inf(-1)
	}
	return r
}

// certBlock is how many points countHits certifies before it tests the
// rest; their gathered copies stay in L1.
const certBlock = 256

// gatherEvery is the fewest points per certified one for which newHitRule
// keeps the radius: below that share, the pass comparing sums and the
// gather cost more than the dot products they save.
const gatherEvery = 8

// countHits returns how many of the flat row-major points in pts (with
// sums[j] the in-order sum of point j) land in the feasible set after the
// map: W_i·x ≤ 1 + 1e-12 on every row of W. It is the package's one hit
// rule. Without a radius, every point goes to countPairs where it lies.
// With one, a block of certBlock points is taken in two passes: the points
// with sum ≤ radius count as hits, and the rest are mapped, gathered and
// tested by countPairs. A certified point is a hit of pairFits too, so
// either way the count is the same.
func (r hitRule) countHits(pts, sums []float64) int {
	d := r.d
	if r.radius < 0 {
		var xs []float64
		if r.lb != nil {
			xs = make([]float64, 2*d)
		}
		return countPairs(r.pan, d, r.lb, r.scale, pts, xs)
	}
	var rest [certBlock]int // a block's uncertified points, in order
	buf := make([]float64, min(len(sums), certBlock)*d)
	hits := 0
	for lo := 0; lo < len(sums); lo += certBlock {
		bs := sums[lo:min(lo+certBlock, len(sums))]
		blk := pts[lo*d : (lo+len(bs))*d]
		n := uncertified(&rest, bs, r.radius)
		for m, j := range rest[:n] {
			mapPoint(buf[m*d:(m+1)*d], blk[j*d:(j+1)*d], r.lb, r.scale)
		}
		hits += len(bs) - n + countPairs(r.pan, d, nil, 1, buf[:n*d], nil)
	}
	return hits
}

// uncertified writes the indices of the sums (at most certBlock) above
// radius into rest, in order, and returns how many there are. It stores
// every index and advances past the uncertified ones only, so the loop has
// no branch to mispredict.
func uncertified(rest *[certBlock]int, sums []float64, radius float64) int {
	n := 0
	for j, s := range sums {
		rest[n] = j
		if !(s <= radius) {
			n++
		}
	}
	return n
}

// mapPoint writes x_k = lb_k + scale·p_k into x, or copies p when lb is nil:
// the expression countPairs' pair loop maps with, so a gathered point is
// bit for bit the point countPairs would have tested.
func mapPoint(x, p []float64, lb mat.Vec, scale float64) {
	if lb == nil {
		copy(x, p)
		return
	}
	for k := range x {
		x[k] = lb[k] + scale*p[k]
	}
}

// countPairs counts the hits among pts two points at a time with pairFits;
// an odd last point is tested as a pair of itself. With lb non-nil each pair
// is first mapped into xs (at least 2·d floats).
func countPairs(pan []float64, d int, lb mat.Vec, scale float64, pts, xs []float64) int {
	var xa, xb []float64
	if lb != nil {
		xa, xb = xs[:d], xs[d:2*d]
	}
	hits := 0
	off := 0
	for ; off+2*d <= len(pts); off += 2 * d {
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
	if off < len(pts) {
		last := pts[off : off+d]
		if lb != nil {
			mapPoint(xa, last, lb, scale)
			last = xa
		}
		if ok, _ := pairFits(pan, last, last); ok {
			hits++
		}
	}
	return hits
}

// pairFits tests the points a and b against every panel, one panel at a
// time: eight independent sums per column. Each row's sum starts from
// w_i0·x_0 and adds the terms in ascending k, the order Vec.Dot uses, so
// every dot and every decision is bit-identical to testing the rows one by
// one. The eight verdicts of a panel are folded into one reject flag per
// point without a branch: the points that reach the kernel lie near the
// boundary, where a chain of conditional jumps mispredicts. It returns once
// both points are rejected.
func pairFits(pan, a, b []float64) (okA, okB bool) {
	const limit = 1 + 1e-12
	d := len(a)
	b = b[:d]
	stride := panelRows * d
	var rejA, rejB uint8
	for p := 0; p+stride <= len(pan) && rejA&rejB == 0; p += stride {
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
		rejA |= above(ra0, limit) | above(ra1, limit) | above(ra2, limit) | above(ra3, limit)
		rejB |= above(rb0, limit) | above(rb1, limit) | above(rb2, limit) | above(rb3, limit)
	}
	return rejA == 0, rejB == 0
}

// above is x > y as 0 or 1, which the compiler sets from the flags
// without a jump. A NaN x is not above, so NaN never rejects.
func above(x, y float64) uint8 {
	if x > y {
		return 1
	}
	return 0
}
