package feasible

import (
	"fmt"
	"math"
	"slices"

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

// RatioAuto computes the feasible ratio exactly (ExactRatio) at d = 2 and
// 3 and by QMC otherwise. A non-positive budget is an error in every
// dimension, though only QMC spends it.
func RatioAuto(w *mat.Matrix, samples int) (float64, error) {
	if err := checkBudget(samples); err != nil {
		return 0, err
	}
	if w.Cols == 2 || w.Cols == 3 {
		return ExactRatio(w, nil)
	}
	return RatioToIdealFrom(w, nil, samples)
}

// RatioToIdealFrom estimates |F(W)| / |F*|, the fraction of the ideal
// simplex (in normalized coordinates) that satisfies every node constraint
// W_i·x ≤ 1, by Halton QMC with the given sample budget. A non-nil lb
// restricts the ideal region to {x ≥ lb, Σ x_k ≤ 1} (Section 6.1 workload
// sets with lower bound B, already normalized); nil means the origin.
// Returns 0 when the restricted region is empty (Σ lb ≥ 1).
//
// The sample points are a pure function of (d, index) and come from the
// process-wide table, laid out as its cell view (cellViewOf); only the hit
// count depends on w and lb. The sweep is chunked across the par worker pool
// and the per-chunk hit counts are integers reduced in chunk order, so the
// result is bit-identical for any worker count. A malformed budget or lower
// bound (wrong length, a negative or non-finite entry) returns an error, not
// a panic and not a ratio, so a bad config can neither crash a long bench
// run nor score as a plan.
func RatioToIdealFrom(w *mat.Matrix, lb mat.Vec, samples int) (float64, error) {
	if err := checkBudget(samples); err != nil {
		return 0, err
	}
	scale, err := boundScale(w.Cols, lb)
	if err != nil || scale <= 0 {
		return 0, err
	}
	d := w.Cols
	n := min(samples, viewCap(d))
	v := cellViewOf(d, n)
	var tab points // the points past the view, if any
	if samples > n {
		tab = simplexPoints(d, samples)
	}
	rule := newHitRule(w, lb, scale, v.keys)
	chunks := par.Chunks(samples, par.Workers())
	hits := make([]int, len(chunks))
	_ = par.ForEach(len(chunks), func(ci int) error {
		lo, hi := chunks[ci].Lo, chunks[ci].Hi
		var xs []float64
		if lb != nil {
			xs = make([]float64, 2*d)
		}
		hits[ci] = rule.countView(v, lo, min(hi, n), xs)
		eachBlock(tab, d, max(lo, n), hi, func(_ int, blk, _ []float64) {
			hits[ci] += countPairs(rule.pan, d, lb, scale, blk, xs)
		})
		return nil
	})
	total := 0
	for _, n := range hits {
		total += n
	}
	return float64(total) / float64(samples), nil
}

// checkBudget rejects a non-positive QMC sample budget.
func checkBudget(samples int) error {
	if samples <= 0 {
		return fmt.Errorf("feasible: sample budget must be positive, got %d", samples)
	}
	return nil
}

// boundScale checks a lower bound and returns the scale of the map
// x_k = lb_k + scale·p_k from the standard simplex onto the ideal region:
// 1 for a nil lb, 1 − Σ lb otherwise, ≤ 0 when the region is empty.
func boundScale(d int, lb mat.Vec) (float64, error) {
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

// SamplePoints returns n QMC points uniformly covering the ideal simplex in
// normalized coordinates — the workload points the Borealis experiments
// draw "all within the ideal feasible set" (Section 7.1). They are the same
// points RatioToIdealFrom integrates over, copied out of the shared table: the
// caller owns what it gets.
func SamplePoints(d, n int) []mat.Vec {
	pts := make([]mat.Vec, n)
	eachBlock(simplexPoints(d, n), d, 0, n, func(first int, blk, _ []float64) {
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

// panelRows is how many node rows pairFits tests a point against in one
// pass: a single row's dot is one serial chain of adds, four are
// independent and overlap. pairFits is written out for exactly four.
const panelRows = 4

// packPanels lays w out for pairFits: its rows in groups of panelRows, the
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

// hitLimit is the bound of the hit rule: a point is a hit when W_i·x ≤
// hitLimit on every row.
const hitLimit = 1 + 1e-12

// rowSlack returns c = W_i·lb (0 for a nil lb), summed in ascending k, and
// the margin e = 2⁻³⁰·(1 + Σ_k|w_ik|·lb_k + scale·max_k|w_ik|) of the row.
func rowSlack(row, lb mat.Vec, scale float64) (c, e float64) {
	var mag, top float64
	for k, v := range row {
		if lb != nil {
			c += v * lb[k]
			mag += math.Abs(v) * lb[k]
		}
		top = max(top, math.Abs(v))
	}
	return c, certMargin * (1 + mag + scale*top)
}

// certRadius returns the safe radius T of one evaluation: every point p ≥ 0
// whose in-order coordinate sum s satisfies s ≤ T passes every row of w
// after the map x_k = lb_k + scale·p_k (lb nil: the identity), i.e. pairFits
// would find each row's dot ≤ 1 + 1e-12. With c_i and e_i of rowSlack and
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
		row := w.Row(i)
		c, e := rowSlack(row, lb, scale)
		room := 1 - c - e
		if !(room >= 0) {
			return math.Inf(-1)
		}
		if hi := slices.Max(row); hi > 0 {
			t = min(t, room/(scale*hi))
		}
	}
	return t
}

// cellSlack widens every direction cell by 2⁻⁴⁰ on each side, more than the
// (d + 3)·2⁻⁵³ ≤ 2⁻⁴⁹ (d ≤ 13) by which cellKey's rounding can put a point
// outside the cell it lands in; see cellRadii.
const cellSlack = 0x1p-40

// cellBound is the pair of safe radii of one direction cell: a table point
// of the cell whose sum s satisfies s ≤ cert is a hit, and one with
// s > reject is a miss.
type cellBound struct{ cert, reject float64 }

// cellRow is one row of W as cellRadii reads it: w_i,d−1, the widths
// Σ_k max(0, ±δ_ik)/q + ε·Σ_k|δ_ik| the cell corner's bound is moved by,
// and the reciprocals of the two radii's numerators, times scale.
type cellRow struct {
	last, up, down, perRoom, perExcess float64
}

// cellRadii writes into dst[c] the radii of the cell whose grid key is
// keys[c], for a plan whose global radius T = certRadius(w, lb, scale) is
// ≥ 0; T is the floor of every certify radius. It leaves dst alone when an
// entry of w exceeds 2⁵⁰⁰ in magnitude. With a point's
// direction u = p/Σp, u_{d−1} = 1 − Σ_{k<d−1} u_k and δ_ik = w_ik − w_i,d−1,
// W_i·u = w_i,d−1 + Σ_k δ_ik·u_k. Over a cell with lower corner lo
// (lo_k = i_k/q) widened by ε = cellSlack on every side,
//
//	hi_ic = w_i,d−1 + Σ_k δ_ik·lo_k + Σ_k max(0, δ_ik)/q + ε·Σ_k|δ_ik| ≥ max W_i·u,
//	lo_ic = w_i,d−1 + Σ_k δ_ik·lo_k − Σ_k max(0, −δ_ik)/q − ε·Σ_k|δ_ik| ≤ min W_i·u,
//
// and since exactly W_i·x = c_i + scale·Σp·(W_i·u), with certRadius' c_i and
// e_i,
//
//	cert_c   = max(T, min(1, min over rows with hi_ic > 0 of (1 − c_i − e_i) / (scale·hi_ic))),
//	reject_c = min over rows with lo_ic > 0 of (1 + 1e-12 − c_i + e_i) / (scale·lo_ic),
//
// each computed as the reciprocal of a maximum of products, so no division
// runs per row and cell. Why rounding cannot break either, for a table point
// (it lies in the simplex, so Σp ≤ 1 + d·u), with u = 2⁻⁵³:
//
//   - The direction: cellKey's fl(fl(p_k/s)·q) is within (d + 2)·u·q of
//     q·u_k, s being within (d − 1)·u of Σp, so the exact u_k lies within
//     (d + 2)·u of the level it lands in; the clamp to q − 1 only takes
//     u_k ≤ 1. With fl(i_k/q) within u of i_k/q, ε ≥ (d + 3)·u covers both.
//   - The bounds: Σ_k lo_k ≤ 1 + d·ε, so every partial result of hi_ic or
//     lo_ic is below 5d·max_k|w_ik| in magnitude and their ≤ 3d roundings
//     move them by less than 15d²·u·max_k|w_ik| < 2⁻⁴⁰·max_k|w_ik|; times
//     scale·Σp that is under 2⁻¹⁰ of e_i's scale·max_k|w_ik| term.
//   - The sum and the quotient: each radius is within 4u of its exact
//     quotient, and Σp within (d − 1)·u of s, so s ≤ cert_c or s > reject_c
//     moves the bound on the dot by at most (d + 4)·u·(2 + |c_i| + e_i).
//     The 2⁵⁰⁰ limit keeps every product finite (1 − c_i − e_i is 0 or at
//     least 2⁻⁸³); a product that underflows gives a radius past every sum,
//     as the exact one is, and a 0·∞ product from a zero room is skipped,
//     as the zero room itself bounds the dot by 1 − e_i.
//   - c_i, the map and the kernel's dot: as in certRadius.
//
// Summed, the computed dot of a certified point stays below 1 + 1e-12, and
// that of a rejected point above it, by e_i less at most (4d + 16)·u·(1 +
// Σ_k|w_ik|·lb_k + scale·max_k|w_ik|) + 2⁻⁴⁰·scale·max_k|w_ik|, which is
// positive for d ≤ 13. T ≥ 0 means w, lb and scale are finite and every
// room 1 − c_i − e_i is ≥ 0, so every excess is > 0.
func cellRadii(dst []cellBound, w *mat.Matrix, lb mat.Vec, scale, floor float64, keys []uint16) {
	d := w.Cols
	for _, v := range w.Data[:w.Rows*d] {
		if !(math.Abs(v) <= 0x1p500) {
			return
		}
	}
	q, m, n := cellLevels(d), d-1, w.Rows
	qf, b := float64(q), cellBits(q)
	rows := make([]cellRow, n)
	delta := make([]float64, m*n) // column by column: δ_0k … δ_(n−1)k
	for i := range rows {
		row := w.Row(i)
		c, e := rowSlack(row, lb, scale)
		last := row[m]
		var pos, neg float64
		for k, v := range row[:m] {
			dk := v - last
			delta[k*n+i] = dk
			pos, neg = pos+max(0, dk), neg+max(0, -dk)
		}
		slack := cellSlack * (pos + neg)
		rows[i] = cellRow{last: last, up: pos/qf + slack, down: neg/qf + slack,
			perRoom: scale / (1 - c - e), perExcess: scale / (hitLimit - c + e)}
	}
	mids := make([]float64, n)
	for c, key := range keys {
		for i, r := range rows {
			mids[i] = r.last
		}
		// Column by column, so the rows' sums are independent chains.
		for k := 0; k < m; k++ {
			lo := float64(int(key)>>(b*k)&(1<<b-1)) / qf
			for i, dk := range delta[k*n : (k+1)*n] {
				mids[i] += dk * lo
			}
		}
		// The largest scale·hi_ic/(1 − c_i − e_i) and scale·lo_ic/excess_i;
		// a non-positive hi_ic or lo_ic, or a NaN, never exceeds 0.
		var tight, sure float64
		for i, r := range rows {
			if v := (mids[i] + r.up) * r.perRoom; v > tight {
				tight = v
			}
			if v := (mids[i] - r.down) * r.perExcess; v > sure {
				sure = v
			}
		}
		dst[c] = cellBound{max(min(1, 1/tight), floor), 1 / sure}
	}
}

// hitRule is one evaluation's plan laid out for countView: W packed by
// packPanels, the map x_k = lb_k + scale·p_k (the identity when lb is nil),
// and the safe radii of each group of the view: bounds[g] holds those of
// cell keys[g] (cellRadii), or certRadius' radius and +∞ for a view of a
// single group. A rule is read-only, so every par chunk shares one.
type hitRule struct {
	pan    []float64
	d      int
	lb     mat.Vec
	scale  float64
	bounds []cellBound
}

// newHitRule lays w out for countView with the radii of the cells whose
// grid keys are keys (nil: a single group).
func newHitRule(w *mat.Matrix, lb mat.Vec, scale float64, keys []uint16) hitRule {
	r := hitRule{pan: packPanels(w), d: w.Cols, lb: lb, scale: scale, bounds: make([]cellBound, max(1, len(keys)))}
	radius := certRadius(w, lb, scale)
	for g := range r.bounds {
		r.bounds[g] = cellBound{radius, math.Inf(1)}
	}
	if radius >= 0 && len(keys) > 0 {
		cellRadii(r.bounds, w, lb, scale, radius, keys)
	}
	return r
}

// cellEvery is the fewest samples per cell for which a view groups its
// points by cell (pointKeys). cellRadii costs about what the kernel spends
// on ten points per cell: at d = 5 a 3 000-sample PlaceBest arm (280 cells)
// about breaks even with them and the controller's 400 samples (187 cells)
// lose, while the 60 000-sample final ratio (330 cells) runs twice as fast.
// 8 and 4, which give the arms cells too, made a replan decision slower.
const cellEvery = 20

// countView returns how many of the view's points [lo, hi) land in the
// feasible set after the map: W_i·x ≤ 1 + 1e-12 on every row of W. It is
// the package's one hit rule. In each group, cut to [lo, hi), its sums are
// ascending, so two binary searches split it: the points with Σp ≤ cert
// are hits, those with Σp > reject misses (a point that is both is a miss),
// and only the band between goes to countPairs. A certified point is a hit
// of pairFits too and a rejected point a miss, so the count is the one
// countPairs would give for every point. xs is countPairs' scratch (2·d
// floats when lb is non-nil).
func (r hitRule) countView(v *cellView, lo, hi int, xs []float64) int {
	if lo >= hi {
		return 0
	}
	d := r.d
	hits := 0
	g, _ := slices.BinarySearch(v.starts, lo+1) // the group holding lo, plus 1
	for g--; v.starts[g] < hi; g++ {
		a, b := max(lo, v.starts[g]), min(hi, v.starts[g+1])
		sure, in := r.bounds[g].split(v.sums[a:b])
		hits += sure + countPairs(r.pan, d, r.lb, r.scale, v.pts[(a+sure)*d:(a+in)*d], xs)
	}
	return hits
}

// split returns how many of a group's ascending sums the radii certify and
// how many they do not reject: the first sure points are hits, the points
// from in on misses, and [sure, in) is the band left to countPairs.
func (bd cellBound) split(sums []float64) (sure, in int) {
	in = countAtMost(sums, bd.reject)
	return min(countAtMost(sums, bd.cert), in), in
}

// countAtMost returns how many of the ascending sums are ≤ x: 0 for a NaN x,
// so a NaN radius certifies nothing. A reject radius is never NaN (+∞ or
// cellRadii's 1/sure with sure ≥ 0), so the count of sums not above it is
// the same search.
func countAtMost(sums []float64, x float64) int {
	lo, hi := 0, len(sums)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if sums[m] <= x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
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
			for k := range xa {
				xa[k] = lb[k] + scale*last[k]
			}
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
		rejA |= above(ra0, hitLimit) | above(ra1, hitLimit) | above(ra2, hitLimit) | above(ra3, hitLimit)
		rejB |= above(rb0, hitLimit) | above(rb1, hitLimit) | above(rb2, hitLimit) | above(rb3, hitLimit)
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
