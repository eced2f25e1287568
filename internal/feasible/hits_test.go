package feasible

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"rodsp/internal/mat"
)

// countHitsRowwise is the hit kernel as it was before the panel layout: the
// rows of w.Data walked in place, one serial dot per row, leaving on the first
// rejecting row. It is the reference the panel kernel must equal hit for hit.
func countHitsRowwise(w *mat.Matrix, lb mat.Vec, scale float64, pts []float64) int {
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

// pointSums is what the point table memoises beside each point: its
// in-order coordinate sum.
func pointSums(pts []float64, d int) []float64 {
	sums := make([]float64, len(pts)/d)
	for j := range sums {
		sums[j] = mat.Vec(pts[j*d : (j+1)*d]).Sum()
	}
	return sums
}

// kernelViews returns the views countView is held to on pts: grouped by
// cell as RatioToIdealFrom's view is (cells only past cellEvery points per
// cell), grouped with the cells forced on, and a single group, where the
// global radius alone decides.
func kernelViews(pts, sums []float64, d int) []*cellView {
	return []*cellView{
		newCellView(pts, sums, d, pointKeys(pts, sums, d, cellEvery)),
		newCellView(pts, sums, d, pointKeys(pts, sums, d, 0)),
		newCellView(pts, sums, d, nil),
	}
}

// viewHits counts v's points [lo, hi) as RatioToIdealFrom counts a chunk.
func viewHits(w *mat.Matrix, lb mat.Vec, scale float64, v *cellView, lo, hi int) int {
	return newHitRule(w, lb, scale, v.keys).countView(v, lo, hi, make([]float64, 2*w.Cols))
}

// checkKernel compares the kernel, through each view of kernelViews and
// with no radius at all (as the points past a view are counted), with the
// row-wise reference on pts and on its first few prefixes, so empty groups,
// a lone point, a pair and a pair plus an odd last point are all covered;
// the view with the cells forced on is also counted in two and in three
// chunks that cut its groups. It returns the reference count over all of
// pts and how many of those points that view's radii certify and reject.
func checkKernel(t *testing.T, what string, w *mat.Matrix, lb mat.Vec, pts []float64) (hits, certified, rejected int) {
	t.Helper()
	scale := 1.0
	if lb != nil {
		scale = 1 - lb.Sum()
	}
	d := w.Cols
	sums := pointSums(pts, d)
	xs := make([]float64, 2*d)
	var on *cellView
	var onRule hitRule
	for _, n := range []int{0, 1, 2, 3, len(sums)} {
		if n > len(sums) {
			continue
		}
		want := countHitsRowwise(w, lb, scale, pts[:n*d])
		if got := countPairs(packPanels(w), d, lb, scale, pts[:n*d], xs); got != want {
			t.Fatalf("%s, %d points, no radius: kernel counts %d hits, row-wise reference %d", what, n, got, want)
		}
		for i, v := range kernelViews(pts[:n*d], sums[:n], d) {
			rule := newHitRule(w, lb, scale, v.keys)
			if got := rule.countView(v, 0, n, xs); got != want {
				t.Fatalf("%s, %d points, view %d (%d groups): kernel counts %d hits, row-wise reference %d", what, n, i, len(v.starts)-1, got, want)
			}
			if i == 1 {
				on, onRule = v, rule
			}
		}
	}
	n := len(sums)
	hits = countHitsRowwise(w, lb, scale, pts)
	for _, cuts := range [][]int{{0, n / 2, n}, {0, n / 3, 2 * n / 3, n}} {
		got := 0
		for c := 1; c < len(cuts); c++ {
			got += onRule.countView(on, cuts[c-1], cuts[c], xs)
		}
		if got != hits {
			t.Fatalf("%s: kernel counts %d hits in chunks %v, row-wise reference %d", what, got, cuts, hits)
		}
	}
	for g, bd := range onRule.bounds {
		group := on.sums[on.starts[g]:on.starts[g+1]]
		sure, in := bd.split(group)
		certified, rejected = certified+sure, rejected+len(group)-in
	}
	return hits, certified, rejected
}

func uniformWeights(rng *rand.Rand, rows, d int, lo, hi float64) *mat.Matrix {
	w := mat.NewMatrix(rows, d)
	for i := range w.Data {
		w.Data[i] = lo + (hi-lo)*rng.Float64()
	}
	return w
}

func TestHitKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 999 // odd: the last point is paired with itself
	certified, rejected, tested := 0, 0, 0
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 12} {
		pts := simplexPoints(d, n).pts
		lb := mat.NewVec(d)
		for k := range lb {
			lb[k] = 0.3 * rng.Float64() / float64(d)
		}
		for _, rows := range []int{1, 2, 3, 4, 5, 9, 10, 17} {
			// Entries around 1 put the ratio inside (0, 1), so most points
			// pay for several panels and both outcomes occur.
			w := uniformWeights(rng, rows, d, 0.6, 1.6)
			for _, b := range []mat.Vec{nil, lb} {
				_, c, r := checkKernel(t, fmt.Sprintf("d=%d rows=%d lb=%v", d, rows, b != nil), w, b, pts)
				certified, rejected, tested = certified+c, rejected+r, tested+n
			}
		}
	}
	// Both sides of the certificates must be exercised: blocks they decide
	// alone, blocks they leave to pairFits, and blocks mixing the two.
	if certified == 0 || rejected == 0 || certified+rejected == tested {
		t.Fatalf("the radii certified %d and rejected %d of %d points; the cases must straddle them", certified, rejected, tested)
	}

	const d = 5
	pts := simplexPoints(d, n).pts
	zero := uniformWeights(rng, 6, d, 0.8, 1.3)
	for k := 0; k < d; k++ {
		zero.Set(2, k, 0)
	}
	checkKernel(t, "a zero row", zero, nil, pts)
	if got, _, _ := checkKernel(t, "all rows zero", mat.NewMatrix(3, d), nil, pts); got != n {
		t.Fatalf("all-zero W keeps %d of %d points, want all", got, n)
	}
	checkKernel(t, "negative entries", uniformWeights(rng, 9, d, -1, 2.5), nil, pts)
	for _, at := range []int{0, 3, 5, 8} {
		w := uniformWeights(rng, 9, d, 0.1, 0.5)
		for k := 0; k < d; k++ {
			w.Set(at, k, 1e300)
		}
		if got, _, _ := checkKernel(t, fmt.Sprintf("rejecting row %d", at), w, nil, pts); got != 0 {
			t.Fatalf("a row rejecting every point leaves %d hits", got)
		}
	}

	// NaN > limit is false, so a row whose dot is NaN never rejects, not
	// even beside a rejecting row of its panel, while a +Inf dot rejects.
	// Every coordinate of a mapped table point is positive, so a +Inf
	// entry makes the dot +Inf, a −Inf entry −Inf, and both together NaN.
	nan, inf := math.NaN(), math.Inf(1)
	lb := mat.NewVec(d)
	for k := range lb {
		lb[k] = 0.04
	}
	for _, tc := range []struct {
		name   string
		row    []float64
		others float64 // every other row's entries
		want   int
	}{
		{"NaN row", []float64{nan, nan, nan, nan, nan}, 0, n},
		{"NaN entry", []float64{0.5, nan, 0.5, 0.5, 0.5}, 0, n},
		{"NaN row beside rejecting rows", []float64{nan, nan, nan, nan, nan}, 1e300, 0},
		{"+Inf row", []float64{inf, inf, inf, inf, inf}, 0, 0},
		{"+Inf entry", []float64{0.1, 0.1, 0.1, inf, 0.1}, 0, 0},
		{"−Inf entry", []float64{-inf, 5, 5, 5, 5}, 0, n},
		{"+Inf beside −Inf", []float64{inf, 0.1, -inf, 0.1, 0.1}, 0, n},
	} {
		for _, b := range []mat.Vec{nil, lb} {
			for _, at := range []int{0, 2, 5} {
				w := mat.NewMatrix(6, d)
				for i := range w.Data {
					w.Data[i] = tc.others
				}
				copy(w.Row(at), tc.row)
				what := fmt.Sprintf("%s at row %d, lb=%v", tc.name, at, b != nil)
				if got, _, _ := checkKernel(t, what, w, b, pts); got != tc.want {
					t.Fatalf("%s: %d hits, want %d", what, got, tc.want)
				}
			}
		}
	}
}

// A table point whose dot with one row lies a few ulps either side of the
// limit must get the reference's verdict, wherever that row sits in its
// panel and whichever slot of the pair the point takes.
func TestHitKernelAtTheLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const limit = 1 + 1e-12
	for _, d := range []int{2, 5, 7} {
		pts := simplexPoints(d, 64).pts
		lb := mat.NewVec(d)
		for k := range lb {
			lb[k] = 0.2 / float64(d)
		}
		for _, b := range []mat.Vec{nil, lb} {
			scale := 1.0
			if b != nil {
				scale = 1 - b.Sum()
			}
			for i := 0; i < 8; i++ {
				p := pts[i*d : (i+1)*d]
				x := make(mat.Vec, d)
				for k := range x {
					x[k] = p[k]
					if b != nil {
						x[k] = b[k] + scale*p[k]
					}
				}
				base := uniformWeights(rng, 1, d, 0.5, 1.5).Row(0)
				base = base.Scale(limit / base.Dot(x))
				var above, below int
				for j := -8; j <= 8; j++ {
					row := base.Scale(1 + float64(j)*0x1p-52)
					dot := row.Dot(x)
					if math.Abs(dot-limit) > 32*0x1p-52 {
						t.Fatalf("d=%d point %d step %d: dot %v is not near the limit", d, i, j, dot)
					}
					if dot > limit {
						above++
					} else {
						below++
					}
					other := pts[((i+1)%64)*d : ((i+2)%64)*d]
					for at := 0; at < 5; at++ {
						w := uniformWeights(rng, 5, d, 0, 0.05)
						copy(w.Row(at), row)
						what := fmt.Sprintf("d=%d point %d step %d row %d lb=%v", d, i, j, at, b != nil)
						for _, blk := range [][]float64{p, append(append([]float64{}, p...), other...), append(append([]float64{}, other...), p...)} {
							checkKernel(t, what, w, b, blk)
						}
					}
				}
				if above == 0 || below == 0 {
					t.Fatalf("d=%d point %d: %d dots above the limit, %d at or below; the steps must straddle it", d, i, above, below)
				}
			}
		}
	}
}

// ulpSteps returns the sums s stepped 0, ±1, …, ±4 ulps from s, without
// negative ones (a point p ≥ 0 cannot have them).
func ulpSteps(s float64) []float64 {
	out := []float64{s}
	up, down := s, s
	for i := 0; i < 4; i++ {
		up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
		out = append(out, up)
		if down >= 0 {
			out = append(out, down)
		}
	}
	return out
}

// pointsSummingTo returns points p ≥ 0 of dimension d whose in-order sum is
// exactly s: every vertex s·e_k, where W_i·p reaches max_k w_ik·Σp, and a few
// interior points along random directions.
func pointsSummingTo(rng *rand.Rand, d int, s float64) []float64 {
	var pts []float64
	for k := 0; k < d; k++ {
		p := make([]float64, d)
		p[k] = s
		pts = append(pts, p...)
	}
	for i := 0; i < 4; i++ {
		u := make(mat.Vec, d)
		for k := range u {
			u[k] = rng.Float64()
		}
		if p, ok := pointAlong(u.Scale(1/u.Sum()), s); ok {
			pts = append(pts, p...)
		}
	}
	return pts
}

// soundCase is one plan and lower bound the certificates are held to.
type soundCase struct {
	name  string
	w     *mat.Matrix
	lb    mat.Vec
	scale float64
}

// adversarialCases returns plans the certificates were not shaped around,
// at d = 5, each under no lower bound, a typical one and ones with Σlb
// within 1e-9 and 1e-4 of 1 (the bounds are returned too): negative entries, zero and
// non-positive rows, magnitudes from 1e-6 to 1e6, and rows built so that
// c_i + scale·max_k w_ik·σ lands on the limit 1 + 1e-12, with ±1e6 entries
// cancelling in c_i when there is a lower bound. With those, the rounding
// the margin covers is far above the limit's 1e-12.
func adversarialCases(t *testing.T, rng *rand.Rand) (cases []soundCase, bounds []mat.Vec) {
	t.Helper()
	const d = 5
	const limit = 1 + 1e-12
	zero := uniformWeights(rng, 6, d, 0.6, 1.6)
	for k := 0; k < d; k++ {
		zero.Set(2, k, 0)
	}
	mixed := uniformWeights(rng, 8, d, 0.5, 1.5)
	for i := range mixed.Data {
		mixed.Data[i] *= []float64{1e-6, 1, 1e6}[rng.Intn(3)]
	}
	plans := []soundCase{
		{name: "typical", w: uniformWeights(rng, 10, d, 0.8, 1.1)},
		{name: "negative entries", w: uniformWeights(rng, 9, d, -1, 2)},
		{name: "non-positive rows", w: uniformWeights(rng, 4, d, -1, 0)},
		{name: "a zero row", w: zero},
		{name: "tiny", w: uniformWeights(rng, 6, d, 0, 1e-6)},
		{name: "huge", w: uniformWeights(rng, 6, d, 0, 1e6)},
		{name: "magnitudes 1e-6 to 1e6", w: mixed},
	}

	nearOne := make(mat.Vec, d)
	for k := range nearOne {
		nearOne[k] = (1 - 1e-9) / d
	}
	if gap := 1 - nearOne.Sum(); math.Abs(gap-1e-9) > 1e-15 {
		t.Fatalf("Σlb is %v from 1, want 1e-9", gap)
	}
	// Σlb within 1e-4 of 1 keeps scale·Σp small enough that the rounding of
	// a cancelling c_i outweighs cellSlack's widening, yet leaves room for
	// a cell's reject radius below 1.
	closeToOne := make(mat.Vec, d)
	for k := range closeToOne {
		closeToOne[k] = (1 - 1e-4) / d
	}
	typical := make(mat.Vec, d)
	for k := range typical {
		typical[k] = 0.3 * rng.Float64() / d
	}
	bounds = []mat.Vec{nil, typical, nearOne, closeToOne}

	for _, lb := range bounds {
		scale := 1.0
		if lb != nil {
			scale = 1 - lb.Sum()
		}
		add := func(name string, w *mat.Matrix) {
			cases = append(cases, soundCase{fmt.Sprintf("%s, lb=%v", name, lb), w, lb, scale})
		}
		for _, pl := range plans {
			add(pl.name, pl.w)
		}
		for _, sigma := range []float64{0.05, 0.4, 0.9, 1} {
			// A positive row scaled onto the limit at Σp = σ.
			v := uniformWeights(rng, 1, d, 0.2, 1.2).Row(0)
			v = v.Scale(limit / (lbDot(v, lb) + scale*v.Max()*sigma))
			w := uniformWeights(rng, 4, d, 0, 0.1)
			copy(w.Row(rng.Intn(4)), v)
			add(fmt.Sprintf("row at the limit for Σp=%v", sigma), w)
			if lb == nil {
				continue
			}
			// ±1e6 entries cancelling in c_i, the last entry solved so
			// that c_i + scale·1e6·σ is the limit.
			const a = 1e6
			v = mat.Vec{a, -a, a, -a, 0}
			v[d-1] = (limit - scale*a*sigma - lbDot(v, lb)) / lb[d-1]
			w = uniformWeights(rng, 3, d, 0, 0.1)
			copy(w.Row(rng.Intn(3)), v)
			add(fmt.Sprintf("cancelling ±1e6 row at the limit for Σp=%v", sigma), w)
		}
	}
	return cases, bounds
}

// Every point the safe radius certifies must be a hit of the row-wise
// reference, on the adversarial plans, with points whose sum sits at the
// radius and within 4 ulps of it. Rows on the limit put the vertex points at
// the radius as close to a miss as the margin allows. A NaN or ±Inf entry
// must switch the certificate off. Counts with the certificate must equal
// the reference's exactly.
func TestCertifiedRadiusIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const d = 5
	cases, bounds := adversarialCases(t, rng)
	for _, tc := range cases {
		radius := certRadius(tc.w, tc.lb, tc.scale)
		if math.IsNaN(radius) || radius > 1 {
			t.Fatalf("%s: radius %v, want at most 1", tc.name, radius)
		}
		targets := []float64{0, 0.25, 0.5, 1}
		if !math.IsInf(radius, -1) {
			targets = append(targets, radius)
		}
		var pts []float64
		for _, s := range targets {
			for _, st := range ulpSteps(s) {
				pts = append(pts, pointsSummingTo(rng, d, st)...)
			}
		}
		sums := pointSums(pts, d)
		certified := 0
		for j, s := range sums {
			if s <= radius {
				certified++
				if countHitsRowwise(tc.w, tc.lb, tc.scale, pts[j*d:(j+1)*d]) != 1 {
					t.Fatalf("%s: point %v (sum %v ≤ radius %v) is certified but misses", tc.name, pts[j*d:(j+1)*d], s, radius)
				}
			}
		}
		if certified == 0 && radius >= 0 {
			t.Fatalf("%s: radius %v certified none of %d points; they must straddle it", tc.name, radius, len(sums))
		}
		checkKernel(t, tc.name, tc.w, tc.lb, pts)
	}

	// Any non-finite entry switches the certificate off.
	pts := simplexPoints(d, 301).pts
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, lb := range bounds {
			w := uniformWeights(rng, 6, d, 0.8, 1.1)
			w.Set(rng.Intn(6), rng.Intn(d), bad)
			scale := 1.0
			if lb != nil {
				scale = 1 - lb.Sum()
			}
			if r := certRadius(w, lb, scale); !math.IsInf(r, -1) {
				t.Fatalf("entry %v, lb=%v: radius %v, want -Inf", bad, lb, r)
			}
			checkKernel(t, fmt.Sprintf("entry %v, lb=%v", bad, lb), w, lb, pts)
		}
	}
}

// allCellKeys returns the grid key of every cell a point of the d-simplex
// can land in: the levels i_k with Σ_k i_k ≤ q.
func allCellKeys(d int) []uint16 {
	q, b := cellLevels(d), cellBits(cellLevels(d))
	var keys []uint16
	var walk func(k, left, key int)
	walk = func(k, left, key int) {
		if k == d-1 {
			keys = append(keys, uint16(key))
			return
		}
		for i := 0; i < q && i <= left; i++ {
			walk(k+1, left-i, key|i<<(b*k))
		}
	}
	walk(0, q, 0)
	return keys
}

// cellDir is a direction u (d coordinates, Σu = 1) and the grid key of the
// cell whose radii the points along it are placed at.
type cellDir struct {
	u   []float64
	key uint16
}

// cellDirections returns, for every cell, each corner of its box that lies
// in the simplex, twice: exactly, every coordinate a multiple of 1/q, so the
// points along it sit on grid lines and may land in a neighbouring cell; and
// moved 1e-11 of the way to the cell's centre, so they land in the cell
// itself, where its bounds are tight.
func cellDirections(d int) []cellDir {
	q, b := cellLevels(d), cellBits(cellLevels(d))
	qf := float64(q)
	var dirs []cellDir
	for _, key := range allCellKeys(d) {
		for corner := 0; corner < 1<<(d-1); corner++ {
			u, in := make([]float64, d), make([]float64, d)
			levels := 0
			for k := 0; k < d-1; k++ {
				i := int(key) >> (b * k) & (1<<b - 1)
				at := i + corner>>k&1
				u[k], levels = float64(at)/qf, levels+at
				in[k] = u[k] + 1e-11*((float64(i)+0.5)/qf-u[k])
			}
			if levels > q {
				continue
			}
			u[d-1] = float64(q-levels) / qf
			in[d-1] = 1 - mat.Vec(in[:d-1]).Sum()
			dirs = append(dirs, cellDir{u, key})
			if in[d-1] >= 0 {
				dirs = append(dirs, cellDir{in, key})
			}
		}
	}
	return dirs
}

// pointAlong returns a point p ≥ 0 along direction u whose in-order sum is
// exactly s, nudging the last nonzero coordinate, or false when 64 nudges
// do not get there.
func pointAlong(u []float64, s float64) ([]float64, bool) {
	d := len(u)
	p := make(mat.Vec, d)
	last := 0
	for k := range u {
		p[k] = u[k] * s
		if p[k] > 0 {
			last = k
		}
	}
	for step := 0; step < 64 && p.Sum() != s; step++ {
		dir := math.Inf(1)
		if p.Sum() > s {
			dir = 0
		}
		p[last] = math.Nextafter(p[last], dir)
	}
	return p, p.Sum() == s
}

// exactDirectionOutside reports how far, in units of cellSlack, the exact
// direction p/Σp (Σp summed exactly) lies outside the level box [i_k/q,
// (i_k+1)/q] of p's cell key: 0 inside it, at most 1 inside the widened box.
// 2200 bits hold any sum of float64s exactly.
func exactDirectionOutside(p []float64, key uint16, q int) float64 {
	b := cellBits(q)
	exact := func() *big.Float { return new(big.Float).SetPrec(2200) }
	sum := exact()
	for _, v := range p {
		sum.Add(sum, exact().SetFloat64(v))
	}
	if sum.Sign() == 0 {
		return 0
	}
	worst := 0.0
	for k, v := range p[:len(p)-1] {
		// i_k/q ≤ p_k/Σp ≤ (i_k+1)/q ⇔ i_k·Σp ≤ q·p_k ≤ (i_k+1)·Σp.
		i := int(key) >> (b * k) & (1<<b - 1)
		at := exact().Mul(exact().SetInt64(int64(q)), exact().SetFloat64(v))
		lo := exact().Mul(exact().SetInt64(int64(i)), sum)
		hi := exact().Add(lo, sum)
		var gap *big.Float
		switch {
		case at.Cmp(lo) < 0:
			gap = exact().Sub(lo, at)
		case at.Cmp(hi) > 0:
			gap = exact().Sub(at, hi)
		default:
			continue
		}
		g, _ := gap.Quo(gap, exact().Mul(exact().SetInt64(int64(q)), sum)).Float64()
		worst = max(worst, g/cellSlack)
	}
	return worst
}

// Every point a cell's radii decide must get the row-wise reference's
// verdict: certified points are hits and rejected points misses, on the
// adversarial plans, with points along every corner of every cell (on the
// grid lines, where rounding can move a point into the neighbouring cell)
// at sums of exactly, and within 2 ulps of, the cell's certify and reject
// radii. The exact direction of every such point must lie in its cell's box
// widened by cellSlack, and some must lie outside the unwidened box, so the
// widening is needed. A NaN or ±Inf entry must switch every cell off. Counts
// with the cells on must equal the reference's exactly.
func TestCellCertificateIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const d = 5
	q := cellLevels(d)
	keys := allCellKeys(d)
	idOf := map[uint16]int{}
	for c, key := range keys {
		idOf[key] = c
	}
	dirs := cellDirections(d)
	cases, bounds := adversarialCases(t, rng)
	var beyondGlobal, rejected, moved, outside int
	for ci, tc := range cases {
		rule := newHitRule(tc.w, tc.lb, tc.scale, keys)
		global := certRadius(tc.w, tc.lb, tc.scale)
		var pts []float64
		for _, dir := range dirs {
			b := rule.bounds[idOf[dir.key]]
			for _, s := range []float64{b.cert, b.reject} {
				if !(s >= 0 && s <= 1) {
					continue
				}
				for _, st := range ulpSteps(s)[:5] {
					if p, ok := pointAlong(dir.u, st); ok {
						pts = append(pts, p...)
					}
				}
			}
		}
		sums := pointSums(pts, d)
		for j, s := range sums {
			p := pts[j*d : (j+1)*d]
			key := cellKey(p, s, q)
			id, ok := idOf[key]
			if !ok {
				t.Fatalf("%s: point %v lands in cell key %d, which no simplex point has", tc.name, p, key)
			}
			if ci == 0 {
				switch gap := exactDirectionOutside(p, key, q); {
				case gap > 1:
					t.Fatalf("point %v: exact direction %v·cellSlack outside its cell %d", p, gap, key)
				case gap > 0:
					outside++
				}
			}
			if key != cellKey(p, 1, q) {
				moved++
			}
			b := rule.bounds[id]
			hit := countHitsRowwise(tc.w, tc.lb, tc.scale, p) == 1
			if s <= b.cert {
				if !hit {
					t.Fatalf("%s: point %v (sum %v ≤ cell radius %v) is certified but misses", tc.name, p, s, b.cert)
				}
				if !(s <= global) {
					beyondGlobal++
				}
			}
			if s > b.reject {
				if hit {
					t.Fatalf("%s: point %v (sum %v > cell reject radius %v) is rejected but hits", tc.name, p, s, b.reject)
				}
				rejected++
			}
		}
		v := newCellView(pts, sums, d, pointKeys(pts, sums, d, 0))
		if got, want := viewHits(tc.w, tc.lb, tc.scale, v, 0, len(sums)), countHitsRowwise(tc.w, tc.lb, tc.scale, pts); got != want {
			t.Fatalf("%s: kernel with cells counts %d hits, row-wise reference %d", tc.name, got, want)
		}
	}
	if beyondGlobal == 0 || rejected == 0 || moved == 0 || outside == 0 {
		t.Fatalf("cells certified %d points beyond the global radius and rejected %d; %d points left their direction's cell and %d lie outside its unwidened box: each must be some",
			beyondGlobal, rejected, moved, outside)
	}

	// Any non-finite entry switches every cell off.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, lb := range bounds {
			w := uniformWeights(rng, 6, d, 0.8, 1.1)
			w.Set(rng.Intn(6), rng.Intn(d), bad)
			scale := 1.0
			if lb != nil {
				scale = 1 - lb.Sum()
			}
			r := newHitRule(w, lb, scale, keys)
			for c, b := range r.bounds {
				if !math.IsInf(b.cert, -1) || !math.IsInf(b.reject, 1) {
					t.Fatalf("entry %v, lb=%v: cell %d radii %v, want -Inf and +Inf", bad, lb, c, b)
				}
			}
		}
	}
}

// lbDot is W_i·lb in the order certRadius sums it, 0 for a nil lb.
func lbDot(v, lb mat.Vec) float64 {
	if lb == nil {
		return 0
	}
	return v.Dot(lb)
}
