package feasible

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rodsp/internal/mat"
	"rodsp/internal/par"
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

// checkKernel compares the kernel, with the safe radius as newHitRule keeps
// it, always on and always off, with the row-wise reference on pts and on its first few
// prefixes, so empty blocks, a lone point, a pair and a pair plus an odd last
// point are all covered. It returns the reference count over all of pts and
// how many of those points the certificate decided.
func checkKernel(t *testing.T, what string, w *mat.Matrix, lb mat.Vec, pts []float64) (hits, certified int) {
	t.Helper()
	scale := 1.0
	if lb != nil {
		scale = 1 - lb.Sum()
	}
	d := w.Cols
	built := newHitRule(w, lb, scale)
	on, off := built, built
	on.radius, off.radius = certRadius(w, lb, scale), math.Inf(-1)
	sums := pointSums(pts, d)
	for _, n := range []int{0, 1, 2, 3, len(sums)} {
		if n > len(sums) {
			continue
		}
		want := countHitsRowwise(w, lb, scale, pts[:n*d])
		for _, r := range []hitRule{built, on, off} {
			if got := r.countHits(pts[:n*d], sums[:n]); got != want {
				t.Fatalf("%s, %d points, radius %v: kernel counts %d hits, row-wise reference %d", what, n, r.radius, got, want)
			}
		}
	}
	for _, s := range sums {
		if s <= on.radius {
			certified++
		}
	}
	return countHitsRowwise(w, lb, scale, pts), certified
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
	certified, tested := 0, 0
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 12} {
		pts, _ := simplexPoints(d, n)
		lb := mat.NewVec(d)
		for k := range lb {
			lb[k] = 0.3 * rng.Float64() / float64(d)
		}
		for _, rows := range []int{1, 2, 3, 4, 5, 9, 10, 17} {
			// Entries around 1 put the ratio inside (0, 1), so most points
			// pay for several panels and both outcomes occur.
			w := uniformWeights(rng, rows, d, 0.6, 1.6)
			for _, b := range []mat.Vec{nil, lb} {
				_, c := checkKernel(t, fmt.Sprintf("d=%d rows=%d lb=%v", d, rows, b != nil), w, b, pts)
				certified, tested = certified+c, tested+n
			}
		}
	}
	// Both sides of the certificate must be exercised: blocks it decides
	// alone, blocks it leaves to pairFits, and blocks mixing the two.
	if certified == 0 || certified == tested {
		t.Fatalf("the certificate decided %d of %d points; the cases must straddle it", certified, tested)
	}

	const d = 5
	pts, _ := simplexPoints(d, n)
	zero := uniformWeights(rng, 6, d, 0.8, 1.3)
	for k := 0; k < d; k++ {
		zero.Set(2, k, 0)
	}
	checkKernel(t, "a zero row", zero, nil, pts)
	if got, _ := checkKernel(t, "all rows zero", mat.NewMatrix(3, d), nil, pts); got != n {
		t.Fatalf("all-zero W keeps %d of %d points, want all", got, n)
	}
	checkKernel(t, "negative entries", uniformWeights(rng, 9, d, -1, 2.5), nil, pts)
	for _, at := range []int{0, 3, 5, 8} {
		w := uniformWeights(rng, 9, d, 0.1, 0.5)
		for k := 0; k < d; k++ {
			w.Set(at, k, 1e300)
		}
		if got, _ := checkKernel(t, fmt.Sprintf("rejecting row %d", at), w, nil, pts); got != 0 {
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
				if got, _ := checkKernel(t, what, w, b, pts); got != tc.want {
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
		pts, _ := simplexPoints(d, 64)
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

// RatioToIdealMC counts its draws with the panel kernel; a per-point loop
// over the same draws (same chunks, same derived seeds, same SimplexPoint)
// must give the same ratio.
func TestRatioToIdealMCMatchesPerPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, d := range []int{2, 5} {
		w := uniformWeights(rng, 7, d, 0.7, 1.4)
		samples := 2*mcChunk + 77
		const seed = 5
		got, err := RatioToIdealMC(w, samples, seed)
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		for ci, c := range par.FixedChunks(samples, mcChunk) {
			r := rand.New(rand.NewSource(seed + int64(ci)*0x9E3779B9))
			u, x := make([]float64, d+1), make(mat.Vec, d)
			for s := c.Lo; s < c.Hi; s++ {
				for i := range u {
					u[i] = r.Float64()
				}
				SimplexPoint(u, x)
				if feasiblePoint(w, x) {
					hits++
				}
			}
		}
		if want := float64(hits) / float64(samples); got != want {
			t.Fatalf("d=%d: RatioToIdealMC %v, per-point reference %v", d, got, want)
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
// interior points with one coordinate nudged until the sum is s.
func pointsSummingTo(rng *rand.Rand, d int, s float64) []float64 {
	var pts []float64
	for k := 0; k < d; k++ {
		p := make([]float64, d)
		p[k] = s
		pts = append(pts, p...)
	}
	for i := 0; i < 4; i++ {
		p := make(mat.Vec, d)
		for k := range p {
			p[k] = rng.Float64()
		}
		p = p.Scale(s / p.Sum())
		for step := 0; step < 64 && p.Sum() != s; step++ {
			dir := math.Inf(1)
			if p.Sum() > s {
				dir = 0
			}
			p[d-1] = math.Nextafter(p[d-1], dir)
		}
		if p.Sum() == s {
			pts = append(pts, p...)
		}
	}
	return pts
}

// Every point the safe radius certifies must be a hit of the row-wise
// reference, on plans the certificate was not shaped around, with points
// whose sum sits at the radius and within 4 ulps of it. Rows built so that
// c_i + scale·max_k w_ik·Σp lands on the limit 1 + 1e-12 put the vertex
// points at the radius as close to a miss as the margin allows; with ±1e6
// entries cancelling in c_i, the rounding the margin covers is far above the
// limit's 1e-12. A NaN or ±Inf entry must switch the certificate off.
// Counts with the certificate must equal the reference's exactly.
func TestCertifiedRadiusIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const d = 5
	const limit = 1 + 1e-12

	type plan struct {
		name string
		w    *mat.Matrix
	}
	zero := uniformWeights(rng, 6, d, 0.6, 1.6)
	for k := 0; k < d; k++ {
		zero.Set(2, k, 0)
	}
	mixed := uniformWeights(rng, 8, d, 0.5, 1.5)
	for i := range mixed.Data {
		mixed.Data[i] *= []float64{1e-6, 1, 1e6}[rng.Intn(3)]
	}
	plans := []plan{
		{"typical", uniformWeights(rng, 10, d, 0.8, 1.1)},
		{"negative entries", uniformWeights(rng, 9, d, -1, 2)},
		{"non-positive rows", uniformWeights(rng, 4, d, -1, 0)},
		{"a zero row", zero},
		{"tiny", uniformWeights(rng, 6, d, 0, 1e-6)},
		{"huge", uniformWeights(rng, 6, d, 0, 1e6)},
		{"magnitudes 1e-6 to 1e6", mixed},
	}

	nearOne := make(mat.Vec, d)
	for k := range nearOne {
		nearOne[k] = (1 - 1e-9) / d
	}
	if gap := 1 - nearOne.Sum(); math.Abs(gap-1e-9) > 1e-15 {
		t.Fatalf("Σlb is %v from 1, want 1e-9", gap)
	}
	typical := make(mat.Vec, d)
	for k := range typical {
		typical[k] = 0.3 * rng.Float64() / d
	}
	bounds := []mat.Vec{nil, typical, nearOne}

	for _, lb := range bounds {
		scale := 1.0
		if lb != nil {
			scale = 1 - lb.Sum()
		}
		cases := plans[:len(plans):len(plans)]
		for _, sigma := range []float64{0.05, 0.4, 0.9, 1} {
			// A positive row scaled onto the limit at Σp = σ.
			v := uniformWeights(rng, 1, d, 0.2, 1.2).Row(0)
			v = v.Scale(limit / (lbDot(v, lb) + scale*v.Max()*sigma))
			w := uniformWeights(rng, 4, d, 0, 0.1)
			copy(w.Row(rng.Intn(4)), v)
			cases = append(cases, plan{fmt.Sprintf("row at the limit for Σp=%v", sigma), w})
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
			cases = append(cases, plan{fmt.Sprintf("cancelling ±1e6 row at the limit for Σp=%v", sigma), w})
		}

		for _, pl := range cases {
			what := fmt.Sprintf("%s, lb=%v", pl.name, lb)
			radius := certRadius(pl.w, lb, scale)
			if math.IsNaN(radius) || radius > 1 {
				t.Fatalf("%s: radius %v, want at most 1", what, radius)
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
					if countHitsRowwise(pl.w, lb, scale, pts[j*d:(j+1)*d]) != 1 {
						t.Fatalf("%s: point %v (sum %v ≤ radius %v) is certified but misses", what, pts[j*d:(j+1)*d], s, radius)
					}
				}
			}
			if certified == 0 && radius >= 0 {
				t.Fatalf("%s: radius %v certified none of %d points; they must straddle it", what, radius, len(sums))
			}
			checkKernel(t, what, pl.w, lb, pts)
		}
	}

	// Any non-finite entry switches the certificate off.
	pts, _ := simplexPoints(d, 301)
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

// lbDot is W_i·lb in the order certRadius sums it, 0 for a nil lb.
func lbDot(v, lb mat.Vec) float64 {
	if lb == nil {
		return 0
	}
	return v.Dot(lb)
}
