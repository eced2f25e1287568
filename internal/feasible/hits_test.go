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

// checkKernel compares the panel kernel with the row-wise reference on pts
// and on its first few prefixes, so empty blocks, a lone point, a pair and a
// pair plus an odd last point are all covered. It returns the reference
// count over all of pts.
func checkKernel(t *testing.T, what string, w *mat.Matrix, lb mat.Vec, pts []float64) int {
	t.Helper()
	scale := 1.0
	if lb != nil {
		scale = 1 - lb.Sum()
	}
	d := w.Cols
	pan := packPanels(w)
	for _, n := range []int{0, 1, 2, 3, len(pts) / d} {
		if n*d > len(pts) {
			continue
		}
		want := countHitsRowwise(w, lb, scale, pts[:n*d])
		if got := countHits(pan, d, lb, scale, pts[:n*d]); got != want {
			t.Fatalf("%s, %d points: panel kernel counts %d hits, row-wise reference %d", what, n, got, want)
		}
	}
	return countHitsRowwise(w, lb, scale, pts)
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
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 12} {
		pts := simplexPoints(d, n)
		lb := mat.NewVec(d)
		for k := range lb {
			lb[k] = 0.3 * rng.Float64() / float64(d)
		}
		for _, rows := range []int{1, 2, 3, 4, 5, 9, 10, 17} {
			// Entries around 1 put the ratio inside (0, 1), so most points
			// pay for several panels and both outcomes occur.
			w := uniformWeights(rng, rows, d, 0.6, 1.6)
			for _, b := range []mat.Vec{nil, lb} {
				checkKernel(t, fmt.Sprintf("d=%d rows=%d lb=%v", d, rows, b != nil), w, b, pts)
			}
		}
	}

	const d = 5
	pts := simplexPoints(d, n)
	zero := uniformWeights(rng, 6, d, 0.8, 1.3)
	for k := 0; k < d; k++ {
		zero.Set(2, k, 0)
	}
	checkKernel(t, "a zero row", zero, nil, pts)
	if got := checkKernel(t, "all rows zero", mat.NewMatrix(3, d), nil, pts); got != n {
		t.Fatalf("all-zero W keeps %d of %d points, want all", got, n)
	}
	checkKernel(t, "negative entries", uniformWeights(rng, 9, d, -1, 2.5), nil, pts)
	for _, at := range []int{0, 3, 5, 8} {
		w := uniformWeights(rng, 9, d, 0.1, 0.5)
		for k := 0; k < d; k++ {
			w.Set(at, k, 1e300)
		}
		if got := checkKernel(t, fmt.Sprintf("rejecting row %d", at), w, nil, pts); got != 0 {
			t.Fatalf("a row rejecting every point leaves %d hits", got)
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
		pts := simplexPoints(d, 64)
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
