package feasible

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"rodsp/internal/mat"
	"rodsp/internal/par"
)

// The naive serial reference the table and the flat kernel are held to:
// random-access Halton, SimplexPoint into a fresh vector, feasiblePoint over
// Row/Dot. It shares no state with the code under test.

func refPoint(d, i int) mat.Vec {
	u := make([]float64, d+1)
	NewHalton(d+1).At(int64(i), u)
	x := make(mat.Vec, d)
	SimplexPoint(u, x)
	return x
}

func feasiblePoint(w *mat.Matrix, x mat.Vec) bool {
	for i := 0; i < w.Rows; i++ {
		if w.Row(i).Dot(x) > 1+1e-12 {
			return false
		}
	}
	return true
}

func refRatio(w *mat.Matrix, lb mat.Vec, samples int) float64 {
	scale := 1.0
	if lb != nil {
		scale = 1 - lb.Sum()
	}
	hits := 0
	for s := 0; s < samples; s++ {
		x := refPoint(w.Cols, s)
		if lb != nil {
			for k := range x {
				x[k] = lb[k] + scale*x[k]
			}
		}
		if feasiblePoint(w, x) {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

// forgetTable drops dimension d's memoised points so a test exercises first
// use and growth on every -count iteration, not only the process's first.
func forgetTable(d int) {
	tablesMu.Lock()
	delete(tables, d)
	tablesMu.Unlock()
}

// checkPoints holds the points numbered first, first+1, … and their sums to
// the reference: each point bit for bit, each sum exactly the in-order sum of
// the reference point.
func checkPoints(t *testing.T, what string, d, first int, pts, sums []float64) {
	t.Helper()
	if len(pts) != len(sums)*d {
		t.Fatalf("%s: %d floats for %d sums", what, len(pts), len(sums))
	}
	for j := range sums {
		i := first + j
		ref := refPoint(d, i)
		if !mat.Vec(pts[j*d:(j+1)*d]).Equal(ref, 0) {
			t.Fatalf("%s: point %d = %v, want %v", what, i, pts[j*d:(j+1)*d], ref)
		}
		var sum float64
		for _, v := range ref {
			sum += v
		}
		if sums[j] != sum {
			t.Fatalf("%s: sum of point %d = %v, want %v", what, i, sums[j], sum)
		}
	}
}

// Growth must fill only the missing suffix and leave every slice handed out
// earlier, points and sums, exactly as it was.
func TestSimplexTablePrefixStability(t *testing.T) {
	for _, d := range []int{3, 7, 14} {
		forgetTable(d)
		var published []points
		for _, n := range []int{100, 5000, 60000} {
			tab := simplexPoints(d, n)
			if len(tab.pts) != n*d || len(tab.sums) != n {
				t.Fatalf("simplexPoints(%d, %d) holds %d floats and %d sums, want %d and %d", d, n, len(tab.pts), len(tab.sums), n*d, n)
			}
			published = append(published, tab)
			for _, p := range published {
				checkPoints(t, "after growth", d, 0, p.pts, p.sums)
			}
		}
		// A smaller request is served from what is there.
		last := published[2]
		if tab := simplexPoints(d, 10); &tab.pts[0] != &last.pts[0] || &tab.sums[0] != &last.sums[0] {
			t.Fatal("a request the table already covers must not reallocate it")
		}
	}
}

// The table-fed flat kernel must return exactly the ratio of the serial
// reference, for any worker count and budgets that divide into nothing.
func TestSimplexTableRatioEquality(t *testing.T) {
	defer par.SetWorkers(0)
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 8; trial++ {
		w := randWeights(rng, 2+rng.Intn(9), 2+rng.Intn(7))
		lb := mat.NewVec(w.Cols)
		for k := range lb {
			lb[k] = 0.4 * rng.Float64() / float64(w.Cols)
		}
		if trial%4 == 3 {
			lb = nil
		}
		samples := []int{1, 7, 997, 4099, 12345}[trial%5] + rng.Intn(3)
		want := refRatio(w, lb, samples)
		for _, workers := range []int{1, 2, 8} {
			par.SetWorkers(workers)
			if got := mustRatioFrom(t, w, lb, samples); got != want {
				t.Fatalf("trial %d workers=%d samples=%d: ratio %v, reference %v", trial, workers, samples, got, want)
			}
		}
	}
}

// Past the cap the samples stream through the scratch block; a chunk that
// straddles the cached/streamed boundary must still count exactly the
// reference's hits, and the table must stop growing at the cap.
func TestSimplexTablePastCap(t *testing.T) {
	defer par.SetWorkers(0)
	const d = 64
	capPoints := tableCapFloats / d
	n := capPoints + 3000

	rng := rand.New(rand.NewSource(23))
	w := randWeights(rng, 3, d)
	for i := range w.Data {
		w.Data[i] = 0.5 + w.Data[i]/2 // ratio well inside (0, 1)
	}
	want := refRatio(w, nil, n)
	if want <= 0 || want >= 1 {
		t.Fatalf("reference ratio %v cannot tell hit from miss", want)
	}
	for _, workers := range []int{1, 2} {
		par.SetWorkers(workers)
		if got := mustRatio(t, w, n); got != want {
			t.Fatalf("workers=%d: ratio %v, reference %v", workers, got, want)
		}
	}
	tab := simplexPoints(d, n)
	if len(tab.pts) != tableCapFloats || len(tab.sums) != capPoints {
		t.Fatalf("table holds %d floats and %d sums after a %d-sample call, want the cap %d and %d", len(tab.pts), len(tab.sums), n, tableCapFloats, capPoints)
	}
	// The blocks past the cap carry sums too, generated with their points.
	lo, hi := capPoints-5, capPoints+streamBlock+7
	next := lo
	eachBlock(tab, d, lo, hi, func(first int, blk, bs []float64) {
		if first != next {
			t.Fatalf("block starts at point %d, want %d", first, next)
		}
		checkPoints(t, "past the cap", d, first, blk, bs)
		next += len(bs)
	})
	if next != hi {
		t.Fatalf("blocks ended at point %d, want %d", next, hi)
	}
	pts := SamplePoints(d, n)
	for _, i := range []int{0, capPoints - 1, capPoints, capPoints + streamBlock, n - 1} {
		if !pts[i].Equal(refPoint(d, i), 0) {
			t.Fatalf("SamplePoints[%d] differs from the reference", i)
		}
	}
}

// Many goroutines hitting empty tables at once — the portfolio arms and the
// bench trial-runner do — must each get the reference answer, points, sums
// and cell view.
func TestSimplexTableConcurrentFirstUse(t *testing.T) {
	defer par.SetWorkers(0)
	par.SetWorkers(4)
	rng := rand.New(rand.NewSource(29))
	type job struct {
		w       *mat.Matrix
		lb      mat.Vec
		samples int
		want    float64
	}
	jobs := make([]job, 8)
	for i := range jobs {
		d := []int{4, 6, 9}[i%3]
		j := job{w: randWeights(rng, 3+i, d), samples: []int{300, 2500, 9001, 20011}[i%4]}
		if i%2 == 0 {
			j.lb = mat.NewVec(d)
			j.lb[i%d] = 0.1
		}
		j.want = refRatio(j.w, j.lb, j.samples)
		jobs[i] = j
		forgetTable(d)
	}
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := RatioToIdealFrom(j.w, j.lb, j.samples)
			if err != nil || got != j.want {
				t.Errorf("job %d (d=%d, n=%d): ratio %v err %v, reference %v", i, j.w.Cols, j.samples, got, err, j.want)
			}
			d := j.w.Cols
			tab := simplexPoints(d, j.samples)
			pts, sums := tab.pts, tab.sums
			for k, s := range sums {
				if want := mat.Vec(pts[k*d : (k+1)*d]).Sum(); s != want {
					t.Errorf("job %d (d=%d): sum of point %d = %v, want %v", i, d, k, s, want)
					return
				}
			}
			checkView(t, fmt.Sprintf("job %d (d=%d)", i, d), d, cellViewOf(d, j.samples))
		}()
	}
	wg.Wait()

	// First users of one size wait for one fill and share its slices.
	const d, n, users = 5, 30000, 6
	forgetTable(d)
	got := make([]points, users)
	for u := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[u] = simplexPoints(d, n)
		}()
	}
	wg.Wait()
	for u, tab := range got {
		if &tab.pts[0] != &got[0].pts[0] || &tab.sums[0] != &got[0].sums[0] {
			t.Fatalf("user %d got a table of its own fill", u)
		}
	}
}

// simplexPointTwoPass is SimplexPoint as it was first written — the sum in
// one pass, every logarithm again for the quotients — kept as the reference
// the single-pass form must equal bit for bit.
func simplexPointTwoPass(u, dst []float64) {
	var sum float64
	for _, ui := range u {
		sum += -math.Log1p(-ui)
	}
	for k := range dst {
		dst[k] = -math.Log1p(-u[k]) / sum
	}
}

func TestSimplexPointMatchesTwoPass(t *testing.T) {
	for d := 1; d <= 12; d++ {
		h := NewHalton(d + 1)
		u := make([]float64, d+1)
		got, want := make(mat.Vec, d), make(mat.Vec, d)
		for i := 0; i < 20000; i++ {
			h.Next(u)
			SimplexPoint(u, got)
			simplexPointTwoPass(u, want)
			if !got.Equal(want, 0) {
				t.Fatalf("d=%d point %d: %v, two-pass %v", d, i, got, want)
			}
		}
	}
}
