package bench

import (
	"math"
	"math/rand"

	"rodsp/internal/feasible"
	"rodsp/internal/mat"
)

// Figure9Config drives the plane-distance experiment: random node load
// coefficient matrices, scatter of feasible-set-ratio against r/r*
// (Figure 9 used 1000 matrices with 10 nodes and 3 input streams).
type Figure9Config struct {
	Nodes    int
	Streams  int
	Matrices int
	Samples  int
	Bins     int
	Seed     int64
}

// Defaults fills unset fields with the paper's parameters.
func (c *Figure9Config) Defaults() {
	if c.Nodes == 0 {
		c.Nodes = 10
	}
	if c.Streams == 0 {
		c.Streams = 3
	}
	if c.Matrices == 0 {
		c.Matrices = 1000
	}
	if c.Samples == 0 {
		c.Samples = 3000
	}
	if c.Bins == 0 {
		c.Bins = 10
	}
}

// Run generates the scatter and reports, per r/r* bin, the min/mean/max
// measured feasible-set ratio alongside the hypersphere lower-bound curve
// drawn in the figure.
func (c Figure9Config) Run() (*Table, error) {
	c.Defaults()
	rng := rand.New(rand.NewSource(c.Seed))
	type binAcc struct {
		min, max, sum float64
		n             int
	}
	bins := make([]binAcc, c.Bins)
	for i := range bins {
		bins[i].min = math.Inf(1)
	}
	rStar := feasible.IdealPlaneDistance(c.Streams)
	// The matrices come off one shared RNG stream, so they are drawn
	// serially; the QMC evaluations — the bulk of the work — fan across
	// the trial-runner and the bins accumulate in matrix order.
	ws := make([]*mat.Matrix, c.Matrices)
	for m := range ws {
		ws[m] = randomWeights(rng, c.Nodes, c.Streams)
	}
	type sample struct{ r, ratio float64 }
	evals, err := RunTrials(c.Matrices, func(m int) (sample, error) {
		ratio, err := feasible.RatioToIdealFrom(ws[m], nil, c.Samples)
		if err != nil {
			return sample{}, err
		}
		return sample{r: feasible.MinPlaneDistance(ws[m]), ratio: ratio}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, e := range evals {
		frac := e.r / rStar
		b := int(frac * float64(c.Bins))
		if b >= c.Bins {
			b = c.Bins - 1
		}
		acc := &bins[b]
		acc.n++
		acc.sum += e.ratio
		if e.ratio < acc.min {
			acc.min = e.ratio
		}
		if e.ratio > acc.max {
			acc.max = e.ratio
		}
	}
	t := &Table{
		Title: "Figure 9 — feasible-set-size ratio vs r/r* (random L^n matrices)",
		Note: "n=" + fi(c.Nodes) + ", d=" + fi(c.Streams) + ", " + fi(c.Matrices) +
			" matrices; 'bound' is the hypersphere lower-bound curve",
		Header: []string{"r/r* bin", "count", "min", "mean", "max", "bound"},
	}
	for i := range bins {
		lo := float64(i) / float64(c.Bins)
		hi := float64(i+1) / float64(c.Bins)
		label := f3(lo) + "-" + f3(hi)
		if bins[i].n == 0 {
			t.AddRow(label, "0", "-", "-", "-", f3(feasible.HypersphereLowerBound(lo*rStar, c.Streams)))
			continue
		}
		t.AddRow(label, fi(bins[i].n),
			f3(bins[i].min),
			f3(bins[i].sum/float64(bins[i].n)),
			f3(bins[i].max),
			f3(feasible.HypersphereLowerBound(lo*rStar, c.Streams)),
		)
	}
	return t, nil
}

// randomWeights draws a random normalized weight matrix: each column is a
// random positive split of its stream across nodes (columns of W have
// capacity-weighted mean 1 for equal capacities).
func randomWeights(rng *rand.Rand, n, d int) *mat.Matrix {
	w := mat.NewMatrix(n, d)
	for k := 0; k < d; k++ {
		var sum float64
		col := make([]float64, n)
		for i := range col {
			col[i] = rng.Float64()
			sum += col[i]
		}
		for i := range col {
			w.Set(i, k, col[i]/sum*float64(n))
		}
	}
	return w
}
