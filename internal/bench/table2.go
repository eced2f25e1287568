package bench

import (
	"fmt"

	"rodsp/internal/feasible"
	"rodsp/internal/mat"
	"rodsp/internal/placement"
	"rodsp/internal/query"
)

// Example2Graph builds the paper's running example (Figure 4 / Example 2):
// I1 → o1 → o2, I2 → o3 → o4 with costs (4, 6, 9, 4) and selectivities
// s1 = 1, s3 = 0.5, so L^o = [[4 0] [6 0] [0 9] [0 2]].
func Example2Graph() *query.Graph {
	b := query.NewBuilder()
	i1 := b.Input("I1")
	i2 := b.Input("I2")
	s1 := b.Delay("o1", 4, 1, i1)
	b.Delay("o2", 6, 1, s1)
	s3 := b.Delay("o3", 9, 0.5, i2)
	b.Delay("o4", 4, 1, s3)
	return b.MustBuild()
}

// Table2Plans returns the three Example 2 distribution plans on two nodes:
// (a) {o1,o2 | o3,o4}, (b) {o1,o4 | o2,o3}, (c) {o1,o3 | o2,o4}.
func Table2Plans() map[string]*placement.Plan {
	mk := func(nodeOf ...int) *placement.Plan {
		p, err := placement.NewPlan(nodeOf, 2)
		if err != nil {
			panic(err)
		}
		return p
	}
	return map[string]*placement.Plan{
		"(a)": mk(0, 0, 1, 1),
		"(b)": mk(0, 1, 1, 0),
		"(c)": mk(0, 1, 0, 1),
	}
}

// Table2 reproduces Table 2 and Figures 5–6: the node coefficient matrix of
// each example plan, its exact feasible-set size (feasible.ExactRatio), and
// the ratio to the ideal feasible set of Theorem 1.
func Table2() (*Table, error) {
	g := Example2Graph()
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		return nil, err
	}
	c := mat.VecOf(1, 1)
	lk := lm.CoefSums()
	idealVol, err := feasible.IdealVolume(lk, c)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Table 2 / Figures 5-6 — Example 2 plans (C1=C2=1, L^o rows [4 0][6 0][0 9][0 2])",
		Note: fmt.Sprintf("ideal feasible set size V(F*) = %s (= C_T^2 / (2! l1 l2) with l=(%g,%g))",
			fg(idealVol), lk[0], lk[1]),
		Header: []string{"plan", "N1 coef", "N2 coef", "ratio-to-ideal", "V(F)", "min plane dist", "r*"},
	}
	names := []string{"(a)", "(b)", "(c)"}
	plans := Table2Plans()
	for _, name := range names {
		p := plans[name]
		ln := p.NodeCoef(lm.Coef)
		w, err := feasible.Weights(ln, c, lk)
		if err != nil {
			return nil, err
		}
		ratio, err := feasible.ExactRatio(w, nil)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			name,
			ln.Row(0).String(),
			ln.Row(1).String(),
			f4(ratio),
			fg(ratio*idealVol),
			f4(feasible.MinPlaneDistance(w)),
			f4(feasible.IdealPlaneDistance(2)),
		)
	}
	return t, nil
}
