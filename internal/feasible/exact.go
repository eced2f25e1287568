package feasible

import (
	"math"
	"math/bits"
	"slices"

	"rodsp/internal/mat"
)

// exactTol is ExactRatio's one geometric tolerance, in the coordinates of
// the standard simplex with every constraint row scaled to a largest entry
// of 1: a point is feasible when no constraint exceeds its bound by more,
// lies on a constraint when it misses equality by at most this much, and
// two vertices are one when no coordinate differs by more.
const exactTol = 1e-10

// pivotMin is the smallest pivot ExactRatio's elimination accepts; a
// d-subset of constraints with a smaller one has no single vertex.
const pivotMin = 1e-12

// ExactRatio computes |F(W)| / |F*| exactly for any d: the volume of the
// polytope {x ≥ lb, Σx ≤ 1, W x ≤ 1} over that of the ideal region
// {x ≥ lb, Σx ≤ 1} (Section 6.1; a nil lb is the origin). The map
// y = (x − lb)/(1 − Σlb) turns the ideal region into the standard simplex,
// whose volume is 1/d!, so the ratio is d!·vol, the sum of |det| over a
// triangulation of the mapped polytope.
//
// The vertices are the feasible solutions of every d-subset of the
// d + 1 + n constraints. Each constraint records the vertices on it, and a
// face is the set of vertices it holds: the facets of a face are its
// inclusion-maximal proper subsets "face ∩ on constraint j", so coincident
// planes give one facet and a vertex on more than d planes needs no
// special case. A pulling triangulation cones every facet that misses a
// face's first vertex to that vertex, down to single vertices.
//
// A malformed lb is an error, as in RatioToIdealFrom; an empty region
// (Σlb ≥ 1) or an empty polytope is a ratio of 0. The cost grows as
// C(d+1+n, d) eliminations plus the triangulation: microseconds at d = 2,
// milliseconds at d = 6 with 10 rows.
func ExactRatio(w *mat.Matrix, lb mat.Vec) (float64, error) {
	scale, err := boundScale(w.Cols, lb)
	if err != nil || scale <= 0 {
		return 0, err
	}
	p := newPolytope(w, lb, scale)
	p.enumerate()
	if len(p.verts) == 0 {
		return 0, nil
	}
	all := make(vset, (len(p.verts)+63)/64)
	for v := range p.verts {
		all.add(v)
	}
	p.markOn(len(all))
	return p.cone(all, make([]int, 0, w.Cols+1)), nil
}

// polytope is one ExactRatio call's state: the constraints a_j·y ≤ b_j in
// simplex coordinates, the vertices found, and per constraint the set of
// vertices on it.
type polytope struct {
	d     int
	a     []mat.Vec
	b     []float64
	verts []mat.Vec
	on    []vset
	m     []float64 // elimination scratch, d×(d+1)
	stack []uint64  // the vertex sets facets returns, popped by cone
}

// newPolytope writes the constraints in y = (x − lb)/scale: −y_k ≤ 0,
// Σy ≤ 1 and scale·W_i·y ≤ 1 − W_i·lb.
func newPolytope(w *mat.Matrix, lb mat.Vec, scale float64) *polytope {
	d := w.Cols
	p := &polytope{d: d, m: make([]float64, d*(d+1))}
	ideal := make([]float64, d)
	for k := range ideal {
		ideal[k] = 1
		axis := make([]float64, d)
		axis[k] = -1
		p.add(axis, 0)
	}
	p.add(ideal, 1)
	for i := 0; i < w.Rows; i++ {
		c := 0.0
		if lb != nil {
			c = lb.Dot(w.Row(i))
		}
		p.add(w.Row(i).Scale(scale), 1-c)
	}
	return p
}

// add appends a_j·y ≤ b_j scaled to a largest |a_jk| of 1. A zero row
// (b = 1, since W_i·lb = 0) bounds nothing and is left out.
func (p *polytope) add(a mat.Vec, b float64) {
	big := 0.0
	for _, v := range a {
		big = math.Max(big, math.Abs(v))
	}
	if big == 0 {
		return
	}
	for k := range a {
		a[k] /= big
	}
	p.a, p.b = append(p.a, a), append(p.b, b/big)
}

// enumerate solves every d-subset of the constraints, in lexicographic
// order, and keeps each feasible solution once.
func (p *polytope) enumerate() {
	d, n := p.d, len(p.a)
	if n < d {
		return
	}
	idx, y := make([]int, d), mat.NewVec(d)
	for i := range idx {
		idx[i] = i
	}
	for {
		if p.solve(idx, y) && p.feasible(y) && !slices.ContainsFunc(p.verts, func(v mat.Vec) bool { return v.Equal(y, exactTol) }) {
			p.verts = append(p.verts, y.Clone())
		}
		i := d - 1
		for i >= 0 && idx[i] == n-d+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < d; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// solve sets y to the solution of a_j·y = b_j for j in idx and reports
// whether there is exactly one.
func (p *polytope) solve(idx []int, y mat.Vec) bool {
	d, m := p.d, p.m
	for r, j := range idx {
		copy(m[r*(d+1):], p.a[j])
		m[r*(d+1)+d] = p.b[j]
	}
	if _, ok := eliminate(m, d, d+1, pivotMin); !ok {
		return false
	}
	for r := d - 1; r >= 0; r-- {
		s := m[r*(d+1)+d]
		for k := r + 1; k < d; k++ {
			s -= m[r*(d+1)+k] * y[k]
		}
		y[r] = s / m[r*(d+1)+r]
	}
	return true
}

// eliminate makes the first rows columns of the row-major rows×cols m
// upper triangular by Gaussian elimination with partial pivoting, and
// returns the product of the pivots: ± the determinant of that square.
// It fails at the first pivot of magnitude ≤ minPivot (or NaN).
func eliminate(m []float64, rows, cols int, minPivot float64) (float64, bool) {
	det := 1.0
	for c := 0; c < rows; c++ {
		piv := c
		for r := c + 1; r < rows; r++ {
			if math.Abs(m[r*cols+c]) > math.Abs(m[piv*cols+c]) {
				piv = r
			}
		}
		if !(math.Abs(m[piv*cols+c]) > minPivot) {
			return 0, false
		}
		for k := 0; k < cols; k++ {
			m[c*cols+k], m[piv*cols+k] = m[piv*cols+k], m[c*cols+k]
		}
		det *= m[c*cols+c]
		for r := c + 1; r < rows; r++ {
			f := m[r*cols+c] / m[c*cols+c]
			for k := c; k < cols; k++ {
				m[r*cols+k] -= f * m[c*cols+k]
			}
		}
	}
	return det, true
}

// feasible reports whether y satisfies every constraint within exactTol;
// NaN satisfies none.
func (p *polytope) feasible(y mat.Vec) bool {
	for j, a := range p.a {
		if !(a.Dot(y)-p.b[j] <= exactTol) {
			return false
		}
	}
	return true
}

// markOn records, per constraint, the vertices within exactTol of it.
func (p *polytope) markOn(words int) {
	p.on = make([]vset, len(p.a))
	for j, a := range p.a {
		p.on[j] = make(vset, words)
		for v, y := range p.verts {
			if math.Abs(a.Dot(y)-p.b[j]) <= exactTol {
				p.on[j].add(v)
			}
		}
	}
}

// cone returns d!·vol of the pulling triangulation of face coned to the
// apexes in chain: the face's first vertex is pulled, and each facet that
// misses it is coned in turn. A chain that ends short of d + 1 vertices
// spans no volume.
func (p *polytope) cone(face vset, chain []int) float64 {
	v0 := face.first()
	chain = append(chain, v0)
	if face.count() == 1 {
		if len(chain) == p.d+1 {
			return p.simplexDet(chain)
		}
		return 0
	}
	mark, sum := len(p.stack), 0.0
	for _, g := range p.facets(face) {
		if !g.has(v0) {
			sum += p.cone(g, chain)
		}
	}
	p.stack = p.stack[:mark]
	return sum
}

// facets returns the inclusion-maximal non-empty proper subsets of face
// that lie on one constraint, each once. The sets are pushed on p.stack;
// growing it moves later pushes, never the sets already returned.
func (p *polytope) facets(face vset) []vset {
	var cand, out []vset
	n := face.count()
	for _, on := range p.on {
		at := len(p.stack)
		p.stack = append(p.stack, face...)
		g := vset(p.stack[at:len(p.stack):len(p.stack)])
		for i := range g {
			g[i] &= on[i]
		}
		if c := g.count(); c > 0 && c < n {
			cand = append(cand, g)
		} else {
			p.stack = p.stack[:at]
		}
	}
	// Larger sets first, so a set inside no earlier one is maximal.
	slices.SortStableFunc(cand, func(a, b vset) int { return b.count() - a.count() })
	for _, g := range cand {
		if !slices.ContainsFunc(out, g.subsetOf) {
			out = append(out, g)
		}
	}
	return out
}

// simplexDet is |det(v_1 − v_0, …, v_d − v_0)| over the chain's vertices:
// d! times the volume of their simplex.
func (p *polytope) simplexDet(chain []int) float64 {
	d, v0 := p.d, p.verts[chain[0]]
	for r, v := range chain[1:] {
		for k, x := range p.verts[v] {
			p.m[r*d+k] = x - v0[k]
		}
	}
	det, _ := eliminate(p.m, d, d, 0)
	return math.Abs(det)
}

// vset is a set of vertex indices, one bit each.
type vset []uint64

func (s vset) add(v int)      { s[v/64] |= 1 << (v % 64) }
func (s vset) has(v int) bool { return s[v/64]&(1<<(v%64)) != 0 }

func (s vset) subsetOf(t vset) bool {
	for i := range s {
		if s[i]&^t[i] != 0 {
			return false
		}
	}
	return true
}

func (s vset) count() int {
	n := 0
	for _, x := range s {
		n += bits.OnesCount64(x)
	}
	return n
}

// first is the lowest index in s, or −1 when s is empty.
func (s vset) first() int {
	for i, x := range s {
		if x != 0 {
			return i*64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}
