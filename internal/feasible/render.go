package feasible

import (
	"fmt"
	"strings"

	"rodsp/internal/mat"
)

// RenderASCII draws a two-variable system's normalized feasible region as a
// text plot over [0,1]² — the picture Figures 3, 5 and 6 of the paper draw:
// '#' marks feasible points, '·' points inside the ideal simplex that the
// plan wastes, and ' ' points beyond the ideal hyperplane that no plan can
// reach. The origin sits bottom-left; the x-axis is variable 0.
func RenderASCII(w *mat.Matrix, width, height int) string {
	if w.Cols != 2 {
		panic(fmt.Sprintf("feasible: RenderASCII needs d=2, got %d", w.Cols))
	}
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	var b strings.Builder
	pan := packPanels(w)
	x := make(mat.Vec, 2)
	for row := height - 1; row >= 0; row-- {
		x[1] = (float64(row) + 0.5) / float64(height)
		b.WriteByte('|')
		for col := 0; col < width; col++ {
			x[0] = (float64(col) + 0.5) / float64(width)
			switch ok, _ := pairFits(pan, x, x); {
			case x[0]+x[1] > 1:
				b.WriteByte(' ')
			case ok:
				b.WriteByte('#')
			default:
				b.WriteString("·")
			}
		}
		b.WriteByte('\n')
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	return b.String()
}
