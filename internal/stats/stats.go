// Package stats provides small numeric and text-table helpers used by the
// experiment harness to report results in the shape of the paper's tables
// and figures.
package stats

import (
	"fmt"
	"strings"
)

// Speedup returns base/measured (how many times faster measured is than
// base), or 0 when measured is zero.
func Speedup(base, measured int64) float64 {
	if measured == 0 {
		return 0
	}
	return float64(base) / float64(measured)
}

// Min returns the minimum of a non-empty slice (0 for an empty one).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of a non-empty slice (0 for an empty one).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Normalize divides every element by the slice minimum, the normalisation
// used by Figure 8 ("execution time normalized to best"). A nil slice or a
// zero minimum yields nil.
func Normalize(xs []float64) []float64 {
	m := Min(xs)
	if m == 0 || len(xs) == 0 {
		return nil
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / m
	}
	return out
}

// Table accumulates rows of strings and renders them with aligned columns,
// which is how cmd/experiments prints the regenerated tables and figure
// series.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped, missing
// cells are left blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
