// Package stats provides the text-table and figure rendering used to
// report every experiment in the paper's evaluation section.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Table renders aligned text tables in the style of the paper.
type Table struct {
	title  string
	header []string
	rows   [][]string
}

// NewTable returns a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends a row of cells. Rows shorter than the header are padded.
func (t *Table) AddRow(cells ...string) {
	row := append([]string(nil), cells...)
	for len(row) < len(t.header) {
		row = append(row, "")
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row, applying fmt.Sprintf("%v") to each cell value.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, fmt.Sprintf("%.2f", v))
		default:
			row = append(row, fmt.Sprintf("%v", v))
		}
	}
	t.AddRow(row...)
}

// NumRows reports the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a named (x, y) sequence, used to render the paper's figures
// as text: one line per point.
type Series struct {
	Name   string
	Points []Point
}

// Point is one (x, y) sample of a figure series.
type Point struct {
	X float64
	Y float64
}

// Add appends a point to the series.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Figure is a collection of series sharing axes, rendered as text.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	series []*Series
}

// NewFigure returns an empty figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// Series returns the named series, creating it on first use.
func (f *Figure) Series(name string) *Series {
	for _, s := range f.series {
		if s.Name == name {
			return s
		}
	}
	s := &Series{Name: name}
	f.series = append(f.series, s)
	return s
}

// SeriesNames reports the series names in creation order.
func (f *Figure) SeriesNames() []string {
	names := make([]string, len(f.series))
	for i, s := range f.series {
		names[i] = s.Name
	}
	return names
}

// String renders the figure as a text table: one row per x value, one
// column per series.
func (f *Figure) String() string {
	xs := map[float64]bool{}
	for _, s := range f.series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	header := []string{f.XLabel}
	for _, s := range f.series {
		header = append(header, s.Name)
	}
	tbl := NewTable(fmt.Sprintf("%s (y = %s)", f.Title, f.YLabel), header...)
	for _, x := range sorted {
		row := []string{trimFloat(x)}
		for _, s := range f.series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					cell = fmt.Sprintf("%.4f", p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		tbl.AddRow(row...)
	}
	return tbl.String()
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.4f", x)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
