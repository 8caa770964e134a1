// Package textio renders the experiment outputs: aligned text tables for
// terminals, CSV for downstream plotting, and simple ASCII line charts for
// eyeballing the Figure-5 sweeps without leaving the shell.
package textio

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table accumulates rows and renders them column-aligned.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells and long
// rows panic (a programming error).
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		panic(fmt.Sprintf("textio: row has %d cells, table has %d columns", len(cells), len(t.header)))
	}
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.rows {
		for i, c := range row {
			if n := len([]rune(c)); n > widths[i] {
				widths[i] = n
			}
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len([]rune(c))))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(t.header); err != nil {
		return err
	}
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// Write writes the table to w as CSV when csv is set, else aligned.
func (t *Table) Write(w io.Writer, csv bool) error {
	if csv {
		return t.CSV(w)
	}
	return t.Render(w)
}

// CSV writes the table as comma-separated values (cells containing commas
// or quotes are quoted per RFC 4180).
func (t *Table) CSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			out[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if err := writeRow(t.header); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// F formats a float with the given precision, rendering NaN as "—" and
// ±Inf as "inf"/"-inf".
func F(x float64, prec int) string {
	switch {
	case math.IsNaN(x):
		return "—"
	case math.IsInf(x, 1):
		return "inf"
	case math.IsInf(x, -1):
		return "-inf"
	}
	return fmt.Sprintf("%.*f", prec, x)
}

// Pct formats a fraction as a percentage with two decimals ("99.95%").
func Pct(x float64) string {
	if math.IsNaN(x) {
		return "—"
	}
	return fmt.Sprintf("%.2f%%", 100*x)
}

// Series is a named line for Chart.
type Series struct {
	Name string
	Y    []float64
}

// Chart renders an ASCII line chart of one or more series over shared X
// values.  Each series is drawn with its own marker; NaN points are
// skipped.  The chart is height rows tall and one column per X value
// (plus axis labels).
func Chart(w io.Writer, title string, xs []float64, height int, series ...Series) error {
	if height < 2 {
		height = 8
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, y := range s.Y {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				continue
			}
			lo = math.Min(lo, y)
			hi = math.Max(hi, y)
		}
	}
	if math.IsInf(lo, 1) {
		return fmt.Errorf("textio: chart %q has no finite points", title)
	}
	if hi == lo {
		hi = lo + 1
	}
	markers := []byte{'*', 'o', '+', 'x', '#', '@'}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", len(xs)))
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i, y := range s.Y {
			if i >= len(xs) || math.IsNaN(y) || math.IsInf(y, 0) {
				continue
			}
			r := int(math.Round((hi - y) / (hi - lo) * float64(height-1)))
			grid[r][i] = m
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	for r, row := range grid {
		label := ""
		switch r {
		case 0:
			label = fmt.Sprintf("%8.3f", hi)
		case height - 1:
			label = fmt.Sprintf("%8.3f", lo)
		default:
			label = strings.Repeat(" ", 8)
		}
		if _, err := fmt.Fprintf(w, "%s |%s\n", label, string(row)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", len(xs))); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s  x: %.3g … %.3g\n", strings.Repeat(" ", 8), xs[0], xs[len(xs)-1]); err != nil {
		return err
	}
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", markers[si%len(markers)], s.Name))
	}
	_, err := fmt.Fprintf(w, "%s  %s\n", strings.Repeat(" ", 8), strings.Join(legend, "  "))
	return err
}
