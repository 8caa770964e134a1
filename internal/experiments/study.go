package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"safeplan/internal/campaign"
	"safeplan/internal/eval"
	"safeplan/internal/platoon"
	"safeplan/internal/sim"
	"safeplan/internal/textio"
)

// Study is one table or figure of the evaluation.  A campaign study runs
// its Campaign and renders the rows with Columns, or with Chart for a
// sweep; a trace study (Fig. 6a/6b, the RMSE study) runs no campaign and
// renders itself with Trace.
type Study struct {
	ID string
	// Title is the heading printed above the output: a format whose
	// verbs take the episode count, or a trace study's Trace arguments.
	Title string

	Campaign *Campaign
	Columns  []Column
	Chart    *Chart
	Trace    func(seed int64, csv bool) (tb *textio.Table, titleArgs []any, err error)
}

// Campaign is the cells a campaign study runs.  Studies that show two
// projections of the same runs (Fig. 5a/5b: reaching time and emergency
// frequency) share one Campaign, so a caller can run it once for both.
type Campaign struct {
	Cells []Cell
	// Paired marks the paper's Table I–II form: each design's winning %
	// against the ultimate design of its cell, and no emergency
	// frequency for the pure NN, which has no monitor.
	Paired bool
}

// Cell is one row group of a study: a labelled setting or a swept x,
// with the designs that run there on the same seeds.
type Cell struct {
	Label   string
	X       float64
	Designs []Design
}

// Design is one named agent configuration: the episode function a
// campaign runs n times, and the name of the agent it drives.
type Design struct {
	Name    string
	Agent   string
	Episode campaign.EpisodeFunc
}

// Row is one design's statistics at one cell of a study.  Columns that
// do not apply are NaN.
type Row struct {
	Label  string
	X      float64
	Design string
	eval.Stats

	// Winning is the fraction of paired episodes in which the cell's
	// ultimate design beats this one (Paired studies, non-ultimate rows).
	Winning float64
	// MinLinkGap is the smallest bumper gap observed on any platoon
	// follower link across the campaign [m] (chains with follower links).
	MinLinkGap float64
	// MaxAmp is the worst consecutive-link amplification of the peak gap
	// error observed in any episode: max over links ℓ of
	// peak|e_{ℓ+1}| / max(peak|e_ℓ|, floor).  Values at or below
	// 1 + platoon.DefaultAmpTol indicate string-stable behaviour (chains
	// with two or more follower links).
	MaxAmp float64
}

// The three designs every comparison study runs.
const (
	PureNN   = "pure NN"
	Basic    = "basic"
	Ultimate = "ultimate"
)

// Run runs every design of every cell for n episodes from seed — the
// designs of a cell on the same seeds — and returns one Row per cell and
// design, in order.
func (c *Campaign) Run(n int, seed int64) ([]Row, error) {
	var rows []Row
	for _, cell := range c.Cells {
		first := len(rows)
		for _, d := range cell.Designs {
			rs, err := campaign.Results(campaign.Spec{Episodes: n, BaseSeed: seed}, d.Episode)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s x=%v %s: %w", cell.Label, cell.X, d.Name, err)
			}
			rows = append(rows, Row{
				Label:      cell.Label,
				X:          cell.X,
				Design:     d.Name,
				Stats:      eval.Aggregate(rs),
				Winning:    math.NaN(),
				MinLinkGap: minLinkGap(rs),
				MaxAmp:     maxLinkAmplification(rs),
			})
		}
		if c.Paired {
			if err := pair(rows[first:]); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// pair fills the Table I–II columns of one cell's rows.
func pair(rows []Row) error {
	var ult *Row
	for i := range rows {
		if rows[i].Design == Ultimate {
			ult = &rows[i]
		}
	}
	if ult == nil {
		return fmt.Errorf("experiments: paired cell %q has no %s design", rows[0].Label, Ultimate)
	}
	for i := range rows {
		r := &rows[i]
		if r == ult {
			continue
		}
		w, err := eval.WinningPercentage(ult.Etas, r.Etas)
		if err != nil {
			return err
		}
		r.Winning = w
		if r.Design == PureNN {
			r.EmergencyFreq = math.NaN()
		}
	}
	return nil
}

// Column is one column of a study's table: its header and how a row
// fills it.
type Column struct {
	Header string
	Cell   func(Row) string
}

// Chart renders a sweep: one series per design of Metric against the
// cell's x, as an ASCII chart, or as a table in CSV.
type Chart struct {
	XLabel string
	Metric func(Row) float64
}

// Write writes s's heading and output to w, then a blank line: rows as
// Campaign.Run returned them for n episodes, or the trace Trace computes
// from seed; CSV when csv is set, else an aligned table or an ASCII chart.
func (s Study) Write(w io.Writer, rows []Row, n int, seed int64, csv bool) error {
	args := []any{n}
	var tb *textio.Table
	if s.Trace != nil {
		var err error
		if tb, args, err = s.Trace(seed, csv); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, s.Title+"\n", args...); err != nil {
		return err
	}
	switch {
	case tb != nil:
	case s.Chart == nil:
		tb = s.table(rows)
	case csv:
		tb = s.Chart.table(rows)
	default:
		xs, series := s.Chart.series(rows)
		if err := textio.Chart(w, "  x = "+s.Chart.XLabel, xs, 12, series...); err != nil {
			return err
		}
	}
	if tb != nil {
		if err := tb.Write(w, csv); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// table lays rows out in s's columns.
func (s Study) table(rows []Row) *textio.Table {
	header := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		header[i] = c.Header
	}
	tb := textio.NewTable(header...)
	cells := make([]string, len(s.Columns))
	for _, r := range rows {
		for i, c := range s.Columns {
			cells[i] = c.Cell(r)
		}
		tb.AddRow(cells...)
	}
	return tb
}

// table lays a sweep out as its x column and one column per series.
func (c *Chart) table(rows []Row) *textio.Table {
	xs, series := c.series(rows)
	header := []string{c.XLabel}
	for _, sr := range series {
		header = append(header, sr.Name)
	}
	tb := textio.NewTable(header...)
	for i, x := range xs {
		cells := []string{textio.F(x, 3)}
		for _, sr := range series {
			cells = append(cells, textio.F(sr.Y[i], 4))
		}
		tb.AddRow(cells...)
	}
	return tb
}

// series splits a sweep's rows into the x values and one series per
// design, in first-seen order.  The legend drops " NN": "pure".
func (c *Chart) series(rows []Row) ([]float64, []textio.Series) {
	var xs []float64
	var series []textio.Series
	at := map[string]int{}
	for _, r := range rows {
		if len(xs) == 0 || xs[len(xs)-1] != r.X {
			xs = append(xs, r.X)
		}
		i, ok := at[r.Design]
		if !ok {
			i = len(series)
			at[r.Design] = i
			series = append(series, textio.Series{Name: strings.TrimSuffix(r.Design, " NN")})
		}
		series[i].Y = append(series[i].Y, c.Metric(r))
	}
	return xs, series
}

// minLinkGap is the smallest follower-link gap observed anywhere in the
// campaign; NaN when no episode recorded link statistics.
func minLinkGap(rs []sim.Result) float64 {
	m := math.Inf(1)
	for _, r := range rs {
		for _, l := range r.Links {
			m = math.Min(m, l.MinGap)
		}
	}
	if math.IsInf(m, 1) {
		return math.NaN()
	}
	return m
}

// maxLinkAmplification is the worst consecutive-link peak-gap-error ratio
// observed in any episode, floored the same way the string-stability
// invariant floors its comparison so near-zero upstream errors don't
// explode the ratio.
func maxLinkAmplification(rs []sim.Result) float64 {
	m := math.NaN()
	for _, r := range rs {
		for l := 0; l+1 < len(r.Links); l++ {
			amp := r.Links[l+1].PeakGapErr / math.Max(r.Links[l].PeakGapErr, platoon.DefaultFloor)
			if math.IsNaN(m) || amp > m {
				m = amp
			}
		}
	}
	return m
}
