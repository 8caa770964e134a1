package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"sort"

	"safeplan/internal/campaign"
	"safeplan/internal/workloads"
)

// checkedRow is the part of one report row that -check compares: the
// campaign's stats, plus the certified-range columns of a certification
// row.  Everything else in a report (timings, host, worker count) is
// left out.
type checkedRow struct {
	CertifiedSteps       *int64          `json:"certified_steps,omitempty"`
	CertifiedRangeMisses *int64          `json:"certified_range_misses,omitempty"`
	CertWidthMean        *float64        `json:"cert_width_mean,omitempty"`
	CertWidthMax         *float64        `json:"cert_width_max,omitempty"`
	Stats                json.RawMessage `json:"stats"`
}

// committedReport is the layout both checked files share; a campaign row
// is either a campaign.Report (cmd/bench) or an ibpCampaignReport
// (cmd/bench -ibp).
type committedReport struct {
	GeneratedBy         string `json:"generated_by"`
	EpisodesPerCampaign int    `json:"episodes_per_campaign"`
	BaseSeed            int64  `json:"base_seed"`
	Campaigns           []struct {
		Name     string `json:"name"`
		Design   string `json:"design"`
		Episodes int    `json:"episodes"`
		BaseSeed int64  `json:"base_seed"`
		checkedRow
		Report *struct {
			Stats json.RawMessage `json:"stats"`
		} `json:"report"`
	} `json:"campaigns"`
}

// runCheck is the -check mode: it reruns every campaign the report at
// path records, from its recorded size and seed on w workers (Stats do
// not depend on the worker count), and compares each campaign's checked
// row with the committed one byte for byte.  It logs one line per
// campaign and fails naming every campaign and field that differs.
func runCheck(path string, w int, modelDir string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep committedReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Campaigns) == 0 {
		return fmt.Errorf("%s: no campaigns to check", path)
	}

	committed := map[string]checkedRow{}
	rerun := map[string]checkedRow{}
	var order []string
	switch rep.GeneratedBy {
	case "cmd/bench":
		for _, c := range rep.Campaigns {
			wl, err := workloads.Lookup(c.Name)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			r, err := campaign.Run(matrixSpec(wl, c.Episodes, w, c.BaseSeed), wl.Episode())
			if err != nil {
				return fmt.Errorf("campaign %s: %w", c.Name, err)
			}
			stats, err := json.Marshal(r.Stats)
			if err != nil {
				return err
			}
			order = append(order, c.Name)
			committed[c.Name] = checkedRow{Stats: c.Stats}
			rerun[c.Name] = checkedRow{Stats: stats}
		}
	case "cmd/bench -ibp":
		for _, c := range rep.Campaigns {
			if c.Report == nil {
				return fmt.Errorf("%s: design %s has no report", path, c.Design)
			}
			row := c.checkedRow
			row.Stats = c.Report.Stats
			order = append(order, c.Design)
			committed[c.Design] = row
		}
		for _, c := range ibpSweep(rep.EpisodesPerCampaign, w, rep.BaseSeed, modelDir).Campaigns {
			stats, err := json.Marshal(c.Report.Stats)
			if err != nil {
				return err
			}
			rerun[c.Design] = checkedRow{
				CertifiedSteps:       &c.CertifiedSteps,
				CertifiedRangeMisses: &c.CertifiedRangeMisses,
				CertWidthMean:        &c.CertWidthMean,
				CertWidthMax:         &c.CertWidthMax,
				Stats:                stats,
			}
		}
	default:
		return fmt.Errorf("%s: cannot check a report generated by %q (only cmd/bench and cmd/bench -ibp)", path, rep.GeneratedBy)
	}

	bad := 0
	for _, name := range order {
		got, ok := rerun[name]
		if !ok {
			log.Printf("MISMATCH %s: the rerun has no such campaign", name)
			bad++
			continue
		}
		if diffs := diffRows(committed[name], got); len(diffs) > 0 {
			for _, d := range diffs {
				log.Printf("MISMATCH %s: %s", name, d)
			}
			bad++
			continue
		}
		log.Printf("ok %s", name)
	}
	if bad > 0 {
		return fmt.Errorf("%s: %d of %d campaigns differ from the committed stats", path, bad, len(order))
	}
	log.Printf("%s: all %d campaigns match", path, len(order))
	return nil
}

// diffRows compares two checked rows as compact JSON bytes and, when they
// differ, lists each differing field by its path ("stats.eta.mean:
// committed 0.16, rerun 0.17").
func diffRows(want, got checkedRow) []string {
	wb, err := compactJSON(want)
	if err != nil {
		return []string{err.Error()}
	}
	gb, err := compactJSON(got)
	if err != nil {
		return []string{err.Error()}
	}
	if bytes.Equal(wb, gb) {
		return nil
	}
	var wv, gv any
	if err := decodeNumbers(wb, &wv); err != nil {
		return []string{err.Error()}
	}
	if err := decodeNumbers(gb, &gv); err != nil {
		return []string{err.Error()}
	}
	var out []string
	diffValues("", wv, gv, &out)
	if len(out) == 0 {
		out = append(out, "same values, different byte layout")
	}
	return out
}

func compactJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeNumbers decodes JSON keeping every number's exact text.
func decodeNumbers(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	return dec.Decode(v)
}

// diffValues appends one line per leaf that differs between two decoded
// JSON values.
func diffValues(path string, want, got any, out *[]string) {
	field := func(k string) string {
		if path == "" {
			return k
		}
		return path + "." + k
	}
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			break
		}
		keys := map[string]bool{}
		for k := range w {
			keys[k] = true
		}
		for k := range g {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			diffValues(field(k), w[k], g[k], out)
		}
		return
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			break
		}
		for i := range w {
			diffValues(field(fmt.Sprint(i)), w[i], g[i], out)
		}
		return
	}
	if fmt.Sprint(want) != fmt.Sprint(got) {
		*out = append(*out, fmt.Sprintf("%s: committed %v, rerun %v", path, want, got))
	}
}
