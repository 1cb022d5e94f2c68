// Package metrics aggregates per-application simulation results into the
// relative quantities the paper's tables report: relative slowdown
// (technique cycles over base cycles for the same instruction count),
// relative energy, and relative energy-delay, plus the summary columns of
// Tables 3-5 (average, worst application, number of applications above a
// slowdown threshold).
package metrics

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Relative holds one application's technique-vs-base comparison.
type Relative struct {
	App string
	// Slowdown is techniqueCycles / baseCycles (≥ 1 in practice).
	Slowdown float64
	// Energy is techniqueEnergy / baseEnergy.
	Energy float64
	// EnergyDelay is the relative energy-delay product.
	EnergyDelay float64
	// BaseViolations and TechViolations count noise-margin violations.
	BaseViolations uint64
	TechViolations uint64
}

// Compare matches base and technique results by application name and
// computes the relative metrics. Results missing from either side are
// skipped; an error is returned if nothing matches or instruction counts
// disagree.
func Compare(base, tech []sim.Result) ([]Relative, error) {
	byApp := make(map[string]sim.Result, len(base))
	for _, b := range base {
		byApp[b.App] = b
	}
	var out []Relative
	for _, tr := range tech {
		b, ok := byApp[tr.App]
		if !ok {
			continue
		}
		if b.Instructions != tr.Instructions {
			return nil, fmt.Errorf("metrics: %s ran %d instructions under %s but %d at base",
				tr.App, tr.Instructions, tr.Technique, b.Instructions)
		}
		if b.Cycles == 0 || b.EnergyJ == 0 {
			return nil, fmt.Errorf("metrics: degenerate base run for %s", tr.App)
		}
		slow := float64(tr.Cycles) / float64(b.Cycles)
		energy := tr.EnergyJ / b.EnergyJ
		out = append(out, Relative{
			App:            tr.App,
			Slowdown:       slow,
			Energy:         energy,
			EnergyDelay:    energy * slow,
			BaseViolations: b.Violations,
			TechViolations: tr.Violations,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("metrics: no matching applications between base and technique runs")
	}
	return out, nil
}

// Summary condenses per-application relatives into the Tables 3-5 columns.
type Summary struct {
	AvgSlowdown    float64
	AvgEnergy      float64
	AvgEnergyDelay float64
	WorstSlowdown  float64
	WorstApp       string
	// Over15 counts applications with more than 15% slowdown (the
	// "apps with > 15%" column of Table 3).
	Over15 int
	// BaseViolations and TechViolations are summed across apps.
	BaseViolations uint64
	TechViolations uint64
}

// Summarize averages the relative metrics (arithmetic mean across
// applications, as the paper reports).
func Summarize(rels []Relative) Summary {
	var s Summary
	if len(rels) == 0 {
		return s
	}
	for _, r := range rels {
		s.AvgSlowdown += r.Slowdown
		s.AvgEnergy += r.Energy
		s.AvgEnergyDelay += r.EnergyDelay
		if r.Slowdown > s.WorstSlowdown {
			s.WorstSlowdown = r.Slowdown
			s.WorstApp = r.App
		}
		if r.Slowdown > 1.15 {
			s.Over15++
		}
		s.BaseViolations += r.BaseViolations
		s.TechViolations += r.TechViolations
	}
	n := float64(len(rels))
	s.AvgSlowdown /= n
	s.AvgEnergy /= n
	s.AvgEnergyDelay /= n
	return s
}

// Table is a minimal fixed-width text table for experiment reports.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
