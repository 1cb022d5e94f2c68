package metrics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func res(app string, cycles uint64, energy float64, viol uint64) sim.Result {
	return sim.Result{App: app, Cycles: cycles, Instructions: 1000, EnergyJ: energy, Violations: viol}
}

func TestCompareComputesRelatives(t *testing.T) {
	base := []sim.Result{res("a", 1000, 1.0, 5), res("b", 2000, 2.0, 0)}
	tech := []sim.Result{res("a", 1100, 1.05, 0), res("b", 2400, 2.4, 0)}
	rels, err := Compare(base, tech)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 2 {
		t.Fatalf("got %d relatives, want 2", len(rels))
	}
	if math.Abs(rels[0].Slowdown-1.1) > 1e-12 {
		t.Errorf("a slowdown %g, want 1.1", rels[0].Slowdown)
	}
	if math.Abs(rels[0].Energy-1.05) > 1e-12 {
		t.Errorf("a energy %g, want 1.05", rels[0].Energy)
	}
	if math.Abs(rels[0].EnergyDelay-1.155) > 1e-12 {
		t.Errorf("a energy-delay %g, want 1.155", rels[0].EnergyDelay)
	}
	if rels[0].BaseViolations != 5 || rels[0].TechViolations != 0 {
		t.Errorf("violation carry-through wrong: %+v", rels[0])
	}
}

func TestCompareRejectsMismatchedRuns(t *testing.T) {
	base := []sim.Result{res("a", 1000, 1.0, 0)}
	tech := []sim.Result{{App: "a", Cycles: 1100, Instructions: 999, EnergyJ: 1}}
	if _, err := Compare(base, tech); err == nil {
		t.Error("instruction mismatch accepted")
	}
	if _, err := Compare(base, []sim.Result{res("zz", 1, 1, 0)}); err == nil {
		t.Error("disjoint app sets accepted")
	}
	if _, err := Compare([]sim.Result{res("a", 0, 0, 0)}, []sim.Result{res("a", 10, 1, 0)}); err == nil {
		t.Error("degenerate base accepted")
	}
}

func TestSummarize(t *testing.T) {
	rels := []Relative{
		{App: "a", Slowdown: 1.05, Energy: 1.02, EnergyDelay: 1.071, BaseViolations: 3},
		{App: "b", Slowdown: 1.25, Energy: 1.10, EnergyDelay: 1.375, TechViolations: 1},
		{App: "c", Slowdown: 1.10, Energy: 1.05, EnergyDelay: 1.155},
	}
	s := Summarize(rels)
	if math.Abs(s.AvgSlowdown-(1.05+1.25+1.10)/3) > 1e-12 {
		t.Errorf("avg slowdown %g", s.AvgSlowdown)
	}
	if s.WorstApp != "b" || math.Abs(s.WorstSlowdown-1.25) > 1e-12 {
		t.Errorf("worst = %s %g, want b 1.25", s.WorstApp, s.WorstSlowdown)
	}
	if s.Over15 != 1 {
		t.Errorf("over-15%% count %d, want 1", s.Over15)
	}
	if s.BaseViolations != 3 || s.TechViolations != 1 {
		t.Errorf("violation sums %d/%d", s.BaseViolations, s.TechViolations)
	}
	if got := Summarize(nil); got.AvgSlowdown != 0 {
		t.Error("empty summary should be zero")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "Demo", Headers: []string{"name", "value"}}
	tab.AddRow("alpha", 1.2345678)
	tab.AddRow("b", 42)
	out := tab.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "alpha") {
		t.Errorf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), out)
	}
	// Columns align: header and separator have equal length.
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("separator misaligned:\n%s", out)
	}
	if !strings.Contains(out, "1.235") {
		t.Errorf("float formatting missing: %s", out)
	}
}
