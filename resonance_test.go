package resonance

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTable1SupplyCharacteristics(t *testing.T) {
	p := Table1Supply()
	if math.Abs(p.ResonantFrequency()-100e6) > 1e6 {
		t.Errorf("resonant frequency %g", p.ResonantFrequency())
	}
	cb := p.ResonanceBandCycles()
	if cb.Lo != 84 || cb.Hi != 119 {
		t.Errorf("band %d-%d, want 84-119", cb.Lo, cb.Hi)
	}
}

func TestCalibrateSupply(t *testing.T) {
	cal, err := CalibrateSupply(Section2Supply())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Section 2 worked example: threshold 10 A, band-edge
	// tolerance 13 A, repetition tolerance 6.
	if cal.ThresholdAmps != 10 {
		t.Errorf("threshold %g, want 10", cal.ThresholdAmps)
	}
	if cal.BandEdgeToleranceAmps != 13 {
		t.Errorf("band-edge tolerance %g, want 13", cal.BandEdgeToleranceAmps)
	}
	if cal.MaxRepetitionTolerance != 6 {
		t.Errorf("repetition tolerance %d, want 6", cal.MaxRepetitionTolerance)
	}
}

func TestAppsExposed(t *testing.T) {
	if len(Apps()) != 26 {
		t.Errorf("%d apps", len(Apps()))
	}
	app, err := AppByName("lucas")
	if err != nil || !app.PaperViolating {
		t.Errorf("lucas lookup: %v %v", app.Params.Name, err)
	}
}

func TestSimulateBase(t *testing.T) {
	res, err := Simulate(SimulationSpec{App: "gzip", Instructions: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "gzip" || res.Technique != "base" {
		t.Errorf("labels %s/%s", res.App, res.Technique)
	}
	if res.Instructions != 50_000 || res.IPC <= 0 {
		t.Errorf("run incomplete: %+v", res)
	}
}

func TestSimulateEveryTechnique(t *testing.T) {
	for _, kind := range []TechniqueKind{TechniqueNone, TechniqueTuning, TechniqueVoltageControl, TechniqueDamping} {
		res, err := Simulate(SimulationSpec{App: "swim", Instructions: 40_000, Technique: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Cycles == 0 {
			t.Errorf("%s: no cycles", kind)
		}
	}
	if _, err := Simulate(SimulationSpec{App: "swim", Technique: "warpdrive"}); err == nil {
		t.Error("unknown technique accepted")
	}
	if _, err := Simulate(SimulationSpec{App: "nosuchapp"}); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestSimulateWithTrace(t *testing.T) {
	spec := SimulationSpec{App: "parser", Instructions: 20_000, Technique: TechniqueTuning}
	n := 0
	res, err := SimulateTraced(spec, func(TracePoint) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if uint64(n) != res.Cycles {
		t.Errorf("trace saw %d cycles, result says %d", n, res.Cycles)
	}
	if want, err := Simulate(spec); err != nil || res != want {
		t.Errorf("traced result %+v differs from Simulate's %+v (%v)", res, want, err)
	}
}

func TestDefaultTuningConfigMatchesPaper(t *testing.T) {
	cfg := DefaultTuningConfig(100)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Detector.ThresholdAmps != 32 || cfg.Detector.MaxRepetitionTolerance != 4 {
		t.Errorf("detector %+v", cfg.Detector)
	}
	if cfg.InitialResponseThreshold != 2 || cfg.SecondResponseThreshold != 3 {
		t.Errorf("thresholds %d/%d", cfg.InitialResponseThreshold, cfg.SecondResponseThreshold)
	}
	if cfg.SecondResponseCycles != 35 {
		t.Errorf("second response %d, want 35", cfg.SecondResponseCycles)
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	if len(Experiments()) != 14 {
		t.Errorf("%d experiments", len(Experiments()))
	}
	rep, err := RunExperiment("fig1c", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fig1c" || rep.Text == "" {
		t.Error("fig1c report incomplete")
	}
	if _, err := RunExperiment("nope", Options{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRecordAndReplayWorkload(t *testing.T) {
	var buf bytes.Buffer
	n, err := RecordWorkload(&buf, "swim", 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 60_000 {
		t.Fatalf("recorded %d instructions", n)
	}
	replayed, err := ReplayWorkload(bytes.NewReader(buf.Bytes()), TechniqueNone)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Simulate(SimulationSpec{App: "swim", Instructions: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Cycles != direct.Cycles || replayed.Violations != direct.Violations {
		t.Errorf("replayed run (%d cycles, %d viol) differs from direct (%d, %d)",
			replayed.Cycles, replayed.Violations, direct.Cycles, direct.Violations)
	}
	// Replay under a technique also works.
	tuned, err := ReplayWorkload(bytes.NewReader(buf.Bytes()), TechniqueTuning)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Technique != "resonance-tuning" {
		t.Errorf("technique label %q", tuned.Technique)
	}
	if _, err := ReplayWorkload(bytes.NewReader([]byte("junk")), TechniqueNone); err == nil {
		t.Error("junk trace accepted")
	}
	if _, err := RecordWorkload(&buf, "nosuchapp", 10); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestFiguresExposed(t *testing.T) {
	rep, err := RunExperiment("fig1c", Options{})
	if err != nil {
		t.Fatal(err)
	}
	figs := Figures(rep)
	if len(figs) == 0 {
		t.Error("no figures for fig1c")
	}
	for k, svg := range figs {
		if !strings.Contains(svg, "</svg>") {
			t.Errorf("%s: malformed SVG", k)
		}
	}
}

func TestAutoTuningConfig(t *testing.T) {
	cfg, err := AutoTuningConfig(Table1Supply(), Table1System().CPU, 100)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Detector.HalfPeriodLo != 42 || cfg.Detector.HalfPeriodHi != 60 {
		t.Errorf("auto band %d-%d, want 42-60", cfg.Detector.HalfPeriodLo, cfg.Detector.HalfPeriodHi)
	}
	// Calibrated threshold lands near the paper's 32 A.
	if cfg.Detector.ThresholdAmps < 28 || cfg.Detector.ThresholdAmps > 38 {
		t.Errorf("auto threshold %g", cfg.Detector.ThresholdAmps)
	}
	if cfg.Detector.MaxRepetitionTolerance != 4 {
		t.Errorf("auto tolerance %d, want 4", cfg.Detector.MaxRepetitionTolerance)
	}
	// The auto config actually works end to end.
	res, err := Simulate(SimulationSpec{
		App: "swim", Instructions: 150_000,
		Technique: TechniqueTuning, Tuning: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Simulate(SimulationSpec{App: "swim", Instructions: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	if base.Violations > 0 && res.Violations > base.Violations/2 {
		t.Errorf("auto config left %d of %d violations", res.Violations, base.Violations)
	}

	// An overdesigned supply is reported as such.
	big := Table1Supply()
	big.C *= 10
	if _, err := AutoTuningConfig(big, Table1System().CPU, 100); err == nil {
		t.Error("overdesigned supply accepted")
	}
}

func TestEnergyBreakdown(t *testing.T) {
	spec := SimulationSpec{App: "gzip", Instructions: 40_000}
	var points uint64
	rows, res, err := EnergyBreakdown(spec, func(tp TracePoint) {
		if tp.Cycle != points {
			t.Fatalf("trace point %d is cycle %d", points, tp.Cycle)
		}
		points++
	})
	if err != nil {
		t.Fatal(err)
	}
	// The breakdown's run is the run Simulate makes, and the trace sees
	// every cycle of it.
	want, err := Simulate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res != want {
		t.Errorf("breakdown run %+v, Simulate %+v", res, want)
	}
	if points != res.Cycles {
		t.Errorf("trace received %d points over %d cycles", points, res.Cycles)
	}
	if len(rows) < 10 {
		t.Fatalf("only %d rows", len(rows))
	}
	if rows[0].Unit != "floor" {
		t.Errorf("largest consumer %q, want the ungated floor", rows[0].Unit)
	}
	var pct float64
	for i, r := range rows {
		if r.Joules < 0 || r.Percent < 0 {
			t.Errorf("row %d negative", i)
		}
		if i > 0 && r.Joules > rows[i-1].Joules {
			t.Error("rows not sorted by consumption")
		}
		pct += r.Percent
	}
	// All accounted energy is within a spreading-ring residue of 100%.
	if pct < 99 || pct > 100.5 {
		t.Errorf("breakdown covers %.1f%% of total energy", pct)
	}
	if _, _, err := EnergyBreakdown(SimulationSpec{App: "nope"}, nil); err == nil {
		t.Error("unknown app accepted")
	}
}

// TestEnergyBreakdownHonoursSpec: the breakdown runs the spec it is
// given, technique included, so its rows add up to the energy Simulate
// reports for that spec, phantom operations among them.
func TestEnergyBreakdownHonoursSpec(t *testing.T) {
	spec := SimulationSpec{App: "swim", Instructions: 60_000, Technique: TechniqueTuning}
	res, err := Simulate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := EnergyBreakdown(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	phantom := false
	for _, r := range rows {
		sum += r.Joules
		phantom = phantom || r.Unit == "phantom"
	}
	if !phantom || res.PhantomJ == 0 {
		t.Errorf("no phantom row (run phantom energy %g J)", res.PhantomJ)
	}
	if rel := math.Abs(sum-res.EnergyJ) / res.EnergyJ; rel > 0.005 {
		t.Errorf("rows sum to %g J, Simulate reports %g J (%.2f%% apart)", sum, res.EnergyJ, 100*rel)
	}
}

// TestPostmortemUsesNetworkMargin: bursts are measured against the noise
// margin of the network the spec simulates, so on the Section 2.1
// package (2.0 V, 0.1 V margin) every burst peaks above 0.1 V.
func TestPostmortemUsesNetworkMargin(t *testing.T) {
	supply := Section2Supply()
	spec := SimulationSpec{App: "lucas", Instructions: 250_000,
		PDN: &NetworkConfig{Kind: "lumped", Lumped: &supply}}
	reps, res, err := Postmortem(spec, 2, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 || len(reps) == 0 {
		t.Fatalf("no violations (%d) or bursts (%d) to check", res.Violations, len(reps))
	}
	margin := supply.NoiseMarginVolts()
	var covered uint64
	for _, r := range reps {
		if r.PeakDeviationV <= margin {
			t.Errorf("burst at cycle %d peaks at %.4f V, inside the %.3f V margin", r.StartCycle, r.PeakDeviationV, margin)
		}
		covered += r.EndCycle - r.StartCycle + 1
	}
	if covered < res.Violations {
		t.Errorf("bursts cover %d cycles, %d violations counted", covered, res.Violations)
	}
}

func TestPostmortemFacade(t *testing.T) {
	reps, res, err := Postmortem(SimulationSpec{App: "lucas", Instructions: 250_000}, 2, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Fatal("no violations on base lucas")
	}
	if len(reps) == 0 {
		t.Fatal("no burst reports")
	}
	var covered uint64
	for _, r := range reps {
		covered += r.EndCycle - r.StartCycle + 1
	}
	if covered < res.Violations {
		t.Errorf("bursts cover %d cycles, %d violations counted", covered, res.Violations)
	}
}
