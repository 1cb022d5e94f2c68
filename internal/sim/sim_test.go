package sim

import (
	"math"
	"testing"

	"repro/internal/baselines/damping"
	"repro/internal/baselines/voltctl"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/tuning"
	"repro/internal/workload"
)

func table1Tuning() tuning.Config {
	return tuning.Config{
		Detector: tuning.DetectorConfig{
			HalfPeriodLo: 42, HalfPeriodHi: 60,
			ThresholdAmps: 32, MaxRepetitionTolerance: 4,
		},
		InitialResponseThreshold: 2,
		SecondResponseThreshold:  3,
		InitialResponseCycles:    100,
		SecondResponseCycles:     35,
		ReducedIssueWidth:        4,
		ReducedCachePorts:        1,
		PhantomTargetAmps:        70,
	}
}

func runApp(t *testing.T, name string, insts uint64, tech Technique) Result {
	t.Helper()
	app, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewGenerator(app.Params, insts)
	s, err := New(DefaultConfig(), g, tech)
	if err != nil {
		t.Fatal(err)
	}
	techName := "base"
	if tech != nil {
		techName = tech.Name()
	}
	return s.Run(name, techName)
}

func TestBaseRunProducesSaneResult(t *testing.T) {
	r := runApp(t, "parser", 100_000, nil)
	if r.Instructions != 100_000 {
		t.Errorf("instructions %d, want 100000", r.Instructions)
	}
	if r.IPC < 1.0 || r.IPC > 3.0 {
		t.Errorf("parser IPC %.2f far from Table 2's 1.71", r.IPC)
	}
	if r.MinAmps < 34.9 || r.MaxAmps > 105.1 {
		t.Errorf("current range [%.1f, %.1f] outside the 35-105 A envelope", r.MinAmps, r.MaxAmps)
	}
	if r.EnergyJ <= 0 {
		t.Error("no energy accounted")
	}
	if r.PhantomJ != 0 {
		t.Error("base run should use no phantom energy")
	}
	if r.EnergyDelay(10e9) <= 0 {
		t.Error("energy-delay must be positive")
	}
}

func TestNonViolatingAppStaysClean(t *testing.T) {
	r := runApp(t, "twolf", 150_000, nil)
	if r.Violations != 0 {
		t.Errorf("twolf produced %d violations on the base machine", r.Violations)
	}
}

func TestResonanceTuningPreventsViolations(t *testing.T) {
	// lucas is the heaviest violator; tuning must remove (almost) all
	// of its violations at a modest performance cost.
	base := runApp(t, "lucas", 400_000, nil)
	if base.Violations == 0 {
		t.Fatal("base lucas run shows no violations to prevent")
	}
	tuned := runApp(t, "lucas", 400_000, NewResonanceTuning(table1Tuning()))
	if tuned.Violations > base.Violations/10 {
		t.Errorf("tuning left %d of %d violations", tuned.Violations, base.Violations)
	}
	slowdown := float64(tuned.Cycles) / float64(base.Cycles)
	if slowdown > 1.35 {
		t.Errorf("tuning slowdown %.2f on lucas, want moderate", slowdown)
	}
	if slowdown < 1.0 {
		t.Errorf("tuning speedup %.2f is impossible", slowdown)
	}
}

func TestTuningIdlesOnQuietApp(t *testing.T) {
	tech := NewResonanceTuning(table1Tuning())
	base := runApp(t, "perlbmk", 150_000, nil)
	tuned := runApp(t, "perlbmk", 150_000, tech)
	slowdown := float64(tuned.Cycles) / float64(base.Cycles)
	if slowdown > 1.05 {
		t.Errorf("tuning slows a quiet app by %.1f%%", (slowdown-1)*100)
	}
	st := tech.Stats()
	if st.SecondLevelFraction() > 0.01 {
		t.Errorf("second-level response active %.3f of cycles on a quiet app", st.SecondLevelFraction())
	}
}

func TestVoltageControlRespondsToViolatingApp(t *testing.T) {
	cfg := voltctl.Config{TargetThresholdVolts: 0.020, Seed: 1}
	tech := NewVoltageControl(cfg, 30)
	r := runApp(t, "lucas", 400_000, tech)
	if tech.Stats().ResponseCycles == 0 {
		t.Error("voltage control never responded on lucas")
	}
	base := runApp(t, "lucas", 400_000, nil)
	if r.Violations > base.Violations {
		t.Errorf("voltage control increased violations %d → %d", base.Violations, r.Violations)
	}
}

func TestDampingConstrainsIssue(t *testing.T) {
	tech := NewDamping(damping.Config{WindowCycles: 50, DeltaAmps: 8})
	r := runApp(t, "bzip", 200_000, tech)
	base := runApp(t, "bzip", 200_000, nil)
	if tech.Stats().ConstrainedCyc == 0 {
		t.Error("δ=8 damping never constrained bzip")
	}
	if r.Cycles <= base.Cycles {
		t.Error("damping with tight δ should slow the machine down")
	}
}

func TestTraceCapture(t *testing.T) {
	app, _ := workload.ByName("swim")
	g := workload.NewGenerator(app.Params, 20_000)
	tech := NewResonanceTuning(table1Tuning())
	s, err := New(DefaultConfig(), g, tech)
	if err != nil {
		t.Fatal(err)
	}
	var pts []TracePoint
	s.SetTrace(func(tp TracePoint) { pts = append(pts, tp) }, tech.EventCount, tech.Level)
	res := s.Run("swim", tech.Name())
	if uint64(len(pts)) != res.Cycles {
		t.Fatalf("trace length %d, cycles %d", len(pts), res.Cycles)
	}
	for i, tp := range pts {
		if tp.Cycle != uint64(i) {
			t.Fatalf("trace cycle %d out of order", i)
		}
		if tp.TotalAmps < 34 || tp.TotalAmps > 106 {
			t.Fatalf("trace current %g out of range", tp.TotalAmps)
		}
	}
}

func TestPhantomTargetTopsUp(t *testing.T) {
	// Force the second-level response with a synthetic technique and
	// verify the current is held at the target.
	app, _ := workload.ByName("gzip")
	g := workload.NewGenerator(app.Params, 10_000)
	tech := &forceStall{target: 70}
	s, err := New(DefaultConfig(), g, tech)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s.StepCycle()
	}
	// After the pipeline drains under stall, current must sit at the
	// phantom target exactly.
	last := tech.lastTotal
	if math.Abs(last-70) > 0.5 {
		t.Errorf("stalled current %.2f, want held at 70", last)
	}
}

type forceStall struct {
	target    float64
	lastTotal float64
}

func (f *forceStall) Name() string { return "force-stall" }
func (f *forceStall) Next() (cpu.Throttle, Phantom) {
	return cpu.Throttle{StallIssue: true, StallFetch: true, IssueCurrentBudget: -1},
		Phantom{TargetAmps: f.target}
}
func (f *forceStall) Observe(obs *Observation) { f.lastTotal = obs.TotalAmps }

func TestNewRejectsInvalidConfigs(t *testing.T) {
	src := cpu.NewSliceSource(nil)
	bad := DefaultConfig()
	bad.CPU.ROBSize = 0
	if _, err := New(bad, src, nil); err == nil {
		t.Error("invalid CPU config accepted")
	}
	bad = DefaultConfig()
	bad.Power.Vdd = 0
	if _, err := New(bad, src, nil); err == nil {
		t.Error("invalid power config accepted")
	}
	bad = DefaultConfig()
	badSupply := circuit.Table1()
	badSupply.C = 0
	bad.PDN = &circuit.NetworkConfig{Lumped: &badSupply}
	if _, err := New(bad, src, nil); err == nil {
		t.Error("invalid supply config accepted")
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 500
	app, _ := workload.ByName("mcf")
	g := workload.NewGenerator(app.Params, 1_000_000)
	s, err := New(cfg, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run("mcf", "base")
	if r.Cycles != 500 {
		t.Errorf("ran %d cycles, want capped at 500", r.Cycles)
	}
}

func TestSensorDelayPlumbed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SensorDelayCycles = 5
	app, _ := workload.ByName("swim")
	g := workload.NewGenerator(app.Params, 50_000)
	tech := NewResonanceTuning(table1Tuning())
	s, err := New(cfg, g, tech)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run("swim", tech.Name())
	if r.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
}

func TestEnergyDelayConsistency(t *testing.T) {
	r := Result{EnergyJ: 2, Cycles: 1000}
	want := 2.0 * 1000 / 10e9
	if got := r.EnergyDelay(10e9); math.Abs(got-want) > 1e-18 {
		t.Errorf("EnergyDelay = %g, want %g", got, want)
	}
}

func TestTechniqueNames(t *testing.T) {
	if NewResonanceTuning(table1Tuning()).Name() != "resonance-tuning" {
		t.Error("tuning name")
	}
	if NewVoltageControl(voltctl.Config{TargetThresholdVolts: 0.03}, 30).Name() != "voltage-control" {
		t.Error("voltctl name")
	}
	if NewDamping(damping.Config{WindowCycles: 50, DeltaAmps: 32}).Name() != "pipeline-damping" {
		t.Error("damping name")
	}
}

func TestDefaultConfigIsTable1(t *testing.T) {
	cfg := DefaultConfig()
	m, err := NewMachine(cfg, cpu.NewSliceSource(nil))
	if err != nil {
		t.Fatal(err)
	}
	table1, err := circuit.BuildNetwork(circuit.NetworkConfig{Kind: circuit.NetworkLumped}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PDN != nil || m.Network().Kind() != circuit.NetworkLumped || m.Network().DomainInfo(0) != table1.DomainInfo(0) {
		t.Error("default supply is not the lumped Table 1 network")
	}
	if cfg.CPU != cpu.DefaultConfig() {
		t.Error("default CPU is not Table 1")
	}
}
