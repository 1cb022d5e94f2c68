package resonance

// One benchmark per paper table and figure (the regeneration targets the
// DESIGN.md experiment index references), plus micro-benchmarks of the
// substrates and the integrator ablation. The experiment benchmarks use a
// reduced per-application instruction budget so `go test -bench=.`
// completes in minutes; use cmd/experiments for full-budget runs.

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/engine/batchkernel"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// benchOpts is the reduced budget for whole-suite experiment benchmarks.
var benchOpts = Options{Instructions: 60_000}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := RunExperiment(id, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Text == "" {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkFig1cImpedance regenerates Figure 1(c).
func BenchmarkFig1cImpedance(b *testing.B) { benchExperiment(b, "fig1c") }

// BenchmarkFig3Stimulation regenerates Figure 3.
func BenchmarkFig3Stimulation(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4Parser regenerates Figure 4.
func BenchmarkFig4Parser(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Figure 4 needs enough instructions to catch a violation.
		if _, err := RunExperiment("fig4", Options{Instructions: 300_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Classification regenerates Table 2.
func BenchmarkTable2Classification(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3ResonanceTuning regenerates Table 3. Each iteration
// uses a fresh private engine (results honestly re-simulated); the
// process-wide trace store still amortizes workload materialization, as
// it does across real invocations.
func BenchmarkTable3ResonanceTuning(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable3WarmDiskCache regenerates Table 3 against a warm disk
// cache: each iteration runs a fresh engine (cold memory tier) whose
// every spec is served from the persistent tier without simulating —
// the cost of a repeated CI golden run or sweep invocation.
func BenchmarkTable3WarmDiskCache(b *testing.B) {
	dir := b.TempDir()
	warm := func() *Engine {
		return NewEngineWithOptions(EngineOptions{DiskCacheDir: dir})
	}
	opts := Options{Instructions: benchOpts.Instructions, Engine: warm()}
	if _, err := RunExperiment("table3", opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := warm()
		rep, err := RunExperiment("table3", Options{Instructions: benchOpts.Instructions, Engine: eng})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Text == "" {
			b.Fatal("empty report")
		}
		if st := eng.CacheStats(); st.Misses != 0 {
			b.Fatalf("warm pass simulated %d specs, want 0", st.Misses)
		}
	}
}

// BenchmarkRelatedSuiteWarm runs the six-technique related-work
// comparison against a warm disk cache: each iteration gets a fresh
// engine (cold memory tier) and must replay all 28 runs (7 techniques ×
// 4 apps, now that the related runner goes through the engine) from the
// persistent tier without simulating.
func BenchmarkRelatedSuiteWarm(b *testing.B) {
	dir := b.TempDir()
	warm := func() *Engine {
		return NewEngineWithOptions(EngineOptions{DiskCacheDir: dir})
	}
	opts := Options{Instructions: benchOpts.Instructions, Engine: warm()}
	if _, err := RunExperiment("related", opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := warm()
		rep, err := RunExperiment("related", Options{Instructions: benchOpts.Instructions, Engine: eng})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Text == "" {
			b.Fatal("empty report")
		}
		if st := eng.CacheStats(); st.Misses != 0 {
			b.Fatalf("warm pass simulated %d specs, want 0", st.Misses)
		}
	}
}

// BenchmarkTable4VoltageControl regenerates Table 4.
func BenchmarkTable4VoltageControl(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5Damping regenerates Table 5.
func BenchmarkTable5Damping(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkFig5Comparison regenerates Figure 5.
func BenchmarkFig5Comparison(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkAblations runs the design-choice ablation suite.
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablations") }

// ---- substrate micro-benchmarks ----

// BenchmarkCircuitStepHeun measures one Heun integration step.
func BenchmarkCircuitStepHeun(b *testing.B) {
	s := circuit.NewSimulator(circuit.Table1(), 70)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Step(70 + float64(i%30))
	}
}

// BenchmarkCircuitStepEuler measures one forward-Euler step (the
// integrator ablation's cheaper, less accurate baseline).
func BenchmarkCircuitStepEuler(b *testing.B) {
	s := circuit.NewSimulatorMethod(circuit.Table1(), 70, circuit.Euler)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Step(70 + float64(i%30))
	}
}

// BenchmarkDetectorStep measures one cycle of resonant-event detection
// with the Table 1 band (19 half-period adders).
func BenchmarkDetectorStep(b *testing.B) {
	det := tuning.NewDetector(tuning.DetectorConfig{
		HalfPeriodLo: 42, HalfPeriodHi: 60,
		ThresholdAmps: 32, MaxRepetitionTolerance: 4,
	})
	w := circuit.Square{Mid: 70, Amplitude: 40, PeriodCycles: 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		det.Step(w.At(i))
	}
}

// cyclingTrace replays a materialized trace endlessly, so open-ended
// benchmarks can draw unbounded instructions from a bounded trace.
type cyclingTrace struct{ src *cpu.TraceSource }

func (c cyclingTrace) Next() (cpu.Inst, bool) {
	in, ok := c.src.Next()
	if !ok {
		c.src.Reset()
		in, ok = c.src.Next()
	}
	return in, ok
}

// BenchmarkCoreStep measures one out-of-order pipeline cycle on a
// steady instruction mix, through the StepInto hot path the simulation
// loop uses. The core is fed from a materialized trace, as it is in
// engine runs, so the measurement is the pipeline itself rather than
// pipeline plus stream generation.
func BenchmarkCoreStep(b *testing.B) {
	app, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	src := cyclingTrace{workload.Materialize(app.Params, 1<<20).Source()}
	core := cpu.New(cpu.DefaultConfig(), src)
	var act cpu.Activity
	// The steady-state step must not allocate at all; without this guard
	// (and the ResetTimer below excluding trace materialization) the
	// setup's allocations amortize into a misleading non-zero B/op.
	if n := testing.AllocsPerRun(1000, func() {
		core.StepInto(cpu.Unlimited, &act)
	}); n != 0 {
		b.Fatalf("core step allocates %.1f times per cycle, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.StepInto(cpu.Unlimited, &act)
	}
}

// BenchmarkPowerStep measures one power-model accounting cycle: a
// constant activity vector, so every unit's deposit is read from the
// same few table entries.
func BenchmarkPowerStep(b *testing.B) {
	m := power.New(power.DefaultConfig(), cpu.DefaultConfig())
	var act cpu.Activity
	act.Fetched, act.Dispatched, act.Committed = 8, 8, 8
	act.Issued[cpu.IntALU] = 6
	act.IssuedTotal = 6
	act.L1D = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Step(&act, 0)
	}
}

// BenchmarkStepCycle measures one fully coupled system cycle
// (core + power + supply + sensing + resonance tuning) — the unit every
// experiment's wall time is a multiple of.
func BenchmarkStepCycle(b *testing.B) {
	app, err := workload.ByName("swim")
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(app.Params, math.MaxUint64>>1)
	tech := sim.NewResonanceTuning(DefaultTuningConfig(100))
	s, err := sim.New(sim.DefaultConfig(), gen, tech)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.StepCycle()
	}
}

// BenchmarkMultiDomainStep measures one fully coupled system cycle on
// the two-domain PDN stack — core + per-domain current split + the
// coupled die/package/board integration + per-domain sensing + one
// tuning controller per rail — the multi-domain counterpart of
// BenchmarkStepCycle, and the unit the multidomain experiment's wall
// time is a multiple of.
func BenchmarkMultiDomainStep(b *testing.B) {
	app, err := workload.ByName("swim")
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(app.Params, math.MaxUint64>>1)
	pdn := circuit.Table1TwoDomain()
	cfg := sim.DefaultConfig()
	netCfg := circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain, MultiDomain: &pdn}
	cfg.PDN = &netCfg
	dt := DefaultDomainTuningConfig(&netCfg, 100)
	s, err := sim.New(cfg, gen, sim.NewPerDomainTuning(dt.Domains))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.StepCycle()
	}
}

// BenchmarkBatchKernelLockstep measures the lockstep kernel stepping a
// full seven-lane group — base machine plus the six Table 3 resonance
// tuning variants — over a quiet application whose lanes never diverge:
// the batch packer's best case, one machine step serving seven
// simulations. Compare against 7× BenchmarkStepCycle-style scalar runs.
func BenchmarkBatchKernelLockstep(b *testing.B) {
	app, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	const insts = 60_000
	tr := workload.Materialize(app.Params, insts)
	inis := []int{75, 100, 125, 150, 200, 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := sim.NewMachine(sim.DefaultConfig(), tr.Source())
		if err != nil {
			b.Fatal(err)
		}
		lanes := make([]batchkernel.Lane, 1, 1+len(inis))
		for _, ini := range inis {
			cfg := DefaultTuningConfig(ini)
			lanes = append(lanes, batchkernel.Lane{Tech: sim.NewResonanceTuning(cfg)})
		}
		outs, _ := batchkernel.Run(m, "gzip", lanes)
		for j := range outs {
			if outs[j].Status == batchkernel.Failed {
				b.Fatalf("lane %d failed: %v", j, outs[j].Err)
			}
		}
	}
}

// BenchmarkBatchKernelForked measures the kernel on a loud application
// whose tuning lanes respond and diverge: the group decays into forked
// cohorts mid-run, so the cost includes machine deep-copies and the
// post-divergence scalar-speed suffixes — the packer's realistic case,
// against BenchmarkBatchKernelLockstep's never-diverge best case.
func BenchmarkBatchKernelForked(b *testing.B) {
	app, err := workload.ByName("swim")
	if err != nil {
		b.Fatal(err)
	}
	const insts = 60_000
	tr := workload.Materialize(app.Params, insts)
	inis := []int{75, 100, 125, 150, 200, 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := sim.NewMachine(sim.DefaultConfig(), tr.Source())
		if err != nil {
			b.Fatal(err)
		}
		lanes := make([]batchkernel.Lane, 1, 1+len(inis))
		for _, ini := range inis {
			cfg := DefaultTuningConfig(ini)
			lanes = append(lanes, batchkernel.Lane{Tech: sim.NewResonanceTuning(cfg)})
		}
		outs, stats := batchkernel.Run(m, "swim", lanes)
		for j := range outs {
			if outs[j].Status != batchkernel.Finished {
				b.Fatalf("lane %d: %v: %v", j, outs[j].Status, outs[j].Err)
			}
		}
		if stats.LanesForked == 0 {
			b.Fatal("no lane forked; benchmark no longer measures divergence handling")
		}
	}
}

// forkSink keeps BenchmarkMachineFork's copies observable.
var forkSink *sim.Machine

// BenchmarkMachineFork measures one deep copy of a Table 1 lumped
// machine 1000 cycles into a swim trace: what the batch kernel pays for
// each cohort that diverges.
func BenchmarkMachineFork(b *testing.B) {
	app, err := workload.ByName("swim")
	if err != nil {
		b.Fatal(err)
	}
	tr := workload.Materialize(app.Params, 60_000)
	m, err := sim.NewMachine(sim.DefaultConfig(), tr.Source())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		m.Step(cpu.Unlimited, sim.Phantom{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if forkSink, err = m.Fork(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibration measures the full Section 2.1.3 supply
// calibration.
func BenchmarkCalibration(b *testing.B) {
	p := circuit.Table1()
	for i := 0; i < b.N; i++ {
		if _, err := circuit.Calibrate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneratorNext measures live instruction-stream generation —
// the per-instruction cost the trace store pays once per application.
func BenchmarkGeneratorNext(b *testing.B) {
	app, err := workload.ByName("parser")
	if err != nil {
		b.Fatal(err)
	}
	g := workload.NewGenerator(app.Params, math.MaxUint64>>1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatal("stream ended")
		}
	}
}

// BenchmarkTraceSourceNext measures replay of a materialized trace —
// the per-instruction cost every run after the first pays instead.
func BenchmarkTraceSourceNext(b *testing.B) {
	app, err := workload.ByName("parser")
	if err != nil {
		b.Fatal(err)
	}
	src := cyclingTrace{workload.Materialize(app.Params, 1<<20).Source()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := src.Next(); !ok {
			b.Fatal("stream ended")
		}
	}
}
