package resonance

// Benchmarks of the paper's tables and figures (the regeneration targets
// the DESIGN.md experiment index references), plus micro-benchmarks of
// the substrates and the integrator ablation, kept as profiling entry
// points. Timing regressions are gated by the benchmark of record,
// perfbench (scripts/perf_gate.sh), whose table3 workload is the Table 3
// regeneration. The experiment benchmarks use a reduced per-application
// instruction budget so `go test -bench=.` completes in minutes; use
// cmd/experiments for full-budget runs.

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

// BenchmarkTable4VoltageControl regenerates Table 4.
func BenchmarkTable4VoltageControl(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5Damping regenerates Table 5.
func BenchmarkTable5Damping(b *testing.B) { benchExperiment(b, "table5") }

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
// loop uses. The core is fed the *cpu.TraceSource of a materialized
// trace, as it is in engine runs, so it fetches through the trace window
// and the measurement is the pipeline itself rather than pipeline plus
// stream generation. When the trace drains, a fresh core replays it,
// with the timer stopped.
func BenchmarkCoreStep(b *testing.B) {
	app, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	tr := workload.Materialize(app.Params, 1<<20)
	core := cpu.New(cpu.DefaultConfig(), tr)
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
		if core.Done() {
			b.StopTimer()
			tr.Reset()
			core = cpu.New(cpu.DefaultConfig(), tr)
			b.StartTimer()
		}
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

// BenchmarkBatchKernelLockstep measures the lockstep kernel stepping a
// full seven-lane group — base machine plus the six Table 3 resonance
// tuning variants — over a quiet application whose lanes never diverge:
// the batch packer's best case, one machine step serving seven
// simulations. Compare against seven machine steps per cycle
// (perfbench's traced sim.machine_step_ns).
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
		tr.Reset()
		m, err := sim.NewMachine(sim.DefaultConfig(), tr)
		if err != nil {
			b.Fatal(err)
		}
		lanes := make([]batchkernel.Lane, 1, 1+len(inis))
		for _, ini := range inis {
			cfg := DefaultTuningConfig(ini)
			lanes = append(lanes, batchkernel.Lane{Tech: tuning.NewController(cfg)})
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
		tr.Reset()
		m, err := sim.NewMachine(sim.DefaultConfig(), tr)
		if err != nil {
			b.Fatal(err)
		}
		lanes := make([]batchkernel.Lane, 1, 1+len(inis))
		for _, ini := range inis {
			cfg := DefaultTuningConfig(ini)
			lanes = append(lanes, batchkernel.Lane{Tech: tuning.NewController(cfg)})
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
	m, err := sim.NewMachine(sim.DefaultConfig(), workload.Materialize(app.Params, 60_000))
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
	src := cyclingTrace{workload.Materialize(app.Params, 1<<20)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := src.Next(); !ok {
			b.Fatal("stream ended")
		}
	}
}
