package engine

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// TestTraceSourceActivityEquivalence: for every Table 2 application, a
// core fed by the materialized trace produces the exact cycle-by-cycle
// Activity stream of a core fed by the live Generator.
func TestTraceSourceActivityEquivalence(t *testing.T) {
	const insts = 20_000
	for _, app := range workload.Apps() {
		app := app
		t.Run(app.Params.Name, func(t *testing.T) {
			live := cpu.New(cpu.DefaultConfig(), workload.NewGenerator(app.Params, insts))
			replay := cpu.New(cpu.DefaultConfig(), workload.Materialize(app.Params, insts))
			var la, ra cpu.Activity
			for cycle := 0; ; cycle++ {
				ld, rd := live.Done(), replay.Done()
				if ld != rd {
					t.Fatalf("cycle %d: drain mismatch (live %v, replay %v)", cycle, ld, rd)
				}
				if ld {
					break
				}
				live.StepInto(cpu.Unlimited, &la)
				replay.StepInto(cpu.Unlimited, &ra)
				if la != ra {
					t.Fatalf("cycle %d: activity diverged:\nlive   %+v\nreplay %+v", cycle, la, ra)
				}
			}
			if live.Committed() != replay.Committed() || live.Cycle() != replay.Cycle() {
				t.Errorf("end state diverged: %d/%d committed, %d/%d cycles",
					live.Committed(), replay.Committed(), live.Cycle(), replay.Cycle())
			}
		})
	}
}

// execWithGenerator mirrors Prepare's construction path but feeds the
// simulation from a live Generator instead of the trace store — the
// pre-trace reference implementation — and returns its Result and
// per-cycle waveform.
func execWithGenerator(t *testing.T, spec Spec) (sim.Result, []sim.TracePoint) {
	t.Helper()
	n, _, err := spec.normalized()
	if err != nil {
		t.Fatal(err)
	}
	app, err := workload.ByName(n.App)
	if err != nil {
		t.Fatal(err)
	}
	var tech sim.Technique
	var countFn, levelFn func() int
	if n.Technique == TechniqueTuning {
		c := tuning.NewController(*n.Tuning)
		tech = c
		countFn, levelFn = c.EventCount, c.Level
	}
	s, err := sim.New(*n.System, workload.NewGenerator(app.Params, n.Instructions), tech)
	if err != nil {
		t.Fatal(err)
	}
	var points []sim.TracePoint
	s.SetTrace(func(tp sim.TracePoint) { points = append(points, tp) }, countFn, levelFn)
	name := string(TechniqueNone)
	if tech != nil {
		name = tech.Name()
	}
	return s.Run(n.App, name), points
}

// TestExecuteTraceEquivalence: a traced Prepared.Run (which replays
// through the trace store, as Execute does) returns the bit-identical
// Result — and the bit-identical per-cycle waveform — of a simulation
// fed by the live Generator, for every Table 2 application under both
// the base machine and resonance tuning.
func TestExecuteTraceEquivalence(t *testing.T) {
	const insts = 10_000
	for _, kind := range []TechniqueKind{TechniqueNone, TechniqueTuning} {
		for _, app := range workload.Apps() {
			app, kind := app, kind
			t.Run(string(kind)+"/"+app.Params.Name, func(t *testing.T) {
				spec := Spec{App: app.Params.Name, Instructions: insts, Technique: kind}
				wantRes, wantPoints := execWithGenerator(t, spec)

				p, err := Prepare(spec)
				if err != nil {
					t.Fatal(err)
				}
				var gotPoints []sim.TracePoint
				gotRes, err := p.Run(func(tp sim.TracePoint) { gotPoints = append(gotPoints, tp) })
				if err != nil {
					t.Fatal(err)
				}
				if gotRes != wantRes {
					t.Fatalf("trace-store result diverged:\nlive   %+v\nreplay %+v", wantRes, gotRes)
				}
				if len(gotPoints) != len(wantPoints) {
					t.Fatalf("waveform length diverged: %d vs %d cycles", len(gotPoints), len(wantPoints))
				}
				for i := range gotPoints {
					if gotPoints[i] != wantPoints[i] {
						t.Fatalf("cycle %d: waveform diverged:\nlive   %+v\nreplay %+v",
							i, wantPoints[i], gotPoints[i])
					}
				}
			})
		}
	}
}
