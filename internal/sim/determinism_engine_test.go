// Engine-mediated determinism coverage lives in an external test package
// because engine imports sim; an in-package test importing engine would
// be an import cycle.
package sim_test

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// directRun builds the simulation the way the pre-engine drivers did:
// straight from sim.New with an explicit technique instance.
func directRun(t *testing.T, app string, insts uint64, cfg *tuning.Config) sim.Result {
	t.Helper()
	a, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewGenerator(a.Params, insts)
	var tech sim.Technique
	name := "base"
	if cfg != nil {
		c := tuning.NewController(*cfg)
		tech = c
		name = c.Name()
	}
	s, err := sim.New(sim.DefaultConfig(), g, tech)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run(app, name)
}

// TestEngineMatchesDirectConstruction extends the determinism guarantee
// across the engine boundary: a run described as an engine.Spec —
// executed directly, through a pooled engine, and replayed from its
// cache — is bit-identical to hand-constructing the simulator.
func TestEngineMatchesDirectConstruction(t *testing.T) {
	const insts = 120_000
	tc := engine.DefaultTuningConfig(100)
	cases := []struct {
		name   string
		spec   engine.Spec
		tuning *tuning.Config
	}{
		{"base", engine.Spec{App: "swim", Instructions: insts}, nil},
		{"tuning", engine.Spec{App: "swim", Instructions: insts,
			Technique: engine.TechniqueTuning, Tuning: &tc}, &tc},
	}
	eng := engine.New(engine.Options{Parallelism: 2})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := directRun(t, c.spec.App, c.spec.Instructions, c.tuning)

			executed, err := engine.Execute(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if executed != want {
				t.Errorf("engine.Execute diverged from direct construction:\n%+v\n%+v", executed, want)
			}

			cold, err := eng.Run(context.Background(), c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if cold != want {
				t.Errorf("cold engine run diverged from direct construction:\n%+v\n%+v", cold, want)
			}

			warm, err := eng.Run(context.Background(), c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if warm != want {
				t.Errorf("cached engine run diverged from direct construction:\n%+v\n%+v", warm, want)
			}
		})
	}
	st := eng.CacheStats()
	if st.Misses != uint64(len(cases)) || st.Hits != uint64(len(cases)) {
		t.Errorf("cache traffic hits=%d misses=%d, want %d and %d", st.Hits, st.Misses, len(cases), len(cases))
	}
}
