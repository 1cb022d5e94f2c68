package sim_test

import (
	"testing"

	"repro/internal/circuit"
	. "repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// TestRunsAreDeterministic: the whole coupled system — workload, core,
// power, supply, sensors, technique — is a pure function of its
// configuration. Every experiment in the repo depends on this.
func TestRunsAreDeterministic(t *testing.T) {
	for _, techName := range []string{"base", "tuning"} {
		run := func() Result {
			app, err := workload.ByName("swim")
			if err != nil {
				t.Fatal(err)
			}
			g := workload.NewGenerator(app.Params, 120_000)
			var tech Technique
			if techName == "tuning" {
				tech = tuning.NewController(table1Tuning())
			}
			s, err := New(DefaultConfig(), g, tech)
			if err != nil {
				t.Fatal(err)
			}
			return s.Run("swim", techName)
		}
		a, b := run(), run()
		if a != b {
			t.Errorf("%s: runs diverged:\n%+v\n%+v", techName, a, b)
		}
	}
}

// TestTraceMatchesResult: the per-cycle trace and the aggregate result
// agree on violations and peak deviation.
func TestTraceMatchesResult(t *testing.T) {
	app, err := workload.ByName("lucas")
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewGenerator(app.Params, 150_000)
	s, err := New(DefaultConfig(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	margin := circuit.Table1().NoiseMarginVolts() // the default network
	var violations uint64
	peak := 0.0
	s.SetTrace(func(tp TracePoint) {
		d := tp.DeviationVolts
		if d < 0 {
			d = -d
		}
		if d > margin {
			violations++
		}
		if d > peak {
			peak = d
		}
	}, nil, nil)
	res := s.Run("lucas", "base")
	if violations != res.Violations {
		t.Errorf("trace counted %d violations, result %d", violations, res.Violations)
	}
	if peak != res.PeakDeviationV {
		t.Errorf("trace peak %g, result %g", peak, res.PeakDeviationV)
	}
}
