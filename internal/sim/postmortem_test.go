package sim

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/workload"
)

func TestPostmortemSyntheticBursts(t *testing.T) {
	// Lookback 100: the warning at cycle 110 covers the burst at 150
	// (lead 40) but not the burst at 300 (190 cycles later).
	pm := NewPostmortem(0.05, 2, 100)
	// Quiet, warning at cycle 100, violation burst 150-160, quiet,
	// then an unwarned burst at 300.
	for c := uint64(0); c < 500; c++ {
		tp := TracePoint{Cycle: c, TotalAmps: 70}
		if c >= 90 && c <= 110 {
			tp.EventCount = 2
		}
		if c >= 150 && c <= 160 {
			tp.DeviationVolts = 0.06
			tp.ResponseLevel = 1
		}
		if c >= 300 && c <= 305 {
			tp.DeviationVolts = -0.07
		}
		pm.Observe(tp)
	}
	reps := pm.Reports()
	if len(reps) != 2 {
		t.Fatalf("%d bursts, want 2: %+v", len(reps), reps)
	}
	first := reps[0]
	if first.StartCycle != 150 || first.EndCycle != 160 {
		t.Errorf("first burst %d-%d", first.StartCycle, first.EndCycle)
	}
	if first.WarningLeadCycles != 150-110 {
		t.Errorf("warning lead %d, want 40", first.WarningLeadCycles)
	}
	if first.ResponseLevelAtStart != 1 {
		t.Errorf("response level %d, want 1", first.ResponseLevelAtStart)
	}
	if first.PeakDeviationV != 0.06 {
		t.Errorf("peak %g", first.PeakDeviationV)
	}
	second := reps[1]
	if second.WarningLeadCycles != -1 {
		t.Errorf("second burst lead %d, want -1 (unwarned)", second.WarningLeadCycles)
	}
	if second.PeakDeviationV != 0.07 {
		t.Errorf("second peak %g", second.PeakDeviationV)
	}

	bursts, meanLead, unwarned := pm.Summary()
	if bursts != 2 || unwarned != 1 || meanLead != 40 {
		t.Errorf("summary %d/%g/%d", bursts, meanLead, unwarned)
	}
}

func TestPostmortemMergesCloseBursts(t *testing.T) {
	pm := NewPostmortem(0.05, 2, 400)
	for c := uint64(0); c < 300; c++ {
		tp := TracePoint{Cycle: c, TotalAmps: 70}
		// Two violating stretches separated by a 5-cycle gap (below
		// the merge gap of lookback/10 = 40).
		if (c >= 100 && c <= 110) || (c >= 116 && c <= 125) {
			tp.DeviationVolts = 0.055
		}
		pm.Observe(tp)
	}
	reps := pm.Reports()
	if len(reps) != 1 {
		t.Fatalf("%d bursts, want 1 merged: %+v", len(reps), reps)
	}
	if reps[0].StartCycle != 100 || reps[0].EndCycle != 125 {
		t.Errorf("merged burst %d-%d, want 100-125", reps[0].StartCycle, reps[0].EndCycle)
	}
}

func TestPostmortemOpenBurstIncluded(t *testing.T) {
	pm := NewPostmortem(0.05, 2, 100)
	for c := uint64(0); c < 50; c++ {
		pm.Observe(TracePoint{Cycle: c, DeviationVolts: 0.09})
	}
	reps := pm.Reports()
	if len(reps) != 1 || reps[0].EndCycle != 49 {
		t.Fatalf("open burst not reported: %+v", reps)
	}
}

func TestPostmortemOnRealRun(t *testing.T) {
	// The anatomy claim end to end: on a violating app under tuning,
	// most remaining bursts either carried an advance warning or were
	// already inside a response when they hit.
	app, err := workload.ByName("lucas")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	tech := NewResonanceTuning(table1Tuning())
	g := workload.NewGenerator(app.Params, 400_000)
	s, err := New(cfg, g, tech)
	if err != nil {
		t.Fatal(err)
	}
	pm := NewPostmortem(circuit.Table1().NoiseMarginVolts(), 2, 500)
	s.SetTrace(pm.Observe, tech.EventCount, tech.Level)
	res := s.Run("lucas", tech.Name())

	reps := pm.Reports()
	// Total violating cycles across bursts must match the result.
	var cyc uint64
	for _, r := range reps {
		if r.EndCycle < r.StartCycle {
			t.Fatalf("inverted burst %+v", r)
		}
		cyc += r.EndCycle - r.StartCycle + 1
	}
	// Merged gaps mean cyc >= res.Violations is not exact; but bursts
	// can never cover fewer cycles than the violations counted.
	if cyc < res.Violations {
		t.Errorf("bursts cover %d cycles but %d violations counted", cyc, res.Violations)
	}
	if res.Violations > 0 && len(reps) == 0 {
		t.Fatal("violations occurred but no bursts reported")
	}
	warnedOrResponding := 0
	for _, r := range reps {
		if r.WarningLeadCycles >= 0 || r.ResponseLevelAtStart > 0 {
			warnedOrResponding++
		}
	}
	if len(reps) > 0 && warnedOrResponding < len(reps)*5/10 {
		t.Errorf("only %d of %d residual bursts were warned or in-response", warnedOrResponding, len(reps))
	}
}

func TestPostmortemLookbackClamp(t *testing.T) {
	pm := NewPostmortem(0.05, 2, 1)
	for c := uint64(0); c < 20; c++ {
		pm.Observe(TracePoint{Cycle: c, TotalAmps: float64(60 + c)})
	}
	if pm.swing() <= 0 {
		t.Error("swing not computed with clamped lookback")
	}
}
