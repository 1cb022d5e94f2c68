package sim

import (
	"testing"

	"repro/internal/baselines/convctl"
	"repro/internal/baselines/wavelet"
	"repro/internal/circuit"
	"repro/internal/workload"
)

func TestConvolutionControlInLoop(t *testing.T) {
	app, err := workload.ByName("lucas")
	if err != nil {
		t.Fatal(err)
	}
	base := mustRun(t, app, nil, 250_000)
	tech := NewConvolutionControl(convctl.Config{Supply: circuit.Table1()}, 30)
	ctl := mustRun(t, app, tech, 250_000)
	if base.Violations == 0 {
		t.Fatal("no base violations")
	}
	if ctl.Violations > base.Violations/5 {
		t.Errorf("convolution control left %d of %d violations", ctl.Violations, base.Violations)
	}
	st := tech.Stats()
	if st.ResponseCycles == 0 {
		t.Error("convolution control never responded")
	}
	// Its model-based prediction should be accurate to a few millivolts
	// with exact current observation.
	if st.WorstAbsError > 0.02 {
		t.Errorf("worst prediction error %g V", st.WorstAbsError)
	}
}

func TestWaveletControlInLoop(t *testing.T) {
	app, err := workload.ByName("lucas")
	if err != nil {
		t.Fatal(err)
	}
	base := mustRun(t, app, nil, 250_000)
	tech := NewWaveletControl(wavelet.Config{})
	ctl := mustRun(t, app, tech, 250_000)
	if ctl.Violations > base.Violations/2 {
		t.Errorf("wavelet control left %d of %d violations", ctl.Violations, base.Violations)
	}
	if tech.Stats().Responses == 0 {
		t.Error("wavelet control never responded")
	}
}

func TestDualBandTuningInLoop(t *testing.T) {
	// On the standard single-stage supply with a medium-band violator,
	// dual-band tuning must behave like plain medium tuning: the low
	// controller stays quiet.
	app, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	lowCfg := table1Tuning()
	lowCfg.Detector.HalfPeriodLo = 40
	lowCfg.Detector.HalfPeriodHi = 60
	tech := NewDualBandTuning(table1Tuning(), lowCfg, 25)
	base := mustRun(t, app, nil, 250_000)
	dual := mustRun(t, app, tech, 250_000)
	if dual.Violations > base.Violations/4 {
		t.Errorf("dual-band left %d of %d violations", dual.Violations, base.Violations)
	}
	if tech.MediumStats().Cycles == 0 {
		t.Error("medium controller never ran")
	}
	if tech.LowStats().Cycles == 0 {
		t.Error("low controller never ran (decimation broken)")
	}
	// The low controller steps once per 25 cycles.
	if m, l := tech.MediumStats().Cycles, tech.LowStats().Cycles; l < m/26 || l > m/24 {
		t.Errorf("decimation ratio off: medium %d cycles, low %d", m, l)
	}
}

func TestDualBandPanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDualBandTuning(table1Tuning(), table1Tuning(), 0)
}

func TestNewTechniqueNames(t *testing.T) {
	if NewConvolutionControl(convctl.Config{Supply: circuit.Table1()}, 30).Name() != "convolution-control" {
		t.Error("convctl name")
	}
	if NewWaveletControl(wavelet.Config{}).Name() != "wavelet-control" {
		t.Error("wavelet name")
	}
	if NewDualBandTuning(table1Tuning(), table1Tuning(), 25).Name() != "dual-band-tuning" {
		t.Error("dual-band name")
	}
}

// mustRun executes one app under one technique.
func mustRun(t *testing.T, app workload.App, tech Technique, insts uint64) Result {
	t.Helper()
	g := workload.NewGenerator(app.Params, insts)
	s, err := New(DefaultConfig(), g, tech)
	if err != nil {
		t.Fatal(err)
	}
	name := "base"
	if tech != nil {
		name = tech.Name()
	}
	return s.Run(app.Params.Name, name)
}

func TestTwoStageSupplyInLoop(t *testing.T) {
	supply := circuit.Table1TwoStage()
	cfg := DefaultConfig()
	cfg.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkTwoStage, TwoStage: &supply}
	app, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewGenerator(app.Params, 80_000)
	s, err := New(cfg, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run("gzip", "base")
	if res.Cycles == 0 || res.Instructions != 80_000 {
		t.Fatalf("two-stage run incomplete: %+v", res)
	}
	// An invalid two-stage config is rejected.
	bad := DefaultConfig()
	badSupply := supply
	badSupply.C1 = 0
	bad.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkTwoStage, TwoStage: &badSupply}
	if _, err := New(bad, workload.NewGenerator(app.Params, 10), nil); err == nil {
		t.Error("invalid two-stage supply accepted")
	}
}
