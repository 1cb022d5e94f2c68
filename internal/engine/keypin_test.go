package engine

import (
	"encoding/json"
	"testing"

	"repro/internal/baselines/convctl"
	"repro/internal/baselines/damping"
	"repro/internal/baselines/voltctl"
	"repro/internal/baselines/wavelet"
	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/workload"
)

// pinnedSpecs is one spec per technique kind (labelled by the kind, each
// with an explicit section so its JSON tag is pinned too), one per
// network kind (labelled pdn-<kind>), a custom-workload spec and a
// custom-system spec.
func pinnedSpecs() []struct {
	name string
	spec Spec
} {
	tc := DefaultTuningConfig(75)
	tc.ResponseDelayCycles = 5
	vc := voltctl.Config{TargetThresholdVolts: 0.025, SensorNoiseVolts: 0.01, SensorDelayCycles: 3, Seed: 9}
	dc := damping.Config{WindowCycles: 40, DeltaAmps: 12, Scale: 0.5}
	cc := convctl.Config{ThresholdVolts: 0.03, Horizon: 6, Seed: 42}
	wc := wavelet.Config{Scales: []int{16, 32}, ThresholdAmpCycles: 8, Repetitions: 2}
	db := DefaultDualBandConfig(circuit.Table1TwoStage())
	pdn := func(kind string) *circuit.NetworkConfig { return &circuit.NetworkConfig{Kind: kind} }
	dt := DefaultDomainTuningConfig(pdn(circuit.NetworkMultiDomain), 100)
	w := workload.Params{
		Name: "synthetic", Seed: 7,
		Mix:     workload.Mix{IntALU: 3, Load: 1},
		DepProb: 0.3, DepMean: 4, L1MissRate: 0.05,
	}
	sys := sim.DefaultConfig()
	sys.SensorDelayCycles = 3
	sys.Power.PeakWatts += 1.5
	return []struct {
		name string
		spec Spec
	}{
		{"base", Spec{App: "swim", Instructions: 300_000}},
		{"tuning", Spec{App: "lucas", Instructions: 300_000, Technique: TechniqueTuning, Tuning: &tc}},
		{"voltctl", Spec{App: "bzip", Technique: TechniqueVoltageControl, VoltageControl: &vc}},
		{"damping", Spec{App: "art", Technique: TechniqueDamping, Damping: &dc}},
		{"convctl", Spec{App: "mcf", Technique: TechniqueConvolution, Convolution: &cc}},
		{"wavelet", Spec{App: "gcc", Technique: TechniqueWavelet, Wavelet: &wc}},
		{"dual-band", Spec{App: "gzip", Technique: TechniqueDualBand, DualBand: &db, PDN: pdn(circuit.NetworkTwoStage)}},
		{"domain-tuning", Spec{App: "swim", Technique: TechniqueDomainTuning, DomainTuning: &dt, PDN: pdn(circuit.NetworkMultiDomain)}},
		{"pdn-lumped", Spec{App: "parser", PDN: pdn(circuit.NetworkLumped)}},
		{"pdn-twostage", Spec{App: "parser", PDN: pdn(circuit.NetworkTwoStage)}},
		{"pdn-multidomain", Spec{App: "parser", PDN: pdn(circuit.NetworkMultiDomain)}},
		{"workload", Spec{Workload: &w, Instructions: 10_000}},
		{"system", Spec{App: "lucas", System: &sys}},
	}
}

// TestContentAddressesPinned freezes the content address (full-hex Key)
// and the wire JSON of every pinnedSpecs entry. The disk cache names its
// files by these keys and the server and shard manifest exchange these
// bytes, so a drift here silently orphans every cache written before it:
// a deliberate encoding change must bump diskCacheVersion and regenerate
// the table.
func TestContentAddressesPinned(t *testing.T) {
	if diskCacheVersion != 5 {
		t.Fatalf("diskCacheVersion = %d: the pins below are disk cache version 5's (and 4's, whose keys 5 kept); regenerate them", diskCacheVersion)
	}
	want := []struct{ name, key, wire string }{
		{"base", "d66a2ff7033bc4ae8a2f4c80e240d9cad42733d2286ba841fdfec3dc1202bd7e",
			`{"app":"swim","instructions":300000}`},
		{"tuning", "2fbd0b332d94e83876309fafd241d7073531a1371b90f64b684fd2ce21cae32c",
			`{"app":"lucas","instructions":300000,"technique":"tuning","tuning":{"Detector":{"HalfPeriodLo":42,"HalfPeriodHi":60,"ThresholdAmps":32,"MaxRepetitionTolerance":4},"InitialResponseThreshold":2,"SecondResponseThreshold":3,"InitialResponseCycles":75,"SecondResponseCycles":35,"ReducedIssueWidth":4,"ReducedCachePorts":1,"ResponseDelayCycles":5,"PhantomTargetAmps":70}}`},
		{"voltctl", "5c164ad22948fd8d7b627495ef0bb16892ebdc8c2ba7ca49254bbae897a32209",
			`{"app":"bzip","technique":"voltctl","voltage_control":{"TargetThresholdVolts":0.025,"SensorNoiseVolts":0.01,"SensorDelayCycles":3,"Seed":9}}`},
		{"damping", "1e93ac396963a2880178d21fd7ba35b05ce3579772ce3b4cb4b8164064fa6eb4",
			`{"app":"art","technique":"damping","damping":{"WindowCycles":40,"DeltaAmps":12,"Scale":0.5,"LowerScale":0}}`},
		{"convctl", "54a056dcc140b95f582acdf8ca1723ebfdabc8ab5e837db5d300acf1079f233e",
			`{"app":"mcf","technique":"convctl","convolution":{"Supply":{"R":0,"L":0,"C":0,"Vdd":0,"NoiseMargin":0,"ClockHz":0,"IMax":0,"IMin":0},"Taps":0,"ThresholdVolts":0.03,"Horizon":6,"EstimateErrorAmps":0,"Seed":42}}`},
		{"wavelet", "d1372b2fc70c5c0b70d93ea57ae9efc7216661e73c3cafe174e8eb35c4bd459c",
			`{"app":"gcc","technique":"wavelet","wavelet":{"Scales":[16,32],"ThresholdAmpCycles":8,"Repetitions":2,"ResponseCycles":0}}`},
		{"dual-band", "25b7a6dc524016ce6f06dd26f8c4bf387c05c17befcf458fa3d31b57ab7479c3",
			`{"app":"gzip","technique":"dual-band","pdn":{"Kind":"twostage","Lumped":null,"TwoStage":null,"MultiDomain":null},"dual_band":{"Medium":{"Detector":{"HalfPeriodLo":42,"HalfPeriodHi":60,"ThresholdAmps":32,"MaxRepetitionTolerance":4},"InitialResponseThreshold":2,"SecondResponseThreshold":3,"InitialResponseCycles":100,"SecondResponseCycles":35,"ReducedIssueWidth":4,"ReducedCachePorts":1,"ResponseDelayCycles":0,"PhantomTargetAmps":70},"Low":{"Detector":{"HalfPeriodLo":40,"HalfPeriodHi":60,"ThresholdAmps":19,"MaxRepetitionTolerance":4},"InitialResponseThreshold":2,"SecondResponseThreshold":3,"InitialResponseCycles":100,"SecondResponseCycles":35,"ReducedIssueWidth":4,"ReducedCachePorts":1,"ResponseDelayCycles":0,"PhantomTargetAmps":70},"DecimationFactor":25}}`},
		{"domain-tuning", "83df1669ac523ff8db66101a0065302aa7c66b41be65a24021b0cd967a7a3e2c",
			`{"app":"swim","technique":"domain-tuning","pdn":{"Kind":"multidomain","Lumped":null,"TwoStage":null,"MultiDomain":null},"domain_tuning":{"Domains":[{"Detector":{"HalfPeriodLo":40,"HalfPeriodHi":60,"ThresholdAmps":32,"MaxRepetitionTolerance":4},"InitialResponseThreshold":2,"SecondResponseThreshold":3,"InitialResponseCycles":100,"SecondResponseCycles":35,"ReducedIssueWidth":4,"ReducedCachePorts":1,"ResponseDelayCycles":0,"PhantomTargetAmps":70},{"Detector":{"HalfPeriodLo":40,"HalfPeriodHi":60,"ThresholdAmps":32,"MaxRepetitionTolerance":4},"InitialResponseThreshold":2,"SecondResponseThreshold":3,"InitialResponseCycles":100,"SecondResponseCycles":35,"ReducedIssueWidth":4,"ReducedCachePorts":1,"ResponseDelayCycles":0,"PhantomTargetAmps":70}]}}`},
		{"pdn-lumped", "35a955bd65302b67de10dc7844b3a7c003cdebd190e3bba1c7d94facb0e8a782",
			`{"app":"parser","pdn":{"Kind":"lumped","Lumped":null,"TwoStage":null,"MultiDomain":null}}`},
		{"pdn-twostage", "f099318a2e5aa90eb5895fb66a95263e2676a8e978b2b535a631db5a4719bfaa",
			`{"app":"parser","pdn":{"Kind":"twostage","Lumped":null,"TwoStage":null,"MultiDomain":null}}`},
		{"pdn-multidomain", "4c5704999d8ee875b8873c16f723e31ca60e3d96e9e2590e0a9c690bf6a7e5ad",
			`{"app":"parser","pdn":{"Kind":"multidomain","Lumped":null,"TwoStage":null,"MultiDomain":null}}`},
		{"workload", "3d686a0be5a7788cdfe0cd9a863302195ca8852379dead34436a9cc9d40a4e73",
			`{"instructions":10000,"workload":{"Name":"synthetic","Seed":7,"Mix":{"IntALU":3,"IntMul":0,"FPALU":0,"FPMul":0,"Load":1,"Store":0,"Branch":0},"DepProb":0.3,"DepMean":4,"Dep2Frac":0,"MispredictRate":0,"L1MissRate":0.05,"L2MissRate":0,"Burst":{"Enabled":false,"BurstInsts":0,"StallMisses":0,"StallLevel":0,"JitterFrac":0,"EpisodeProb":0,"EpisodeLen":0,"EpisodeBurstInsts":0,"EpisodeStallMisses":0,"EpisodeILP":false}}}`},
		{"system", "149eb7115a180adb7521fece17776b2d1df85803b0e90fa09fddd9239eee9cdc",
			`{"app":"lucas","system":{"CPU":{"FetchWidth":8,"DecodeWidth":8,"IssueWidth":8,"CommitWidth":8,"ROBSize":128,"LSQSize":128,"IQSize":64,"IntALUs":8,"IntMuls":2,"FPALUs":4,"FPMuls":2,"CachePorts":2,"IntALULat":1,"IntMulLat":3,"FPALULat":2,"FPMulLat":4,"L1Lat":2,"L2Lat":12,"MemLat":80,"MispredictPenalty":7,"FetchQueue":32},"Power":{"Vdd":1,"ClockHz":10000000000,"PeakWatts":106.5,"IdleWatts":35,"GatedResidual":0.1},"PDN":null,"SensorDelayCycles":3,"SensorResolutionAmps":0,"SensorDomain":0,"MaxCycles":0}}`},
	}
	specs := pinnedSpecs()
	if len(specs) != len(want) {
		t.Fatalf("%d pinned specs, %d pins", len(specs), len(want))
	}
	for i, p := range specs {
		if p.name != want[i].name {
			t.Fatalf("pin %d is %q, spec is %q", i, want[i].name, p.name)
		}
		k, err := p.spec.Key()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if k.Hex() != want[i].key {
			t.Errorf("%s: key %s, pinned %s", p.name, k.Hex(), want[i].key)
		}
		blob, err := json.Marshal(WireSpec(p.spec))
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if string(blob) != want[i].wire {
			t.Errorf("%s: wire form\n%s\npinned\n%s", p.name, blob, want[i].wire)
		}
	}

	// Every technique and network kind carries a pin.
	names := map[string]bool{}
	for _, p := range specs {
		names[p.name] = true
	}
	for _, kind := range Kinds() {
		if !names[string(kind)] {
			t.Errorf("technique kind %q has no pinned spec", kind)
		}
	}
	for _, kind := range circuit.NetworkKinds() {
		if !names["pdn-"+kind] {
			t.Errorf("network kind %q has no pinned spec", kind)
		}
	}
}
