package engine

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/baselines/convctl"
	"repro/internal/baselines/damping"
	"repro/internal/baselines/voltctl"
	"repro/internal/baselines/wavelet"
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// TestKeyPointerIdentityIrrelevant: equal configurations behind distinct
// pointers hash equal.
func TestKeyPointerIdentityIrrelevant(t *testing.T) {
	tc1 := DefaultTuningConfig(100)
	tc2 := DefaultTuningConfig(100)
	a := Spec{App: "swim", Technique: TechniqueTuning, Tuning: &tc1}
	b := Spec{App: "swim", Technique: TechniqueTuning, Tuning: &tc2}
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("distinct pointers to equal tuning configs hash differently")
	}
}

// TestKeyNormalizesDefaults: a spec written with zero values hashes the
// same as one spelling every default out, and a Trace callback does not
// perturb the key.
func TestKeyNormalizesDefaults(t *testing.T) {
	implicit := Spec{App: "swim"}
	cfg := sim.DefaultConfig()
	tc := DefaultTuningConfig(100)
	explicit := Spec{
		App:          "swim",
		Instructions: DefaultInstructions,
		Technique:    TechniqueNone,
		System:       &cfg,
		// Irrelevant for the base machine; must not perturb the key.
		Tuning: &tc,
		Trace:  func(sim.TracePoint) {},
	}
	ki, err := implicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	ke, err := explicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ki != ke {
		t.Error("defaulted spec and explicit spec hash differently")
	}
}

// TestKeySeparatesSpecs: distinct simulations get distinct keys.
func TestKeySeparatesSpecs(t *testing.T) {
	tcA := DefaultTuningConfig(75)
	tcB := DefaultTuningConfig(125)
	sysB := sim.DefaultConfig()
	sysB.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkTwoStage}
	stiff := circuit.Table1()
	stiff.C *= 2
	sysC := sim.DefaultConfig()
	sysC.PDN = &circuit.NetworkConfig{Lumped: &stiff}
	specs := []Spec{
		{App: "swim"},
		{App: "lucas"},
		{App: "swim", Instructions: 2_000_000},
		{App: "swim", Technique: TechniqueTuning},
		{App: "swim", Technique: TechniqueTuning, Tuning: &tcA},
		{App: "swim", Technique: TechniqueTuning, Tuning: &tcB},
		{App: "swim", Technique: TechniqueVoltageControl},
		{App: "swim", Technique: TechniqueDamping},
		{App: "swim", System: &sysB},
		{App: "swim", System: &sysC},
	}
	seen := make(map[Key]int)
	for i, s := range specs {
		k, err := s.Key()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if j, dup := seen[k]; dup {
			t.Errorf("specs %d and %d collide", j, i)
		}
		seen[k] = i
	}
}

// TestKeyMatchesCanonical: the key is exactly the hash relation of the
// canonical encoding — equal keys iff equal encodings — across a spread
// of near-miss pairs.
func TestKeyMatchesCanonical(t *testing.T) {
	tc := DefaultTuningConfig(100)
	tcDelayed := tc
	tcDelayed.ResponseDelayCycles = 5
	pairs := [][2]Spec{
		{{App: "swim"}, {App: "swim", Instructions: DefaultInstructions}},
		{{App: "swim"}, {App: "swim", Instructions: 1}},
		{{App: "swim", Technique: TechniqueTuning, Tuning: &tc},
			{App: "swim", Technique: TechniqueTuning, Tuning: &tcDelayed}},
		{{App: "swim", Technique: "base"}, {App: "swim"}},
	}
	for i, p := range pairs {
		ca, err := p[0].Canonical()
		if err != nil {
			t.Fatal(err)
		}
		cb, err := p[1].Canonical()
		if err != nil {
			t.Fatal(err)
		}
		ka, _ := p[0].Key()
		kb, _ := p[1].Key()
		if (ka == kb) != bytes.Equal(ca, cb) {
			t.Errorf("pair %d: key equality %v but canonical equality %v",
				i, ka == kb, bytes.Equal(ca, cb))
		}
	}
}

// TestCanonicalCoversAllConfigFields guards the canonical encoding
// against silently ignoring newly added configuration fields: the
// encoder walks structs by reflection, so its output must grow when a
// field is added. The counts here are the encoder's contract — update
// them (and nothing else; reflection handles the rest) when a config
// struct gains a field.
func TestCanonicalCoversAllConfigFields(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  reflect.Type
		want int
	}{
		{"engine.Spec", reflect.TypeOf(Spec{}), 14},
		{"engine.DualBandConfig", reflect.TypeOf(DualBandConfig{}), 3},
		{"engine.DomainTuningConfig", reflect.TypeOf(DomainTuningConfig{}), 1},
		{"sim.Config", reflect.TypeOf(sim.Config{}), 7},
		{"cpu.Config", reflect.TypeOf(cpu.Config{}), 21},
		{"power.Config", reflect.TypeOf(power.Config{}), 5},
		{"circuit.Params", reflect.TypeOf(circuit.Params{}), 8},
		{"circuit.TwoStageParams", reflect.TypeOf(circuit.TwoStageParams{}), 11},
		{"circuit.NetworkConfig", reflect.TypeOf(circuit.NetworkConfig{}), 4},
		{"circuit.MultiDomainParams", reflect.TypeOf(circuit.MultiDomainParams{}), 8},
		{"circuit.DomainParams", reflect.TypeOf(circuit.DomainParams{}), 7},
		{"tuning.Config", reflect.TypeOf(tuning.Config{}), 9},
		{"tuning.DetectorConfig", reflect.TypeOf(tuning.DetectorConfig{}), 4},
		{"voltctl.Config", reflect.TypeOf(voltctl.Config{}), 4},
		{"damping.Config", reflect.TypeOf(damping.Config{}), 4},
		{"convctl.Config", reflect.TypeOf(convctl.Config{}), 6},
		{"wavelet.Config", reflect.TypeOf(wavelet.Config{}), 4},
		{"workload.Params", reflect.TypeOf(workload.Params{}), 10},
		{"workload.Mix", reflect.TypeOf(workload.Mix{}), 7},
		{"workload.Burst", reflect.TypeOf(workload.Burst{}), 10},
	} {
		if got := tc.typ.NumField(); got != tc.want {
			t.Errorf("%s has %d fields, test expects %d — confirm the canonical encoding still covers every field, then update this count",
				tc.name, got, tc.want)
		}
	}
}

// TestKeyStability: hashing is repeatable within a process.
func TestKeyStability(t *testing.T) {
	s := Spec{App: "parser", Technique: TechniqueDamping}
	k1, err := s.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := s.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("same spec hashed twice differs")
	}
	if k1.String() == "" {
		t.Error("empty key string")
	}
}
