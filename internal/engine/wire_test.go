package engine

import (
	"encoding/json"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// wireFixtures covers every registered technique kind (default and
// custom sections), synthetic workloads, and a non-default system.
func wireFixtures(t *testing.T) []Spec {
	t.Helper()
	tc := DefaultTuningConfig(150)
	tc.InitialResponseThreshold = 1
	w := workload.Params{
		Name: "synthetic", Seed: 7,
		Mix:     workload.Mix{IntALU: 1},
		DepProb: 0.3, DepMean: 4, L1MissRate: 0.05,
	}
	sys := sim.DefaultConfig()
	sys.SensorDelayCycles += 2
	sys.Power.PeakWatts += 1.5
	return []Spec{
		{},
		{App: "lucas", Instructions: 50_000},
		{App: "swim", Technique: TechniqueTuning, Tuning: &tc},
		{App: "bzip", Technique: TechniqueVoltageControl},
		{App: "art", Technique: TechniqueDamping},
		{App: "mcf", Technique: TechniqueConvolution},
		{App: "gcc", Technique: TechniqueWavelet},
		{App: "gzip", Technique: TechniqueDualBand},
		{Workload: &w, Instructions: 10_000},
		{App: "lucas", System: &sys},
	}
}

// TestSpecWireRoundTripPreservesKey: a spec rendered to the wire,
// serialized as JSON (the manifest/server encoding), and decoded back
// describes the same simulation — same canonical encoding, same
// content address — which is what lets a sharded worker trust a
// manifest written by another process.
func TestSpecWireRoundTripPreservesKey(t *testing.T) {
	for i, s := range wireFixtures(t) {
		want, err := s.Key()
		if err != nil {
			t.Fatalf("fixture %d: key: %v", i, err)
		}
		blob, err := json.Marshal(WireSpec(s))
		if err != nil {
			t.Fatalf("fixture %d: marshal: %v", i, err)
		}
		var w Spec
		if err := json.Unmarshal(blob, &w); err != nil {
			t.Fatalf("fixture %d: unmarshal: %v", i, err)
		}
		got, err := w.Key()
		if err != nil {
			t.Fatalf("fixture %d: round-trip key: %v", i, err)
		}
		if got != want {
			t.Errorf("fixture %d: wire round-trip changed the content address: %s → %s\nwire: %s", i, want, got, blob)
		}
	}
}

// TestKeyHexRoundTrip: ParseKey inverts Key.Hex, and rejects wrong
// lengths and junk.
func TestKeyHexRoundTrip(t *testing.T) {
	k, err := Spec{App: "lucas"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseKey(k.Hex())
	if err != nil || got != k {
		t.Errorf("ParseKey(Hex) = %v, %v; want %v", got, err, k)
	}
	for _, junk := range []string{"", "abc", "zz", k.Hex() + "00", k.Hex()[:10]} {
		if _, err := ParseKey(junk); err == nil {
			t.Errorf("ParseKey(%q) accepted junk", junk)
		}
	}
}
