package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/circuit"
	"repro/internal/engine"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("75, 100,200")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{75, 100, 200}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseInts = %v, want %v", got, want)
	}
	if got, err := parseInts("42"); err != nil || !reflect.DeepEqual(got, []int{42}) {
		t.Errorf("single value = %v, %v", got, err)
	}
	for _, junk := range []string{"", "12,", "a", "1,b,3", "1.5", "7 8"} {
		if got, err := parseInts(junk); err == nil {
			t.Errorf("parseInts(%q) accepted junk: %v", junk, got)
		}
	}
}

// serialSweep is the seed's sweep loop, kept as the reference the engine
// path must match byte for byte: one baseline per app, then every grid
// point simulated serially via resonance.Simulate.
func serialSweep(g sweepGrid, w *bytes.Buffer) error {
	fmt.Fprintln(w, csvHeader)
	for _, app := range g.apps {
		base, err := resonance.Simulate(resonance.SimulationSpec{App: app, Instructions: g.insts})
		if err != nil {
			return err
		}
		for _, initial := range g.initials {
			for _, th := range g.thresholds {
				for _, second := range g.seconds {
					cfg := resonance.DefaultTuningConfig(initial)
					cfg.InitialResponseThreshold = th
					if cfg.SecondResponseThreshold <= th {
						cfg.SecondResponseThreshold = th + 1
					}
					cfg.SecondResponseCycles = second
					res, err := resonance.Simulate(resonance.SimulationSpec{
						App: app, Instructions: g.insts,
						Technique: resonance.TechniqueTuning, Tuning: &cfg,
					})
					if err != nil {
						return err
					}
					slow := float64(res.Cycles) / float64(base.Cycles)
					energy := res.EnergyJ / base.EnergyJ
					fmt.Fprintf(w, "%s,%d,%d,%d,%.4f,%.4f,%.4f,%d,%d\n",
						app, initial, th, second, slow, energy, slow*energy,
						base.Violations, res.Violations)
				}
			}
		}
	}
	return nil
}

// tinyGrid keeps end-to-end tests fast.
func tinyGrid() sweepGrid {
	return sweepGrid{
		apps:       []string{"lucas", "parser"},
		insts:      20_000,
		initials:   []int{75, 100},
		thresholds: []int{1, 2},
		seconds:    []int{35},
	}
}

// TestSweepMatchesSerial: the parallel cached engine sweep emits exactly
// the CSV the seed's serial loop emitted.
func TestSweepMatchesSerial(t *testing.T) {
	g := tinyGrid()
	var want bytes.Buffer
	if err := serialSweep(g, &want); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	eng := engine.New(engine.Options{Parallelism: 4})
	if err := runSweep(context.Background(), eng, g, &got, nil); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("engine sweep diverged from serial reference:\n--- serial ---\n%s--- engine ---\n%s", want.String(), got.String())
	}
}

// TestSweepErrorNamesGridPoint: a failing point is reported with its
// coordinates, before anything is simulated.
func TestSweepErrorNamesGridPoint(t *testing.T) {
	g := tinyGrid()
	g.apps = []string{"lucas", "no-such-app"}
	var sink bytes.Buffer
	err := runSweep(context.Background(), engine.New(engine.Options{}), g, &sink, nil)
	if err == nil {
		t.Fatal("sweep accepted an unknown application")
	}
	if !strings.Contains(err.Error(), "no-such-app") {
		t.Errorf("error does not identify the failing point: %v", err)
	}

	// Baselines succeed but a tuned grid point fails: the error must
	// carry the grid coordinates.
	g = tinyGrid()
	g.initials = []int{75, -1}
	eng := engine.New(engine.Options{})
	err = runSweep(context.Background(), eng, g, &sink, nil)
	if err == nil {
		t.Fatal("sweep accepted a negative response time")
	}
	if !strings.Contains(err.Error(), "app=lucas initial=-1 threshold=1 second=35") {
		t.Errorf("error does not identify the failing grid point: %v", err)
	}
	if n := eng.CacheStats().Misses; n != 0 {
		t.Errorf("a sweep with an invalid point simulated %d specs, want 0", n)
	}

	// A grid of another technique names its points by application,
	// technique and network.
	g = tinyGrid()
	g.technique, g.pdn = "no-such-kind", circuit.NetworkTwoStage
	err = runSweep(context.Background(), engine.New(engine.Options{}), g, &sink, nil)
	if err == nil {
		t.Fatal("sweep accepted an unknown technique")
	}
	if !strings.Contains(err.Error(), "app=lucas technique=no-such-kind pdn=twostage") {
		t.Errorf("error does not identify the failing grid point: %v", err)
	}
}

// TestSweepReusesBaselines: every baseline demanded by the grid is
// served from the same cache the grid shares; a second identical sweep
// is entirely cache hits.
func TestSweepReusesBaselines(t *testing.T) {
	g := tinyGrid()
	eng := engine.New(engine.Options{Parallelism: 2})
	var first bytes.Buffer
	if err := runSweep(context.Background(), eng, g, &first, nil); err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	wantRuns := uint64(len(g.apps) * (1 + len(g.initials)*len(g.thresholds)*len(g.seconds)))
	if st.Misses != wantRuns {
		t.Errorf("first sweep simulated %d points, want %d", st.Misses, wantRuns)
	}
	var second bytes.Buffer
	if err := runSweep(context.Background(), eng, g, &second, nil); err != nil {
		t.Fatal(err)
	}
	st2 := eng.CacheStats()
	if st2.Misses != st.Misses {
		t.Errorf("second sweep re-simulated: misses %d → %d", st.Misses, st2.Misses)
	}
	if first.String() != second.String() {
		t.Error("cached sweep emitted different CSV")
	}
}

// TestTechniqueKindValidation: every registered kind is accepted and
// listed; junk is rejected.
func TestTechniqueKindValidation(t *testing.T) {
	list := kindList()
	for _, k := range engine.Kinds() {
		if !validKind(k) {
			t.Errorf("registered kind %q rejected", k)
		}
		if !strings.Contains(list, string(k)) {
			t.Errorf("kind list %q omits %q", list, k)
		}
	}
	if !validKind("") {
		t.Error("empty kind (default tuning) rejected")
	}
	if validKind("no-such-technique") {
		t.Error("unknown kind accepted")
	}
	for _, want := range []string{"base", "tuning", "voltctl", "damping", "convctl", "wavelet", "dual-band"} {
		if !strings.Contains(list, want) {
			t.Errorf("kind list %q missing %q", list, want)
		}
	}
}

// TestSweepTechniqueFlag: a non-tuning technique collapses the grid to
// one default-configuration point per app and sweeps cleanly.
func TestSweepTechniqueFlag(t *testing.T) {
	for _, kind := range []engine.TechniqueKind{engine.TechniqueVoltageControl, engine.TechniqueDualBand} {
		g := tinyGrid()
		g.insts = 10_000
		g.technique = kind
		if got := len(g.points()); got != len(g.apps) {
			t.Fatalf("technique %s: %d grid points, want one per app (%d)", kind, got, len(g.apps))
		}
		var out bytes.Buffer
		if err := runSweep(context.Background(), engine.New(engine.Options{Parallelism: 2}), g, &out, nil); err != nil {
			t.Fatalf("technique %s: %v", kind, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != 1+len(g.apps) {
			t.Errorf("technique %s: %d CSV lines, want header + %d rows:\n%s", kind, len(lines), len(g.apps), out.String())
		}
	}
}

// TestNetworkKindValidation: every registered PDN kind is accepted and
// listed in the -pdn usage/error text; junk is rejected.
func TestNetworkKindValidation(t *testing.T) {
	list := netKindList()
	for _, k := range circuit.NetworkKinds() {
		if !validNetKind(k) {
			t.Errorf("registered network kind %q rejected", k)
		}
		if !strings.Contains(list, k) {
			t.Errorf("network kind list %q omits %q", list, k)
		}
	}
	if !validNetKind("") {
		t.Error("empty kind (default supply) rejected")
	}
	if validNetKind("mesh") {
		t.Error("unknown network kind accepted")
	}
	for _, want := range []string{"lumped", "twostage", "multidomain"} {
		if !strings.Contains(list, want) {
			t.Errorf("network kind list %q missing %q", list, want)
		}
	}
}

// TestSweepPDNEndToEnd sweeps a small tuning grid over the two-domain
// PDN through a persistent cache twice: the cold pass simulates every
// point exactly once, and the warm replay — a fresh engine over the same
// directory — serves the byte-identical CSV entirely from disk with zero
// sim misses, which is the sharded coordinator's merge contract.
func TestSweepPDNEndToEnd(t *testing.T) {
	g := sweepGrid{
		apps:       []string{"lucas", "parser"},
		insts:      20_000,
		pdn:        circuit.NetworkMultiDomain,
		initials:   []int{75, 100},
		thresholds: []int{1},
		seconds:    []int{35},
	}
	dir := t.TempDir()

	cold := engine.New(engine.Options{Parallelism: 2, DiskCacheDir: dir})
	var first bytes.Buffer
	if err := runSweep(context.Background(), cold, g, &first, nil); err != nil {
		t.Fatal(err)
	}
	st := cold.CacheStats()
	wantRuns := uint64(len(g.apps) * (1 + len(g.points())/len(g.apps)))
	if st.Misses != wantRuns {
		t.Errorf("cold sweep simulated %d points, want %d", st.Misses, wantRuns)
	}

	warm := engine.New(engine.Options{Parallelism: 2, DiskCacheDir: dir})
	var second bytes.Buffer
	if err := runSweep(context.Background(), warm, g, &second, nil); err != nil {
		t.Fatal(err)
	}
	st2 := warm.CacheStats()
	if st2.Misses != 0 {
		t.Errorf("warm replay re-simulated %d points, want sim_misses=0", st2.Misses)
	}
	if st2.DiskHits == 0 {
		t.Error("warm replay served no points from the disk cache")
	}
	if first.String() != second.String() {
		t.Errorf("warm replay CSV diverged:\n--- cold ---\n%s--- warm ---\n%s", first.String(), second.String())
	}

	// The PDN must actually reach the simulated system: the same grid
	// without it keys — and simulates — differently.
	gLumped := g
	gLumped.pdn = ""
	var lumped bytes.Buffer
	if err := runSweep(context.Background(), warm, gLumped, &lumped, nil); err != nil {
		t.Fatal(err)
	}
	if warm.CacheStats().Misses == 0 {
		t.Error("default-supply sweep was served from the multi-domain cache entries")
	}
	if lumped.String() == first.String() {
		t.Error("multi-domain sweep emitted the same CSV as the default supply")
	}
}

// benchGrid is the default flag grid (4 apps × 4 initials × 2 thresholds
// × 1 hold) at a reduced instruction budget so a benchmark iteration
// stays in seconds.
func benchGrid() sweepGrid {
	return sweepGrid{
		apps:       []string{"lucas", "swim", "bzip", "parser"},
		insts:      30_000,
		initials:   []int{75, 100, 150, 200},
		thresholds: []int{1, 2},
		seconds:    []int{35},
	}
}

// BenchmarkSweepSerial measures the seed's serial loop on the default
// grid shape.
func BenchmarkSweepSerial(b *testing.B) {
	g := benchGrid()
	for i := 0; i < b.N; i++ {
		var out bytes.Buffer
		if err := serialSweep(g, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepEngine measures the engine-backed sweep (parallel, cold
// cache each iteration) on the same grid.
func BenchmarkSweepEngine(b *testing.B) {
	g := benchGrid()
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.Options{})
		var out bytes.Buffer
		if err := runSweep(context.Background(), eng, g, &out, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepEngineWarm measures a re-sweep against a warm cache —
// the figure-regeneration case where every point is already known.
func BenchmarkSweepEngineWarm(b *testing.B) {
	g := benchGrid()
	eng := engine.New(engine.Options{})
	var prime bytes.Buffer
	if err := runSweep(context.Background(), eng, g, &prime, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out bytes.Buffer
		if err := runSweep(context.Background(), eng, g, &out, nil); err != nil {
			b.Fatal(err)
		}
	}
}
