package engine

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/baselines/damping"
	"repro/internal/circuit"
	"repro/internal/sim"
)

// testSpecs is a small mixed batch: every technique, one shared baseline
// duplicated so the cache has something to coalesce.
func testSpecs() []Spec {
	tc := DefaultTuningConfig(75)
	return []Spec{
		{App: "swim", Instructions: 50_000},
		{App: "swim", Instructions: 50_000, Technique: TechniqueTuning},
		{App: "swim", Instructions: 50_000, Technique: TechniqueTuning, Tuning: &tc},
		{App: "lucas", Instructions: 50_000, Technique: TechniqueVoltageControl},
		{App: "parser", Instructions: 50_000, Technique: TechniqueDamping},
		{App: "swim", Instructions: 50_000}, // duplicate of 0
	}
}

// TestParallelismInvariance: the same batch run with 1 worker and N
// workers produces bit-identical Results, equal to spec-by-spec Execute.
func TestParallelismInvariance(t *testing.T) {
	specs := testSpecs()
	serial, err := New(Options{Parallelism: 1}).RunAll(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(Options{Parallelism: 8}).RunAll(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if serial[i] != parallel[i] {
			t.Errorf("spec %d: parallel run diverged:\n%+v\n%+v", i, serial[i], parallel[i])
		}
		alone, err := Execute(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if serial[i] != alone {
			t.Errorf("spec %d: Execute diverged:\n%+v\n%+v", i, serial[i], alone)
		}
	}
}

// TestWarmCacheInvariance: a warm-cache replay returns bit-identical
// Results without simulating anything.
func TestWarmCacheInvariance(t *testing.T) {
	specs := testSpecs()
	e := New(Options{Parallelism: 4})
	cold, err := e.RunAll(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := e.CacheStats()
	if st.Misses != 5 { // 6 specs, one duplicate
		t.Errorf("cold batch simulated %d specs, want 5", st.Misses)
	}
	if st.Hits != 1 {
		t.Errorf("cold batch hit %d, want 1 (the duplicate)", st.Hits)
	}
	warm, err := e.RunAll(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	st2 := e.CacheStats()
	if st2.Misses != st.Misses {
		t.Errorf("warm batch re-simulated: misses %d → %d", st.Misses, st2.Misses)
	}
	for i := range specs {
		if cold[i] != warm[i] {
			t.Errorf("spec %d: warm result diverged:\n%+v\n%+v", i, cold[i], warm[i])
		}
	}
}

// TestRunMatchesExecute: the pooled, cached path returns exactly what a
// direct Execute returns.
func TestRunMatchesExecute(t *testing.T) {
	for _, spec := range testSpecs()[:5] {
		direct, err := Execute(spec)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := New(Options{}).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if direct != pooled {
			t.Errorf("Run diverged from Execute for %s/%s:\n%+v\n%+v",
				spec.App, spec.Technique, direct, pooled)
		}
	}
}

// TestProgressCallback: progress fires once per spec, serialized, with
// the spec's own result.
func TestProgressCallback(t *testing.T) {
	specs := testSpecs()
	var mu sync.Mutex
	seen := make(map[int]sim.Result)
	e := New(Options{Parallelism: 4})
	results, err := e.RunAll(context.Background(), specs, func(i int, res sim.Result) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := seen[i]; dup {
			t.Errorf("progress fired twice for spec %d", i)
		}
		seen[i] = res
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(specs) {
		t.Errorf("progress fired %d times, want %d", len(seen), len(specs))
	}
	for i, res := range seen {
		if res != results[i] {
			t.Errorf("progress result %d diverged from batch result", i)
		}
	}
}

// TestRunAllErrorNamesSpec: RunAll's default labels identify the spec.
func TestRunAllErrorNamesSpec(t *testing.T) {
	specs := []Spec{{App: "swim", Instructions: 10_000}, {App: "gone", Instructions: 10_000}}
	_, err := New(Options{}).RunAll(context.Background(), specs, nil)
	if err == nil {
		t.Fatal("RunAll accepted an unknown app")
	}
	if !strings.Contains(err.Error(), "spec 1") || !strings.Contains(err.Error(), "gone") {
		t.Errorf("error does not identify the failing spec: %v", err)
	}
}

// TestCancellation: a cancelled context aborts the batch with ctx.Err.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := make([]Spec, 64)
	for i := range specs {
		specs[i] = Spec{App: "swim", Instructions: 1_000_000}
	}
	if _, err := New(Options{Parallelism: 2}).RunAll(ctx, specs, nil); err != context.Canceled {
		t.Errorf("cancelled batch returned %v, want context.Canceled", err)
	}
	if _, err := New(Options{}).Run(ctx, Spec{App: "swim"}); err != context.Canceled {
		t.Errorf("cancelled Run returned %v, want context.Canceled", err)
	}
}

// TestUnknownTechnique: a junk technique is an error, not a panic.
func TestUnknownTechnique(t *testing.T) {
	if _, err := Execute(Spec{App: "swim", Technique: "warp-drive"}); err == nil {
		t.Error("unknown technique accepted")
	}
	if _, err := New(Options{}).Run(context.Background(), Spec{App: "swim", Technique: "warp-drive"}); err == nil {
		t.Error("unknown technique accepted by Run")
	}
}

// TestInvalidConfigIsError: unusable technique configurations come back
// as errors (the raw constructors panic).
func TestInvalidConfigIsError(t *testing.T) {
	tc := DefaultTuningConfig(-1)
	if _, err := Execute(Spec{App: "swim", Technique: TechniqueTuning, Tuning: &tc}); err == nil {
		t.Error("negative response time accepted")
	}
	dc := damping.Config{WindowCycles: 1, DeltaAmps: -3}
	if _, err := Execute(Spec{App: "swim", Technique: TechniqueDamping, Damping: &dc}); err == nil {
		t.Error("invalid damping config accepted")
	}
	// An empty per-domain section matches the zero domains of a network
	// that does not exist; only the network check catches the spec, and
	// Execute must report it as Validate does, not as the constructor's
	// panic.
	bogus := Spec{App: "swim", Technique: TechniqueDomainTuning, DomainTuning: &DomainTuningConfig{},
		PDN: &circuit.NetworkConfig{Kind: "bogus"}}
	verr := bogus.Validate()
	if verr == nil {
		t.Fatal("Validate accepted an unknown network kind")
	}
	if _, err := Execute(bogus); err == nil || err.Error() != verr.Error() {
		t.Errorf("Execute returned %v, want Validate's %v", err, verr)
	}
}

// nonFiniteSpec passes ValidKey but simulates to a Result holding +Inf:
// the Table 1 system with a peak power no float64 sum can hold.
func nonFiniteSpec() Spec {
	cfg := sim.DefaultConfig()
	cfg.Power.PeakWatts = 1e308
	return Spec{App: "swim", Instructions: 2_000, System: &cfg}
}

// TestNonFiniteResultFails: a run whose Result holds NaN or ±Inf fails
// with an error naming the field, through Execute and RunAll alike; it
// is neither cached in memory nor stored on disk, so a second run
// simulates again.
func TestNonFiniteResultFails(t *testing.T) {
	spec := nonFiniteSpec()
	if _, err := spec.ValidKey(); err != nil {
		t.Fatalf("the spec does not pass ValidKey: %v", err)
	}
	const want = "result field PeakDeviationV is +Inf"
	if _, err := Execute(spec); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Execute: error %v, want one containing %q", err, want)
	}
	dir := t.TempDir()
	e := New(Options{DiskCacheDir: dir})
	for run := 1; run <= 2; run++ {
		if _, err := e.RunAll(context.Background(), []Spec{spec}, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("run %d: RunAll error %v, want one containing %q", run, err, want)
		}
		if st := e.CacheStats(); st.Misses != uint64(run) || st.Entries != 0 || st.DiskWrites != 0 || st.DiskWriteErrors != 0 {
			t.Errorf("run %d: stats %s, want %d misses and nothing cached or stored", run, counters(st), run)
		}
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("run %d: the disk tier holds %d names, want none", run, len(files))
		}
	}
}
