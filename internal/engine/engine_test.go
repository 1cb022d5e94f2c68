package engine

import (
	"context"
	"strings"
	"sync"
	"testing"

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

// TestTracedRunsSimulate: a Trace spec must execute (its callback fires)
// even when the result is already cached, and its result matches.
func TestTracedRunsSimulate(t *testing.T) {
	e := New(Options{})
	spec := Spec{App: "swim", Instructions: 30_000}
	plain, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var cycles int
	spec.Trace = func(sim.TracePoint) { cycles++ }
	traced, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 {
		t.Error("trace callback never fired on a warm cache")
	}
	if uint64(cycles) != traced.Cycles {
		t.Errorf("trace saw %d cycles, result has %d", cycles, traced.Cycles)
	}
	if plain != traced {
		t.Errorf("traced result diverged:\n%+v\n%+v", plain, traced)
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

// TestGridErrorNamesPoint: a failing grid point surfaces with its label.
func TestGridErrorNamesPoint(t *testing.T) {
	pts := []Point{
		{Label: "good point", Spec: Spec{App: "swim", Instructions: 10_000}},
		{Label: "bad point xyzzy", Spec: Spec{App: "no-such-app", Instructions: 10_000}},
	}
	_, err := New(Options{}).Grid(context.Background(), pts, nil)
	if err == nil {
		t.Fatal("grid accepted an unknown app")
	}
	if !strings.Contains(err.Error(), "bad point xyzzy") {
		t.Errorf("error does not carry the point label: %v", err)
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
	dc := DampingConfig{WindowCycles: 1, DeltaAmps: -3}
	if _, err := Execute(Spec{App: "swim", Technique: TechniqueDamping, Damping: &dc}); err == nil {
		t.Error("invalid damping config accepted")
	}
}
