package engine

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// assertAllEntriesClosed fails the test if the engine's memory tier
// holds an unresolved entry (a hung-waiter hazard) or a resolved entry
// carrying an error (errored entries must be evicted, not cached).
func assertAllEntriesClosed(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	for k, en := range e.entries {
		select {
		case <-en.done:
			if en.err != nil {
				t.Errorf("entry %s resolved with error %v but was not evicted", k, en.err)
			}
		default:
			t.Errorf("entry %s never resolved: identical specs would hang forever", k)
		}
	}
}

// TestTracedFailureNeverDisplacesLiveEntry is the regression test for
// the displaced-entry lifecycle bug: a traced spec used to claim the
// memory-tier slot unconditionally, displacing an in-flight entry; when
// the traced run then failed, the eviction guard deleted the traced
// entry while the displaced run's good result never landed back in the
// map. A traced run must leave a live entry untouched.
func TestTracedFailureNeverDisplacesLiveEntry(t *testing.T) {
	e := New(Options{Parallelism: 2})
	// Keys fine (normalization doesn't resolve apps) but execution fails.
	spec := Spec{App: "no-such-app", Instructions: 10_000}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}

	// A live in-flight entry, as if another goroutine were simulating.
	live := &entry{done: make(chan struct{})}
	e.mu.Lock()
	e.entries[key] = live
	e.mu.Unlock()

	traced := spec
	traced.Trace = func(sim.TracePoint) {}
	if _, err := e.Run(context.Background(), traced); err == nil {
		t.Fatal("traced run of an unknown app succeeded")
	}

	e.mu.Lock()
	got := e.entries[key]
	e.mu.Unlock()
	if got != live {
		t.Fatal("traced failure displaced or evicted the live in-flight entry")
	}

	// The live run can still publish, and a later identical spec is
	// served from its entry.
	live.res = sim.Result{App: "marker"}
	close(live.done)
	res, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "marker" {
		t.Errorf("hit returned %+v, want the live entry's published result", res)
	}
	if st := e.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit (the wait) and 1 miss (the traced attempt)", st)
	}
}

// TestTracedSuccessPublishesOnlyIntoVacantSlot: a successful traced run
// makes its result available to later untraced consumers, but only by
// filling a vacant map slot — never by replacing an entry that is
// already there.
func TestTracedSuccessPublishesOnlyIntoVacantSlot(t *testing.T) {
	e := New(Options{Parallelism: 2})
	spec := Spec{App: "swim", Instructions: 20_000}
	traced := spec
	traced.Trace = func(sim.TracePoint) {}

	// Vacant slot: the traced result is published.
	want, err := e.Run(context.Background(), traced)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("untraced follow-up diverged:\n%+v\n%+v", want, got)
	}
	if st := e.CacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want the untraced run served from the traced publish", st)
	}

	// Occupied slot: the entry already present survives verbatim.
	spec2 := Spec{App: "lucas", Instructions: 20_000}
	key2, err := spec2.Key()
	if err != nil {
		t.Fatal(err)
	}
	sentinel := &entry{done: make(chan struct{}), res: sim.Result{App: "sentinel"}}
	close(sentinel.done)
	e.mu.Lock()
	e.entries[key2] = sentinel
	e.mu.Unlock()
	traced2 := spec2
	traced2.Trace = func(sim.TracePoint) {}
	if _, err := e.Run(context.Background(), traced2); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	kept := e.entries[key2]
	e.mu.Unlock()
	if kept != sentinel {
		t.Error("traced success displaced an existing entry")
	}
}

// TestConcurrentTracedAndUntracedIdenticalSpecs races traced and
// untraced requests for one spec from many goroutines: every request
// must return the identical result, every entry must resolve, and the
// counters must balance (each request is exactly one hit, disk hit, or
// miss).
func TestConcurrentTracedAndUntracedIdenticalSpecs(t *testing.T) {
	e := New(Options{Parallelism: 4})
	spec := Spec{App: "swim", Instructions: 20_000}
	want, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}

	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(traced bool) {
			defer wg.Done()
			s := spec
			if traced {
				s.Trace = func(sim.TracePoint) {}
			}
			res, err := e.Run(context.Background(), s)
			if err != nil {
				t.Errorf("run failed: %v", err)
				return
			}
			if res != want {
				t.Errorf("result diverged:\n%+v\n%+v", want, res)
			}
		}(i%2 == 0)
	}
	wg.Wait()

	assertAllEntriesClosed(t, e)
	st := e.CacheStats()
	if st.Hits+st.DiskHits+st.Misses != n {
		t.Errorf("counters do not balance: %+v over %d requests", st, n)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want exactly 1 for one distinct spec", st.Entries)
	}
}

// TestCancelledBatchResolvesAllClaims is the regression test for the
// undelivered-group leak: cancelling a batch could stop the group feeder
// before every claimed entry reached a worker, leaving entries in the
// map that never resolved — an identical spec in any later batch would
// then wait on them forever.
func TestCancelledBatchResolvesAllClaims(t *testing.T) {
	e := New(Options{Parallelism: 1})
	specs := make([]Spec, 24)
	for i := range specs {
		// Distinct instruction counts: distinct keys AND distinct
		// machine keys, so every spec is its own singleton group.
		specs[i] = Spec{App: "swim", Instructions: 40_000 + uint64(i)}
	}

	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	_, err := e.RunAll(ctx, specs, func(int, sim.Result) {
		once.Do(cancel) // cancel as soon as the first point completes
	})
	if err != context.Canceled {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	assertAllEntriesClosed(t, e)

	// The engine must remain fully usable: the same specs re-run clean.
	res, err := e.RunAll(context.Background(), specs, nil)
	if err != nil {
		t.Fatalf("re-run after cancellation failed: %v", err)
	}
	if len(res) != len(specs) {
		t.Fatalf("re-run returned %d results, want %d", len(res), len(specs))
	}
	assertAllEntriesClosed(t, e)

	// A batch cancelled before it starts must also resolve every claim.
	e2 := New(Options{Parallelism: 2})
	pre, precancel := context.WithCancel(context.Background())
	precancel()
	if _, err := e2.RunAll(pre, specs, nil); err != context.Canceled {
		t.Fatalf("pre-cancelled batch returned %v", err)
	}
	assertAllEntriesClosed(t, e2)
}

// TestRunKeyedCoalesces: N concurrent identical requests through the
// exported keyed entry point provably coalesce onto one simulation —
// one miss, N-1 hits, one shared result.
func TestRunKeyedCoalesces(t *testing.T) {
	e := New(Options{Parallelism: 2})
	spec := Spec{App: "swim", Instructions: 30_000}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	results := make([]sim.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.RunKeyed(context.Background(), key, spec)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	st := e.CacheStats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 for %d identical in-flight requests", st.Misses, n)
	}
	if st.Hits != n-1 {
		t.Errorf("hits = %d, want %d", st.Hits, n-1)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Errorf("request %d diverged from request 0", i)
		}
	}
}

// TestPanickingSimulationResolvesEntry: a panic escaping a simulation
// (here: a panicking trace callback) must come back as an error, leave
// no poisoned entry behind, and keep the engine serving.
func TestPanickingSimulationResolvesEntry(t *testing.T) {
	e := New(Options{Parallelism: 2})
	spec := Spec{App: "swim", Instructions: 10_000}
	boom := spec
	boom.Trace = func(sim.TracePoint) { panic("trace callback exploded") }
	_, err := e.Run(context.Background(), boom)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panicking run returned %v, want a panic-wrapping error", err)
	}
	assertAllEntriesClosed(t, e)

	// The engine still serves the spec normally.
	if _, err := e.Run(context.Background(), spec); err != nil {
		t.Fatalf("engine unusable after a panicking run: %v", err)
	}
	if got := e.Load(); got.InFlight != 0 || got.Queued != 0 {
		t.Errorf("load after quiescence = %+v, want zero (leaked slot)", got)
	}
}

// TestGroupPanicFailsEveryClaim: a panic outside the kernel's per-lane
// containment — here a technique constructor, registered for this test
// only — fails every spec of its lockstep group with an error, leaves
// no entry claimed, and keeps the engine serving.
func TestGroupPanicFailsEveryClaim(t *testing.T) {
	const kind TechniqueKind = "test-constructor-panic"
	Register(Descriptor{Kind: kind, Build: func(*Spec, Env) (sim.Technique, TraceHooks) {
		panic("constructor exploded")
	}})
	t.Cleanup(func() {
		delete(registry, kind)
		registryOrder = registryOrder[:len(registryOrder)-1]
	})
	group := []Spec{
		{App: "swim", Instructions: 5_000},
		{App: "swim", Instructions: 5_000, Technique: TechniqueTuning},
		{App: "swim", Instructions: 5_000, Technique: kind},
	}
	if _, err := Execute(group[2]); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("Execute returned %v, want a panic-wrapping error", err)
	}
	e := New(Options{Parallelism: 2})
	if _, err := e.RunAll(context.Background(), group, nil); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("RunAll returned %v, want a panic-wrapping error", err)
	}
	assertAllEntriesClosed(t, e)
	if st := e.CacheStats(); st.Entries != 0 || st.Misses != 3 {
		t.Errorf("stats %+v, want all 3 group specs failed and evicted", st)
	}
	if _, err := e.RunAll(context.Background(), group[:2], nil); err != nil {
		t.Fatalf("engine unusable after a group panic: %v", err)
	}
	if got := e.Load(); got.InFlight != 0 || got.Queued != 0 {
		t.Errorf("load after quiescence = %+v, want zero (leaked slot)", got)
	}
}

// stressSpec returns one of a small population of specs, some of which
// duplicate heavily (the coalescing surface) and some of which are
// unique per draw.
func stressSpec(r *rand.Rand, insts uint64) Spec {
	apps := []string{"swim", "lucas"}
	techs := []TechniqueKind{TechniqueNone, TechniqueTuning, TechniqueDamping}
	return Spec{
		App:          apps[r.Intn(len(apps))],
		Instructions: insts + uint64(r.Intn(3))*1000,
		Technique:    techs[r.Intn(len(techs))],
	}
}

// TestEngineLifecycleStress hammers Run/RunAll from many goroutines with
// duplicate keys, traced specs, and a warm disk tier, then asserts the
// lifecycle invariants: every entry resolved, and the counters balance
// exactly — hits + diskHits + misses == requests. Run under -race in CI.
func TestEngineLifecycleStress(t *testing.T) {
	const insts = 6_000
	dir := t.TempDir()

	// Pre-warm part of the disk tier so the stress engine sees all
	// three service tiers.
	warm := New(Options{DiskCacheDir: dir, Parallelism: 4})
	r0 := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		if _, err := warm.Run(context.Background(), stressSpec(r0, insts)); err != nil {
			t.Fatal(err)
		}
	}

	e := New(Options{DiskCacheDir: dir, Parallelism: 3})
	var requests atomic.Uint64
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 12; iter++ {
				switch r.Intn(3) {
				case 0: // single run
					s := stressSpec(r, insts)
					if _, err := e.Run(context.Background(), s); err != nil {
						t.Errorf("run: %v", err)
					}
					requests.Add(1)
				case 1: // traced run
					s := stressSpec(r, insts)
					var cycles atomic.Uint64
					s.Trace = func(sim.TracePoint) { cycles.Add(1) }
					if _, err := e.Run(context.Background(), s); err != nil {
						t.Errorf("traced run: %v", err)
					} else if cycles.Load() == 0 {
						t.Error("traced run never fired its callback")
					}
					requests.Add(1)
				default: // batch with duplicates
					batch := make([]Spec, 1+r.Intn(6))
					for i := range batch {
						batch[i] = stressSpec(r, insts)
					}
					if _, err := e.RunAll(context.Background(), batch, nil); err != nil {
						t.Errorf("batch: %v", err)
					}
					requests.Add(uint64(len(batch)))
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()

	assertAllEntriesClosed(t, e)
	st := e.CacheStats()
	if got, want := st.Hits+st.DiskHits+st.Misses, requests.Load(); got != want {
		t.Errorf("counters do not balance: hits %d + diskHits %d + misses %d = %d, want %d requests",
			st.Hits, st.DiskHits, st.Misses, got, want)
	}
	if got := e.Load(); got.InFlight != 0 || got.Queued != 0 {
		t.Errorf("load after quiescence = %+v, want zero", got)
	}
}

// TestEngineLifecycleStressErrors mixes failing specs and mid-flight
// cancellations into concurrent batches: whatever the interleaving,
// every claimed entry must resolve, errored entries must be evicted, and
// the engine must keep serving afterwards.
func TestEngineLifecycleStressErrors(t *testing.T) {
	const insts = 6_000
	e := New(Options{Parallelism: 2})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 8; iter++ {
				batch := make([]Spec, 2+r.Intn(5))
				for i := range batch {
					batch[i] = stressSpec(r, insts)
				}
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				mode := r.Intn(3)
				if mode == 0 {
					// Poison one spec: fails at execution, cancelling
					// the rest of the batch.
					batch[r.Intn(len(batch))].App = "no-such-app"
				} else if mode == 1 {
					ctx, cancel = context.WithCancel(ctx)
					var once sync.Once
					_, _ = e.RunAll(ctx, batch, func(int, sim.Result) { once.Do(cancel) })
					cancel()
					continue
				}
				_, _ = e.RunAll(ctx, batch, nil)
				cancel()
			}
		}(int64(w + 100))
	}
	wg.Wait()

	assertAllEntriesClosed(t, e)

	// Still serving: a clean batch completes and balances from here.
	r := rand.New(rand.NewSource(999))
	batch := make([]Spec, 8)
	for i := range batch {
		batch[i] = stressSpec(r, insts)
	}
	if _, err := e.RunAll(context.Background(), batch, nil); err != nil {
		t.Fatalf("engine unusable after error/cancel stress: %v", err)
	}
	assertAllEntriesClosed(t, e)
	if got := e.Load(); got.InFlight != 0 || got.Queued != 0 {
		t.Errorf("load after quiescence = %+v, want zero (leaked slot)", got)
	}
}
