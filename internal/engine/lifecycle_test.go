package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpu"
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

// TestCancelledBatchResolvesAllClaims: a batch cancelled mid-run must
// still resolve every entry it claimed, abandoning each group it has not
// started, or an identical spec in any later batch would wait on those
// entries forever.
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

// observePanicTech is the base machine's control with an Observe that
// panics on the first cycle.
type observePanicTech struct{}

func (observePanicTech) Name() string                      { return "observe-panic" }
func (observePanicTech) Next() (cpu.Throttle, sim.Phantom) { return cpu.Unlimited, sim.Phantom{} }
func (observePanicTech) Observe(*sim.Observation)          { panic("technique exploded") }

// TestPanickingSimulationResolvesEntry: a simulation that fails in a
// panic — here a technique whose Observe panics, added to the table for
// this test only — must come back as an error, resolve and evict its
// entry, free its worker slot, and keep the engine serving.
func TestPanickingSimulationResolvesEntry(t *testing.T) {
	const kind TechniqueKind = "test-observe-panic"
	saved := techniques
	techniques = append(techniques[:len(techniques):len(techniques)], Descriptor{Kind: kind, Build: func(*Spec, Env) (sim.Technique, TraceHooks) {
		return observePanicTech{}, TraceHooks{}
	}})
	t.Cleanup(func() { techniques = saved })
	e := New(Options{Parallelism: 2})
	spec := Spec{App: "swim", Instructions: 10_000}
	boom := spec
	boom.Technique = kind
	_, err := e.Run(context.Background(), boom)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panicking run returned %v, want a panic-wrapping error", err)
	}
	assertAllEntriesClosed(t, e)
	if st := e.CacheStats(); st.Entries != 0 || st.Misses != 1 {
		t.Errorf("stats %s, want the failed run counted and evicted", counters(st))
	}

	// The engine still serves the spec normally.
	if _, err := e.Run(context.Background(), spec); err != nil {
		t.Fatalf("engine unusable after a panicking run: %v", err)
	}
	if got := e.Load(); got.InFlight != 0 || got.Queued != 0 {
		t.Errorf("load after quiescence = %+v, want zero (leaked slot)", got)
	}
}

// TestGroupPanicFailsEveryClaim: a panic outside the kernel's per-lane
// containment — here a technique constructor, added to the table for
// this test only — fails every spec of its lockstep group with an
// error, leaves no entry claimed, and keeps the engine serving.
func TestGroupPanicFailsEveryClaim(t *testing.T) {
	const kind TechniqueKind = "test-constructor-panic"
	saved := techniques
	techniques = append(techniques[:len(techniques):len(techniques)], Descriptor{Kind: kind, Build: func(*Spec, Env) (sim.Technique, TraceHooks) {
		panic("constructor exploded")
	}})
	t.Cleanup(func() { techniques = saved })
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
		t.Errorf("stats %s, want all 3 group specs failed and evicted", counters(st))
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

// TestEngineLifecycleStress hammers Run, RunKeyed and RunAll from many
// goroutines with duplicate keys and a warm disk tier, then asserts the
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
				case 1: // keyed run
					s := stressSpec(r, insts)
					k, err := s.Key()
					if err != nil {
						t.Errorf("key: %v", err)
						continue
					}
					if _, err := e.RunKeyed(context.Background(), k, s); err != nil {
						t.Errorf("keyed run: %v", err)
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

// TestRunKeyedMemoryHitAllocatesNothing: a warm server's common case,
// RunKeyed finding its spec in the memory tier, costs one lock, one map
// lookup and one channel wait, and allocates nothing.
func TestRunKeyedMemoryHitAllocatesNothing(t *testing.T) {
	e := New(Options{Parallelism: 1})
	spec := Spec{App: "swim", Instructions: 5_000}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := e.RunKeyed(ctx, key, spec)
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Result
	allocs := testing.AllocsPerRun(200, func() {
		got, err = e.RunKeyed(ctx, key, spec)
	})
	if err != nil || got != want {
		t.Fatalf("memory hit returned %v, want the first run's result", err)
	}
	if allocs != 0 {
		t.Errorf("RunKeyed memory hit allocates %.1f times per call, want 0", allocs)
	}
}

// TestRunKeyedMatchesOneSpecRunAll: RunKeyed and a one-spec RunAll serve
// every outcome alike, down to the tier counters: the same result, or the
// same error (RunAll's annotated with the spec), from the same tier.
func TestRunKeyedMatchesOneSpecRunAll(t *testing.T) {
	spec := Spec{App: "swim", Instructions: 8_000}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	warmDir := t.TempDir()
	want, err := New(Options{DiskCacheDir: warmDir}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Keys fine (normalization doesn't resolve apps) but execution fails.
	bad := Spec{App: "no-such-app", Instructions: 8_000}
	_, rawErr := Execute(bad)
	if rawErr == nil {
		t.Fatal("unknown app executed")
	}
	runFirst := func(t *testing.T, e *Engine) {
		if _, err := e.Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	inFlight := &entry{done: make(chan struct{})}

	cases := []struct {
		name  string
		spec  Spec
		dir   string // disk tier; "" for none, "cold" for an empty one
		setup func(t *testing.T, e *Engine)
		// cancelWait cancels the call's context once it counts its hit.
		cancelWait bool
		wantErr    error // nil for success (then the result must be want)
		wantStats  CacheStats
	}{
		{name: "memory hit", spec: spec, setup: runFirst,
			wantStats: CacheStats{Hits: 1, Misses: 1, Entries: 1}},
		{name: "disk hit", spec: spec, dir: warmDir,
			wantStats: CacheStats{DiskHits: 1, Entries: 1}},
		{name: "simulated miss", spec: spec, dir: "cold",
			wantStats: CacheStats{Misses: 1, DiskWrites: 1, Entries: 1}},
		{name: "failing spec", spec: bad, wantErr: rawErr,
			wantStats: CacheStats{Misses: 1}},
		{name: "wait cancelled while another caller simulates", spec: spec, cancelWait: true,
			setup: func(t *testing.T, e *Engine) {
				e.mu.Lock()
				e.entries[key] = inFlight
				e.mu.Unlock()
			}, wantErr: context.Canceled,
			wantStats: CacheStats{Hits: 1, Entries: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			call := func(keyed bool) (sim.Result, error, *Engine) {
				dir := c.dir
				if dir == "cold" {
					dir = t.TempDir()
				}
				e := New(Options{Parallelism: 2, DiskCacheDir: dir})
				if c.setup != nil {
					c.setup(t, e)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if c.cancelWait {
					go func() {
						for e.CacheStats().Hits == 0 && ctx.Err() == nil {
							time.Sleep(time.Millisecond)
						}
						cancel()
					}()
				}
				if keyed {
					k, err := c.spec.Key()
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.RunKeyed(ctx, k, c.spec)
					return res, err, e
				}
				res, err := e.RunAll(ctx, []Spec{c.spec}, nil)
				if err != nil {
					return sim.Result{}, err, e
				}
				return res[0], nil, e
			}
			for _, keyed := range []bool{true, false} {
				via := "RunKeyed"
				if !keyed {
					via = "RunAll"
				}
				res, err, e := call(keyed)
				wantErr := c.wantErr
				if wantErr == rawErr && !keyed {
					wantErr = fmt.Errorf("engine: spec 0 (app=%s, technique=%s): %w", c.spec.App, c.spec.Technique, rawErr)
				}
				switch {
				case wantErr == nil && (err != nil || res != want):
					t.Errorf("%s returned %v, want the spec's result", via, err)
				case wantErr != nil && (err == nil || err.Error() != wantErr.Error()):
					t.Errorf("%s returned %v, want %v", via, err, wantErr)
				}
				if st := e.CacheStats(); st != c.wantStats {
					t.Errorf("%s stats %s, want %s", via, counters(st), counters(c.wantStats))
				}
				if c.cancelWait {
					continue // the other caller's entry is still in flight
				}
				assertAllEntriesClosed(t, e)
			}
		})
	}
	close(inFlight.done)
}

// TestRunAllKeyedMatchesRunAll: a batch brought with its keys is served
// exactly like the same batch keyed by RunAll — the same results, the
// same error for a failing spec, the same tier counters — cold, warm,
// and with a spec that fails at run time among warm ones.
func TestRunAllKeyedMatchesRunAll(t *testing.T) {
	good := append(groupSpecs(t, "swim"), Spec{App: "gzip", Instructions: 2_000})
	good = append(good, good[0]) // a duplicate: a memory hit
	// Keys fine (normalization doesn't resolve apps) but execution fails.
	bad := append(append([]Spec(nil), good...), Spec{App: "no-such-app", Instructions: 2_000})
	warmDir := t.TempDir()
	if _, err := New(Options{DiskCacheDir: warmDir}).RunAll(context.Background(), good, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		specs []Spec
		dir   string // "cold" for an empty disk tier
	}{
		{"cold", good, "cold"},
		{"warm", good, warmDir},
		{"failing spec", bad, warmDir},
	} {
		t.Run(c.name, func(t *testing.T) {
			keys := make([]Key, len(c.specs))
			for i, s := range c.specs {
				k, err := s.Key()
				if err != nil {
					t.Fatal(err)
				}
				keys[i] = k
			}
			run := func(keyed bool) ([]sim.Result, error, CacheStats) {
				dir := c.dir
				if dir == "cold" {
					dir = t.TempDir()
				}
				e := New(Options{Parallelism: 2, DiskCacheDir: dir})
				var res []sim.Result
				var err error
				if keyed {
					res, err = e.RunAllKeyed(context.Background(), c.specs, keys, nil)
				} else {
					res, err = e.RunAll(context.Background(), c.specs, nil)
				}
				assertAllEntriesClosed(t, e)
				return res, err, e.CacheStats()
			}
			want, wantErr, wantStats := run(false)
			got, err, st := run(true)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("RunAllKeyed error %v, RunAll's %v", err, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("RunAllKeyed returned %d results, RunAll %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("spec %d: RunAllKeyed's result differs from RunAll's", i)
				}
			}
			if st != wantStats {
				t.Errorf("RunAllKeyed stats %s, RunAll's %s", counters(st), counters(wantStats))
			}
		})
	}
	if _, err := New(Options{}).RunAllKeyed(context.Background(), good, make([]Key, 1), nil); err == nil {
		t.Error("RunAllKeyed accepted one key for several specs")
	}
}
