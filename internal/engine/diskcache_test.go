package engine

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/sim"
)

func diskSpecs() []Spec {
	return []Spec{
		{App: "swim", Instructions: 20_000},
		{App: "swim", Instructions: 20_000, Technique: TechniqueTuning},
		{App: "parser", Instructions: 20_000, Technique: TechniqueDamping},
	}
}

// TestDiskCacheRoundTrip: a fresh engine pointed at a warm cache
// directory serves bit-identical results without simulating anything.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	specs := diskSpecs()

	cold := New(Options{DiskCacheDir: dir})
	want, err := cold.RunAll(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.CacheStats(); st.Misses != uint64(len(specs)) || st.DiskWrites != uint64(len(specs)) || st.DiskHits != 0 {
		t.Fatalf("cold stats = %+v, want %d misses and writes, 0 disk hits", st, len(specs))
	}

	warm := New(Options{DiskCacheDir: dir})
	got, err := warm.RunAll(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.CacheStats()
	if st.Misses != 0 {
		t.Errorf("warm engine simulated %d specs, want 0", st.Misses)
	}
	if st.DiskHits != uint64(len(specs)) {
		t.Errorf("warm engine disk hits = %d, want %d", st.DiskHits, len(specs))
	}
	for i := range specs {
		if want[i] != got[i] {
			t.Errorf("spec %d: disk round trip diverged:\n%+v\n%+v", i, want[i], got[i])
		}
	}
}

// TestDiskCacheCorruptEntryTolerated: a truncated or garbage entry is a
// miss — the spec re-simulates, returns the correct result, and the
// entry is rewritten valid.
func TestDiskCacheCorruptEntryTolerated(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{App: "swim", Instructions: 20_000}
	want, err := New(Options{DiskCacheDir: dir}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache dir holds %d entries (%v), want 1", len(files), err)
	}
	for _, garbage := range []string{"", "{\"v\":999,\"result\":{}}", "not json at all"} {
		if err := os.WriteFile(files[0], []byte(garbage), 0o644); err != nil {
			t.Fatal(err)
		}
		e := New(Options{DiskCacheDir: dir})
		got, err := e.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("result after corrupt entry %q diverged:\n%+v\n%+v", garbage, want, got)
		}
		if st := e.CacheStats(); st.Misses != 1 || st.DiskHits != 0 || st.DiskWrites != 1 {
			t.Errorf("corrupt entry %q: stats = %+v, want a re-simulation and a rewrite", garbage, st)
		}
		// The rewritten entry must now serve a fresh engine from disk.
		e2 := New(Options{DiskCacheDir: dir})
		if _, err := e2.Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		if st := e2.CacheStats(); st.DiskHits != 1 {
			t.Errorf("rewritten entry not served from disk: %+v", st)
		}
	}
}

// TestDiskCacheIgnoresErrors: failed simulations are never persisted,
// and an unwritable directory degrades to simulate-every-time rather
// than failing runs.
func TestDiskCacheIgnoresErrors(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{DiskCacheDir: dir})
	if _, err := e.Run(context.Background(), Spec{App: "no-such-app"}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Errorf("failed run persisted to disk: %v", files)
	}

	if st := e.CacheStats(); st.DiskWriteErrors != 0 {
		t.Errorf("a failed run counted %d disk write errors, want 0", st.DiskWriteErrors)
	}

	// A file where the cache dir, or its parent, should be: stores fail
	// and are counted, runs succeed. (Permission bits would not do: the
	// suite may run as root.)
	blocked := filepath.Join(t.TempDir(), "blocked")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{blocked, filepath.Join(blocked, "cache")} {
		e2 := New(Options{DiskCacheDir: dir})
		if _, err := e2.Run(context.Background(), Spec{App: "swim", Instructions: 10_000}); err != nil {
			t.Fatalf("unwritable cache dir %s broke the run: %v", dir, err)
		}
		if st := e2.CacheStats(); st.DiskWrites != 0 || st.DiskWriteErrors != 1 || st.Misses != 1 {
			t.Errorf("stats with unwritable dir %s = %+v, want 1 miss, 0 writes, 1 write error", dir, st)
		}
	}
}

// TestDiskCacheGC: the construction-time sweep removes exactly the
// files that can never be served again — old-schema entries (their keys
// differ from the current version's, so they orphan forever), corrupt
// entries, and abandoned temp files — while live entries, fresh temp
// files, and foreign files survive.
func TestDiskCacheGC(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{App: "swim", Instructions: 20_000}
	want, err := New(Options{DiskCacheDir: dir}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	v1 := write(strings.Repeat("ab", 32)+".json", `{"v":1,"result":{"App":"swim"}}`)
	corrupt := write(strings.Repeat("cd", 32)+".json", "not json at all")
	staleTmp := write("tmp-stale", "partial write")
	old := time.Now().Add(-2 * gcTmpAge)
	if err := os.Chtimes(staleTmp, old, old); err != nil {
		t.Fatal(err)
	}
	freshTmp := write("tmp-fresh", "in-flight write")
	foreign := write("NOTES.txt", "not ours")

	e := New(Options{DiskCacheDir: dir, DiskCacheGC: true})
	if st := e.CacheStats(); st.DiskGCRemoved != 3 {
		t.Errorf("DiskGCRemoved = %d, want 3 (v1 + corrupt + stale tmp)", st.DiskGCRemoved)
	}
	for _, p := range []string{v1, corrupt, staleTmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("gc left stale file %s", filepath.Base(p))
		}
	}
	for _, p := range []string{freshTmp, foreign} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("gc removed live/foreign file %s: %v", filepath.Base(p), err)
		}
	}

	// The live current-version entry still serves from disk.
	got, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("entry after gc diverged:\n%+v\n%+v", want, got)
	}
	if st := e.CacheStats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Errorf("stats after gc = %+v, want the surviving entry served from disk", st)
	}

	// Without the option, nothing is swept.
	e2 := New(Options{DiskCacheDir: t.TempDir()})
	if st := e2.CacheStats(); st.DiskGCRemoved != 0 {
		t.Errorf("gc ran without DiskCacheGC: removed %d", st.DiskGCRemoved)
	}
}

// TestErroredEntryEvicted: a failed simulation does not poison the
// memory tier — the entry count stays at zero and a retry of the same
// spec simulates again.
func TestErroredEntryEvicted(t *testing.T) {
	e := New(Options{})
	// An unknown app passes Key() (normalization doesn't resolve apps)
	// but fails in Execute — the interesting path for entry eviction.
	bad := Spec{App: "no-such-app"}
	for i := 1; i <= 2; i++ {
		if _, err := e.Run(context.Background(), bad); err == nil {
			t.Fatal("invalid spec accepted")
		}
		st := e.CacheStats()
		if st.Entries != 0 {
			t.Fatalf("attempt %d: errored entry retained (%d entries)", i, st.Entries)
		}
		if st.Misses != uint64(i) {
			t.Fatalf("attempt %d: misses = %d, want %d (each retry must re-execute)", i, st.Misses, st.Misses)
		}
	}
}

// TestWarmBatchAtFullWidth: a warm RunAll keys and probes on every
// worker and still serves each spec exactly once from the right tier,
// with one progress call per index and the cold pass's results; a spec
// that cannot be keyed fails the batch with the same error as before
// those phases ran in parallel.
func TestWarmBatchAtFullWidth(t *testing.T) {
	var distinct []Spec
	for _, app := range []string{"swim", "gzip", "lucas", "parser", "art"} {
		for _, kind := range circuit.NetworkKinds() {
			for _, tech := range Kinds() {
				s := Spec{App: app, Instructions: 2_000, Technique: tech, PDN: &circuit.NetworkConfig{Kind: kind}}
				if s.Validate() == nil {
					distinct = append(distinct, s)
				}
			}
		}
	}
	if len(distinct) < 100 {
		t.Fatalf("%d distinct specs, want at least 100", len(distinct))
	}
	dir := t.TempDir()
	cold := New(Options{Parallelism: 4, DiskCacheDir: dir})
	want, err := cold.RunAll(context.Background(), distinct, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Every seventh spec again, as a duplicate later in the batch.
	specs := append([]Spec(nil), distinct...)
	wantAt := append([]sim.Result(nil), want...)
	for i := 0; i < len(distinct); i += 7 {
		specs = append(specs, distinct[i])
		wantAt = append(wantAt, want[i])
	}
	dups := len(specs) - len(distinct)

	e := New(Options{Parallelism: 4, DiskCacheDir: dir})
	if _, err := e.Run(context.Background(), distinct[3]); err != nil { // now a memory hit
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := make([]int, len(specs))
	got, err := e.RunAll(context.Background(), specs, func(i int, res sim.Result) {
		mu.Lock()
		defer mu.Unlock()
		calls[i]++
		if res != wantAt[i] {
			t.Errorf("progress for spec %d carries another result", i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if calls[i] != 1 {
			t.Errorf("spec %d: %d progress calls, want 1", i, calls[i])
		}
		if got[i] != wantAt[i] {
			t.Errorf("spec %d: warm result differs from the cold pass", i)
		}
	}
	st := e.CacheStats()
	if st.Misses != 0 || st.DiskHits != uint64(len(distinct)) || st.Hits != uint64(dups+1) || st.DiskWrites != 0 {
		t.Errorf("warm stats %+v, want 0 misses, %d disk hits (one before the batch), %d memory hits", st, len(distinct), dups+1)
	}

	// The same batch with an unknown technique in it, on a fresh engine.
	bad := append(append([]Spec(nil), specs[:7]...), Spec{App: "swim", Technique: "warp"})
	bad = append(bad, specs[7:]...)
	e2 := New(Options{Parallelism: 4, DiskCacheDir: dir})
	_, err = e2.RunAll(context.Background(), bad, nil)
	const wantErr = `engine: spec 7 (app=swim, technique=warp): engine: unknown technique "warp" (registered kinds: [base tuning voltctl damping convctl wavelet dual-band domain-tuning])`
	if err == nil || err.Error() != wantErr {
		t.Errorf("batch with an unknown technique: error %v, want %s", err, wantErr)
	}
	if st := e2.CacheStats(); st.Misses != 0 || st.DiskHits != uint64(len(distinct)) || st.Hits != uint64(dups) {
		t.Errorf("stats after the failed batch %+v, want 0 misses, %d disk hits, %d memory hits", st, len(distinct), dups)
	}
}
