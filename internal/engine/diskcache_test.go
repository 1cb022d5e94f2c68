package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
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
		t.Fatalf("cold stats = %s, want %d misses and writes, 0 disk hits", counters(st), len(specs))
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

// TestDiskCacheCorruptEntryTolerated: a truncated or garbage entry, or
// one written before results were stored by line, is a miss counted as a
// read fault — the spec re-simulates, returns the correct result, and
// the entry is rewritten valid.
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
	for _, garbage := range []string{"", "{\"v\":999,\"result\":{}}", "not json at all", "{\"v\":4,\"result\":{\"App\":\"swim\"}}"} {
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
		if st := e.CacheStats(); st.Misses != 1 || st.DiskHits != 0 || st.DiskWrites != 1 || st.DiskReadErrors != 1 {
			t.Errorf("corrupt entry %q: stats %s, want a read fault, a re-simulation and a rewrite", garbage, counters(st))
		}
		// The rewritten entry must now serve a fresh engine from disk.
		e2 := New(Options{DiskCacheDir: dir})
		if _, err := e2.Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		if st := e2.CacheStats(); st.DiskHits != 1 || st.DiskReadErrors != 0 {
			t.Errorf("rewritten entry not served from disk: %s", counters(st))
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
	// and are counted, runs succeed, and the probe finds no entry file,
	// which is a plain miss rather than a read fault. (Permission bits
	// would not do: the suite may run as root.)
	blocked := filepath.Join(t.TempDir(), "blocked")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{blocked, filepath.Join(blocked, "cache")} {
		e2 := New(Options{DiskCacheDir: dir})
		if _, err := e2.Run(context.Background(), Spec{App: "swim", Instructions: 10_000}); err != nil {
			t.Fatalf("unwritable cache dir %s broke the run: %v", dir, err)
		}
		if st := e2.CacheStats(); st.DiskWrites != 0 || st.DiskWriteErrors != 1 || st.Misses != 1 || st.DiskReadErrors != 0 {
			t.Errorf("stats with unwritable dir %s: %s, want 1 miss, 0 writes, 1 write error, 0 read errors", dir, counters(st))
		}
	}
}

// TestDiskCacheDirectoryOnEntryName: a directory squatting on an entry's
// name opens but does not read, so a probe counts it a read fault, not a
// plain miss; the run simulates, and its store cannot rename a file onto
// the name. Through each of two fresh engines the run succeeds with 1
// miss, 1 read fault and 1 write error, and leaves the directory there
// and no temp name behind.
func TestDiskCacheDirectoryOnEntryName(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{App: "swim", Instructions: 10_000}
	name := entryPaths(t, dir, []Spec{spec})[0]
	if err := os.Mkdir(name, 0o755); err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		e := New(Options{DiskCacheDir: dir})
		if _, err := e.Run(context.Background(), spec); err != nil {
			t.Fatalf("run %d: a directory on the entry's name broke the run: %v", run, err)
		}
		if st := e.CacheStats(); st.Misses != 1 || st.DiskReadErrors != 1 || st.DiskWriteErrors != 1 || st.DiskHits != 0 || st.DiskWrites != 0 {
			t.Errorf("run %d: stats %s, want 1 miss, 1 read fault, 1 write error", run, counters(st))
		}
		if info, err := os.Stat(name); err != nil || !info.IsDir() {
			t.Fatalf("run %d: the entry's name is no longer a directory (%v)", run, err)
		}
		noTempFiles(t, dir)
	}
}

// TestDiskCacheGC: the construction-time sweep removes exactly the
// files that can never be served again — old-schema entries (their keys
// differ from the current version's, so they orphan forever), corrupt
// entries, entries written before results were stored by line, and
// abandoned temp files — while live entries, fresh temp files, and
// foreign files (including a .json file whose name is not a key)
// survive.
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
	unkeyed := write(strings.Repeat("ef", 32)+".json", `{"v":4,"result":{"App":"swim"}}`)
	staleTmp := write("tmp-stale", "partial write")
	old := time.Now().Add(-2 * gcTmpAge)
	if err := os.Chtimes(staleTmp, old, old); err != nil {
		t.Fatal(err)
	}
	freshTmp := write("tmp-fresh", "in-flight write")
	foreign := write("NOTES.txt", "not ours")
	foreignJSON := write("notes.json", "not ours either") // not a key name

	e := New(Options{DiskCacheDir: dir, DiskCacheGC: true})
	if st := e.CacheStats(); st.DiskGCRemoved != 4 {
		t.Errorf("DiskGCRemoved = %d, want 4 (v1 + corrupt + unkeyed + stale tmp)", st.DiskGCRemoved)
	}
	for _, p := range []string{v1, corrupt, unkeyed, staleTmp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("gc left stale file %s", filepath.Base(p))
		}
	}
	for _, p := range []string{freshTmp, foreign, foreignJSON} {
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
		t.Errorf("stats after gc = %s, want the surviving entry served from disk", counters(st))
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
		t.Errorf("warm stats %s, want 0 misses, %d disk hits (one before the batch), %d memory hits", counters(st), len(distinct), dups+1)
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
		t.Errorf("stats after the failed batch %s, want 0 misses, %d disk hits, %d memory hits", counters(st), len(distinct), dups)
	}
}

// counters renders every CacheStats field by name, for failure
// messages: %+v on a CacheStats calls its String method, which prints
// only the cache-stats line.
func counters(st CacheStats) string {
	type fields CacheStats // the same fields without the String method
	return fmt.Sprintf("%+v", fields(st))
}

// groupSpecs is one lockstep group: app under every technique that
// validates on the default lumped network.
func groupSpecs(t *testing.T, app string) []Spec {
	t.Helper()
	var specs []Spec
	for _, tech := range Kinds() {
		s := Spec{App: app, Instructions: 2_000, Technique: tech}
		if s.Validate() == nil {
			specs = append(specs, s)
		}
	}
	if len(specs) < 3 {
		t.Fatalf("%d techniques validate on the lumped network, want at least 3", len(specs))
	}
	return specs
}

// entryPaths returns the disk-tier name of every spec's entry in dir.
func entryPaths(t *testing.T, dir string, specs []Spec) []string {
	t.Helper()
	d := diskCache{dir: dir}
	paths := make([]string, len(specs))
	for i, s := range specs {
		k, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = d.path(k)
	}
	return paths
}

// sameFiles reports whether every path names the same file as the first.
func sameFiles(t *testing.T, paths ...string) bool {
	t.Helper()
	first, err := os.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths[1:] {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(first, info) {
			return false
		}
	}
	return true
}

// noTempFiles fails the test if a tmp-* name is left in dir.
func noTempFiles(t *testing.T, dir string) {
	t.Helper()
	if tmps, _ := filepath.Glob(filepath.Join(dir, "tmp-*")); len(tmps) != 0 {
		t.Errorf("temp names left behind: %v", tmps)
	}
}

// TestDiskCacheGroupLayout: a cold RunAll stores each simulated lockstep
// group as one file, hard-linked under every member's name, with one
// disk write per result and no temp name left; each name serves its own
// result bit-identically to a fresh engine. Because the members share
// the file, garbage written through one member's name reaches its
// co-members too: each then reads as a fault and re-simulates.
func TestDiskCacheGroupLayout(t *testing.T) {
	dir := t.TempDir()
	a, b := groupSpecs(t, "swim"), groupSpecs(t, "gzip")
	specs := append(append([]Spec(nil), a...), b...)
	cold := New(Options{Parallelism: 2, DiskCacheDir: dir})
	want, err := cold.RunAll(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.CacheStats(); st.Misses != uint64(len(specs)) || st.DiskWrites != uint64(len(specs)) || st.DiskWriteErrors != 0 {
		t.Errorf("cold stats %s, want %d misses and disk writes, no write errors", counters(st), len(specs))
	}
	paths := entryPaths(t, dir, specs)
	pa, pb := paths[:len(a)], paths[len(a):]
	if !sameFiles(t, pa...) || !sameFiles(t, pb...) {
		t.Error("a group's names are not one file")
	}
	if sameFiles(t, pa[0], pb[0]) {
		t.Error("two groups share one file")
	}
	noTempFiles(t, dir)

	warm := New(Options{DiskCacheDir: dir})
	for i, s := range specs {
		got, err := warm.Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Errorf("spec %d (%s): disk result differs from the simulated one", i, s.Technique)
		}
	}
	if st := warm.CacheStats(); st.DiskHits != uint64(len(specs)) || st.Misses != 0 || st.DiskReadErrors != 0 {
		t.Errorf("warm stats %s, want %d disk hits and nothing else", counters(st), len(specs))
	}

	if err := os.WriteFile(pa[1], []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(Options{DiskCacheDir: dir})
	got, err := e.RunAll(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if got[i] != want[i] {
			t.Errorf("spec %d: result after the corrupt write differs", i)
		}
	}
	if st := e.CacheStats(); st.DiskReadErrors != uint64(len(a)) || st.Misses != uint64(len(a)) || st.DiskHits != uint64(len(b)) {
		t.Errorf("stats after corrupting one name %s, want %d read faults and misses, %d disk hits", counters(st), len(a), len(b))
	}
}

// TestDiskCacheMisplacedEntries: a name's own probe finds only the line
// for its own key. A name whose file holds its co-members' lines but not
// its own is still served in a batch with them, by its group's committed
// file read through a co-member's name; alone in its batch, a stale name
// inside a group — here a link to another group's live file — reads as a
// fault, is replaced by the group's own file, and the other group's file
// is not written in place.
func TestDiskCacheMisplacedEntries(t *testing.T) {
	dir := t.TempDir()
	a, b := groupSpecs(t, "swim"), groupSpecs(t, "gzip")
	pa, pb := entryPaths(t, dir, a), entryPaths(t, dir, b)
	wantA, err := New(Options{DiskCacheDir: dir}).RunAll(context.Background(), a, nil)
	if err != nil {
		t.Fatal(err)
	}

	blob, err := os.ReadFile(pa[0])
	if err != nil {
		t.Fatal(err)
	}
	own := []byte(strings.TrimSuffix(filepath.Base(pa[0]), ".json") + " ")
	var others []byte
	for _, line := range bytes.SplitAfter(blob, []byte("\n")) {
		if !bytes.HasPrefix(line, own) {
			others = append(others, line...)
		}
	}
	if len(others) == 0 || len(others) == len(blob) {
		t.Fatalf("group file of %d bytes has %d bytes of co-member lines", len(blob), len(others))
	}
	if err := os.Remove(pa[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pa[0], others, 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(Options{DiskCacheDir: dir})
	got, err := e.RunAll(context.Background(), a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if got[i] != wantA[i] {
			t.Errorf("spec %d: result differs after its line went missing", i)
		}
	}
	if st := e.CacheStats(); st.DiskReadErrors != 0 || st.Misses != 0 || st.DiskHits != uint64(len(a)) || st.DiskWrites != 0 {
		t.Errorf("stats %s, want %d disk hits and nothing else", counters(st), len(a))
	}

	if err := os.Link(pa[1], pb[0]); err != nil {
		t.Fatal(err)
	}
	e = New(Options{DiskCacheDir: dir})
	wantB, err := e.RunAll(context.Background(), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.DiskReadErrors != 1 || st.Misses != uint64(len(b)) || st.DiskWrites != uint64(len(b)) {
		t.Errorf("stats %s, want 1 read fault, %d misses and disk writes", counters(st), len(b))
	}
	if !sameFiles(t, pb...) {
		t.Error("the stale name was not replaced by its group's file")
	}
	noTempFiles(t, dir)

	e = New(Options{DiskCacheDir: dir})
	got, err = e.RunAll(context.Background(), append(append([]Spec(nil), a...), b...), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]sim.Result(nil), wantA...), wantB...)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("spec %d: disk result differs after the replacement", i)
		}
	}
	if st := e.CacheStats(); st.DiskHits != uint64(len(want)) || st.Misses != 0 || st.DiskReadErrors != 0 {
		t.Errorf("replay stats %s, want %d disk hits and nothing else", counters(st), len(want))
	}
}

// TestDiskCacheCrashMidPublish: a writer that dies while publishing
// leaves its temp file linked under only some members' names. Those
// names serve their results and the rest miss, and the gc sweep removes
// only the aged temp name, never a published one.
func TestDiskCacheCrashMidPublish(t *testing.T) {
	specs := groupSpecs(t, "swim")
	src := t.TempDir()
	want, err := New(Options{DiskCacheDir: src}).RunAll(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(entryPaths(t, src, specs)[0])
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	tmp := filepath.Join(dir, "tmp-crashed")
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	const linked = 2
	paths := entryPaths(t, dir, specs)
	for _, p := range paths[:linked] {
		if err := os.Link(tmp, p); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * gcTmpAge)
	if err := os.Chtimes(tmp, old, old); err != nil {
		t.Fatal(err)
	}

	e := New(Options{DiskCacheDir: dir, DiskCacheGC: true})
	if st := e.CacheStats(); st.DiskGCRemoved != 1 {
		t.Errorf("DiskGCRemoved = %d, want 1 (the temp name)", st.DiskGCRemoved)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("gc left the aged temp name: %v", err)
	}
	got, err := e.RunAll(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if got[i] != want[i] {
			t.Errorf("spec %d: result differs", i)
		}
	}
	if st := e.CacheStats(); st.DiskHits != linked || st.Misses != uint64(len(specs)-linked) || st.DiskReadErrors != 0 {
		t.Errorf("stats %s, want %d disk hits, %d misses, no read faults", counters(st), linked, len(specs)-linked)
	}
}

// TestCrashBeforeFinalRename: a writer that dies after linking every
// name but the last, before the rename that commits the file, leaves it
// uncommitted. At every width, each linked name is served by its own
// probe's read, which serves only its own line: one read and one commit
// point check per linked name. The last member is a plain miss, not
// served from a co-member's read, and its rewrite serves it to a later
// engine.
func TestCrashBeforeFinalRename(t *testing.T) {
	specs := groupSpecs(t, "swim")
	src := t.TempDir()
	want, err := New(Options{DiskCacheDir: src}).RunAll(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(entryPaths(t, src, specs)[0])
	if err != nil {
		t.Fatal(err)
	}
	last := len(specs) - 1
	for _, p := range []int{1, 2, 4} {
		dir := t.TempDir()
		tmp := filepath.Join(dir, "tmp-crashed")
		if err := os.WriteFile(tmp, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		paths := entryPaths(t, dir, specs)
		for _, name := range paths[:last] {
			if err := os.Link(tmp, name); err != nil {
				t.Fatal(err)
			}
		}
		for pass, wantMisses := range []uint64{1, 0} {
			e := New(Options{Parallelism: p, DiskCacheDir: dir})
			got, err := e.RunAll(context.Background(), specs, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range specs {
				if got[i] != want[i] {
					t.Errorf("parallelism %d, pass %d, spec %d: result differs", p, pass+1, i)
				}
			}
			wantHits := uint64(len(specs)) - wantMisses
			if st := e.CacheStats(); st.DiskHits != wantHits || st.Misses != wantMisses || st.DiskWrites != wantMisses || st.DiskReadErrors != 0 {
				t.Errorf("parallelism %d, pass %d: stats %s, want %d disk hits, %d misses and disk writes, no read faults",
					p, pass+1, counters(st), wantHits, wantMisses)
			}
			if reads, checks := e.disk.reads.Load(), e.disk.checks.Load(); pass == 0 && (reads != uint64(last) || checks != uint64(last)) {
				t.Errorf("parallelism %d: %d file reads and %d name checks, want %d of each", p, reads, checks, last)
			}
		}
		if sameFiles(t, paths[0], paths[last]) {
			t.Errorf("parallelism %d: the last member's name links to the uncommitted file", p)
		}
	}
}

// TestWarmBatchWithoutHardLinks: where the cache directory cannot hold
// hard links, only each group's last name, the file's commit point,
// persists. A warm batch opens each group's file by that name and
// serves every member from it: one read per group and no name check, at
// every width. A member asked for alone misses once, and its one-spec
// file then serves it.
func TestWarmBatchWithoutHardLinks(t *testing.T) {
	apps := []string{"swim", "gzip", "lucas"}
	var specs []Spec
	for _, app := range apps {
		specs = append(specs, groupSpecs(t, app)...)
	}
	size := len(specs) / len(apps)
	dir := t.TempDir()
	want, err := New(Options{Parallelism: 2, DiskCacheDir: dir}).RunAll(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	paths := entryPaths(t, dir, specs)
	for i, p := range paths {
		if i%size != size-1 {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, p := range []int{1, 2, 4} {
		e := New(Options{Parallelism: p, DiskCacheDir: dir})
		got, err := e.RunAll(context.Background(), specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			if got[i] != want[i] {
				t.Errorf("parallelism %d, spec %d: result differs from the cold pass", p, i)
			}
		}
		if st := e.CacheStats(); st.DiskHits != uint64(len(specs)) || st.Misses != 0 || st.DiskReadErrors != 0 {
			t.Errorf("parallelism %d: stats %s, want %d disk hits and nothing else", p, counters(st), len(specs))
		}
		if reads, checks := e.disk.reads.Load(), e.disk.checks.Load(); reads != uint64(len(apps)) || checks != 0 {
			t.Errorf("parallelism %d: %d file reads and %d name checks, want %d and 0", p, reads, checks, len(apps))
		}
	}

	for pass, wantMisses := range []uint64{1, 0} {
		e := New(Options{DiskCacheDir: dir})
		if got, err := e.Run(context.Background(), specs[0]); err != nil || got != want[0] {
			t.Fatalf("lone member, pass %d: %v, or a result that differs", pass+1, err)
		}
		if st := e.CacheStats(); st.Misses != wantMisses || st.DiskHits != 1-wantMisses || st.DiskReadErrors != 0 {
			t.Errorf("lone member, pass %d: stats %s, want %d misses", pass+1, counters(st), wantMisses)
		}
	}
}

// TestRunKeyedDiskHitChecksNoName: a one-spec batch reads the file its
// key names and finds no co-member to serve, so a RunKeyed disk hit
// makes one read and no name check.
func TestRunKeyedDiskHitChecksNoName(t *testing.T) {
	specs := groupSpecs(t, "swim")
	dir := t.TempDir()
	if _, err := New(Options{DiskCacheDir: dir}).RunAll(context.Background(), specs, nil); err != nil {
		t.Fatal(err)
	}
	e := New(Options{DiskCacheDir: dir})
	for _, s := range specs {
		k, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunKeyed(context.Background(), k, s); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.CacheStats(); st.DiskHits != uint64(len(specs)) || st.Misses != 0 {
		t.Errorf("stats %s, want %d disk hits", counters(st), len(specs))
	}
	if reads, checks := e.disk.reads.Load(), e.disk.checks.Load(); reads != uint64(len(specs)) || checks != 0 {
		t.Errorf("%d file reads and %d name checks for %d one-spec batches, want one read each and no check", reads, checks, len(specs))
	}
}

// TestWarmBatchReadsEachGroupFileOnce: a warm batch reads each lockstep
// group's file once and serves every member from that read — exactly
// once per file on one worker, and at most once more per run boundary
// on four, whose contiguous runs may start inside a group — with every
// spec a disk hit bit-identical to the cold pass, and at most one name
// check per file read (its commit point's). A member whose name is gone,
// or links to another group's file, is still served by its group's
// committed file; a member whose line is keyed in upper-case hex is
// not: its own probe reads the file again, finds no line for its key,
// and counts a read fault.
func TestWarmBatchReadsEachGroupFileOnce(t *testing.T) {
	apps := []string{"swim", "gzip", "lucas", "parser", "art"}
	var specs []Spec
	for _, app := range apps {
		specs = append(specs, groupSpecs(t, app)...)
	}
	size := len(specs) / len(apps) // members per group
	groups := uint64(len(apps))
	dir := t.TempDir()
	want, err := New(Options{Parallelism: 4, DiskCacheDir: dir}).RunAll(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	paths := entryPaths(t, dir, specs)
	for g := 0; g < len(apps); g++ {
		if !sameFiles(t, paths[g*size:(g+1)*size]...) {
			t.Fatalf("group %d's names are not one file", g)
		}
	}
	warm := func(parallelism int) (st CacheStats, reads, checks uint64) {
		t.Helper()
		e := New(Options{Parallelism: parallelism, DiskCacheDir: dir})
		got, err := e.RunAll(context.Background(), specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			if got[i] != want[i] {
				t.Errorf("parallelism %d, spec %d: result differs from the cold pass", parallelism, i)
			}
		}
		return e.CacheStats(), e.disk.reads.Load(), e.disk.checks.Load()
	}

	for _, p := range []int{1, 4} {
		st, reads, checks := warm(p)
		if st.DiskHits != uint64(len(specs)) || st.Misses != 0 || st.DiskReadErrors != 0 || st.Hits != 0 {
			t.Errorf("parallelism %d: stats %s, want %d disk hits and nothing else", p, counters(st), len(specs))
		}
		if maxReads := groups + uint64(p-1); reads < groups || reads > maxReads {
			t.Errorf("parallelism %d: %d file reads for %d groups, want %d to %d", p, reads, groups, groups, maxReads)
		}
		if checks > reads {
			t.Errorf("parallelism %d: %d name checks for %d file reads, want at most one per read", p, checks, reads)
		}
	}

	// The first group loses one member's name, and another member's name
	// now links to the second group's file. In the third group's file, a
	// member's line is keyed in upper-case hex, which the cache never
	// writes.
	gone, moved := paths[1], paths[3]
	if err := os.Remove(gone); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(moved); err != nil {
		t.Fatal(err)
	}
	if err := os.Link(paths[size], moved); err != nil {
		t.Fatal(err)
	}
	k, err := specs[2*size+1].Key()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(paths[2*size+1])
	if err != nil {
		t.Fatal(err)
	}
	recased := bytes.Replace(blob, []byte(k.Hex()+" "), []byte(strings.ToUpper(k.Hex())+" "), 1)
	if bytes.Equal(recased, blob) {
		t.Fatal("no line to recase")
	}
	// Rewritten in place, so every name of the group still links to it.
	if err := os.WriteFile(paths[2*size+1], recased, 0o644); err != nil {
		t.Fatal(err)
	}
	st, reads, _ := warm(1)
	if st.DiskHits != uint64(len(specs)-1) || st.DiskReadErrors != 1 || st.Misses != 1 || st.DiskWrites != 1 {
		t.Errorf("stats %s, want %d disk hits, 1 read fault, 1 miss and disk write", counters(st), len(specs)-1)
	}
	// The first group's read serves the gone and the moved members before
	// their own probes, so neither name is opened. The recased member is
	// not served by its group's read: its own probe reads the file again
	// and finds no line for its key.
	if reads != groups+1 {
		t.Errorf("%d file reads for %d groups, want %d", reads, groups, groups+1)
	}
}

// TestCompareLineKeysMatchesBytes: the claim index's comparator orders
// line keys exactly as bytes.Compare does, over real keys' spellings,
// pairs that tie in their first word and differ after it, and equal
// keys, so a probe's sort and searches find the positions they did.
func TestCompareLineKeysMatchesBytes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	keys := make([]lineKey, 0, 256)
	for i := 0; i < 128; i++ {
		var k Key
		r.Read(k[:])
		h := k.lineKey()
		keys = append(keys, h)
		// A twin sharing the first 8 bytes, differing at one later byte.
		twin := h
		twin[8+r.Intn(len(twin)-8)] ^= byte(1 + r.Intn(255))
		keys = append(keys, twin)
	}
	for i := range keys {
		for j := range keys {
			if got, want := compareLineKeys(&keys[i], &keys[j]), bytes.Compare(keys[i][:], keys[j][:]); got != want {
				t.Fatalf("compareLineKeys(%s, %s) = %d, bytes.Compare %d", keys[i][:], keys[j][:], got, want)
			}
		}
	}
}
