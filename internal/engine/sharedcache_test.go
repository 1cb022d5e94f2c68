package engine

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestDiskCacheEnumeration: DiskCacheKeys lists exactly the live
// current-schema entries (no tmp files, no foreign files, no
// subdirectories), and the disk tier's reader agrees with it per key.
func TestDiskCacheEnumeration(t *testing.T) {
	dir := t.TempDir()
	if keys, err := DiskCacheKeys(dir); err != nil || len(keys) != 0 {
		t.Fatalf("empty dir enumerates %v, %v; want nothing", keys, err)
	}
	// A directory that doesn't exist yet is "nothing finished", not an
	// error — workers poll completion before the coordinator's first
	// write creates the directory.
	if keys, err := DiskCacheKeys(filepath.Join(dir, "no-such-dir")); err != nil || len(keys) != 0 {
		t.Errorf("missing directory enumerates %v, %v; want empty, nil", keys, err)
	}

	specs := diskSpecs()
	e := New(Options{DiskCacheDir: dir})
	if _, err := e.RunAll(context.Background(), specs, nil); err != nil {
		t.Fatal(err)
	}
	// Noise the enumeration must ignore: in-flight tmp writes, foreign
	// files, wrong-length names, and the shard/ coordination subtree.
	for _, name := range []string{"tmp-12345", "NOTES.txt", "abcd.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "shard", "leases"), 0o755); err != nil {
		t.Fatal(err)
	}

	keys, err := DiskCacheKeys(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(specs) {
		t.Fatalf("enumerated %d keys, want %d: %v", len(keys), len(specs), keys)
	}
	listed := make(map[Key]bool)
	for _, k := range keys {
		listed[k] = true
	}
	d := &diskCache{dir: dir}
	for i, s := range specs {
		k, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		if !listed[k] {
			t.Errorf("spec %d's key %s missing from enumeration", i, k)
		}
		if _, err := d.load(k); err != nil {
			t.Errorf("load(%s) = %v for a stored entry", k, err)
		}
	}
	absent, err := Spec{App: "mcf", Instructions: 20_000}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.load(absent); err == nil {
		t.Error("load serves an entry never stored")
	}
}

// TestDiskCacheGCIgnoresShardDir: the construction-time sweep never
// descends into (or removes) subdirectories — the shard/ coordination
// subtree, with its manifest and live lease files, must survive a
// worker starting with -cache-gc.
func TestDiskCacheGCIgnoresShardDir(t *testing.T) {
	dir := t.TempDir()
	shardDir := filepath.Join(dir, "shard", "deadbeef00000000", "leases")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "shard", "current.json")
	lease := filepath.Join(shardDir, "k.lease")
	for _, p := range []string{manifest, lease} {
		if err := os.WriteFile(p, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	e := New(Options{DiskCacheDir: dir, DiskCacheGC: true})
	if st := e.CacheStats(); st.DiskGCRemoved != 0 {
		t.Errorf("gc removed %d files from a dir holding only shard state", st.DiskGCRemoved)
	}
	for _, p := range []string{manifest, lease} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("gc disturbed shard state %s: %v", p, err)
		}
	}
}

// TestSharedDiskCacheConcurrentEngines: two engines race on one cache
// directory — the multi-process sharding topology, in-process so the
// race detector watches it — over a mix of identical and disjoint
// keys. Every request must be accounted for as exactly one hit, disk
// hit, or miss; results must agree across engines; and every entry
// left on disk must decode (a third engine replays everything with
// zero misses).
func TestSharedDiskCacheConcurrentEngines(t *testing.T) {
	dir := t.TempDir()
	shared := diskSpecs() // both engines demand these: disk-tier race
	only1 := []Spec{{App: "art", Instructions: 20_000}}
	only2 := []Spec{{App: "mcf", Instructions: 20_000}, {App: "gcc", Instructions: 20_000}}

	e1 := New(Options{DiskCacheDir: dir, Parallelism: 2})
	e2 := New(Options{DiskCacheDir: dir, Parallelism: 2})
	load1 := append(append([]Spec{}, shared...), only1...)
	load2 := append(append([]Spec{}, shared...), only2...)

	var wg sync.WaitGroup
	var r1, r2 []any
	var err1, err2 error
	run := func(e *Engine, specs []Spec, out *[]any, errp *error) {
		defer wg.Done()
		// Each spec requested twice, so the memory tier is exercised too.
		res, err := e.RunAll(context.Background(), append(append([]Spec{}, specs...), specs...), nil)
		if err != nil {
			*errp = err
			return
		}
		for _, r := range res {
			*out = append(*out, r)
		}
	}
	wg.Add(2)
	go run(e1, load1, &r1, &err1)
	go run(e2, load2, &r2, &err2)
	wg.Wait()
	if err1 != nil || err2 != nil {
		t.Fatalf("concurrent shared-cache runs failed: %v / %v", err1, err2)
	}

	// Exact accounting: every request resolved exactly one way.
	for i, e := range []*Engine{e1, e2} {
		st := e.CacheStats()
		requests := uint64(2 * (len(shared) + len(only1)))
		if i == 1 {
			requests = uint64(2 * (len(shared) + len(only2)))
		}
		if st.Hits+st.DiskHits+st.Misses != requests {
			t.Errorf("engine %d: hits %d + disk hits %d + misses %d != %d requests (stats %s)",
				i+1, st.Hits, st.DiskHits, st.Misses, requests, counters(st))
		}
		// The duplicate pass is all memory hits, so at least half the
		// requests hit the memory tier.
		if st.Hits < requests/2 {
			t.Errorf("engine %d: %d memory hits for %d requests, want >= %d", i+1, st.Hits, requests, requests/2)
		}
	}

	// Shared keys must have produced identical results on both engines.
	for i := range shared {
		if r1[i] != r2[i] {
			t.Errorf("shared spec %d diverged across engines:\n%+v\n%+v", i, r1[i], r2[i])
		}
	}

	// No corrupt entries: a fresh engine replays the union from disk
	// without a single simulation.
	union := append(append(append([]Spec{}, shared...), only1...), only2...)
	keys, err := DiskCacheKeys(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(union) {
		t.Errorf("disk holds %d entries, want %d", len(keys), len(union))
	}
	verify := New(Options{DiskCacheDir: dir})
	if _, err := verify.RunAll(context.Background(), union, nil); err != nil {
		t.Fatal(err)
	}
	if st := verify.CacheStats(); st.Misses != 0 || st.DiskHits != uint64(len(union)) {
		t.Errorf("replay stats %s, want %d disk hits and 0 misses (corrupt or missing entries)", counters(st), len(union))
	}
}

// TestDiskCacheGCRacesStore: engines constructed with the gc sweep
// while another engine is actively storing entries must never eat an
// in-flight write — the tmp age guard keeps fresh temp files safe, so
// every result lands and decodes.
func TestDiskCacheGCRacesStore(t *testing.T) {
	dir := t.TempDir()
	specs := diskSpecs()

	stop := make(chan struct{})
	var gcWG sync.WaitGroup
	gcWG.Add(1)
	go func() {
		defer gcWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				New(Options{DiskCacheDir: dir, DiskCacheGC: true})
			}
		}
	}()

	writer := New(Options{DiskCacheDir: dir, Parallelism: 2})
	_, err := writer.RunAll(context.Background(), specs, nil)
	close(stop)
	gcWG.Wait()
	if err != nil {
		t.Fatal(err)
	}

	verify := New(Options{DiskCacheDir: dir})
	if _, err := verify.RunAll(context.Background(), specs, nil); err != nil {
		t.Fatal(err)
	}
	if st := verify.CacheStats(); st.Misses != 0 {
		t.Errorf("gc racing the store lost %d entries (stats %s)", st.Misses, counters(st))
	}
}
