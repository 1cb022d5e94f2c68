package cacheflags

import (
	"bytes"
	"flag"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// TestStatsLines pins the exact end-of-run lines: CI's cache-warm job
// and both smoke scripts grep sim_misses= off the cache-stats line.
func TestStatsLines(t *testing.T) {
	cs := engine.CacheStats{Hits: 1, DiskHits: 2, Misses: 3, DiskWrites: 4, DiskGCRemoved: 6, Entries: 5}
	if got, want := cs.String(), "cache-stats: mem_hits=1 disk_hits=2 sim_misses=3 disk_writes=4 entries=5"; got != want {
		t.Errorf("CacheStats.String() = %q, want %q", got, want)
	}
	var b bytes.Buffer
	PrintStats(&b, engine.New(engine.Options{}))
	want := "cache-stats: mem_hits=0 disk_hits=0 sim_misses=0 disk_writes=0 entries=0\n" +
		workload.SharedTraces().Stats().String() + "\n"
	if b.String() != want {
		t.Errorf("PrintStats wrote %q, want %q", b.String(), want)
	}
}

// TestFlagsRoundTrip: the flags parse, configure the engine, and render
// the worker arguments a forked process parses back to the same cache.
func TestFlagsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-cache-dir", dir, "-cache-gc", "-trace-budget-mb", "7"}); err != nil {
		t.Fatal(err)
	}
	if *f != (Flags{Dir: dir, GC: true, TraceMB: 7}) {
		t.Fatalf("parsed %+v", *f)
	}
	args := f.WorkerArgs()
	if want := []string{"-cache-dir", dir, "-trace-budget-mb", "7"}; !reflect.DeepEqual(args, want) {
		t.Errorf("WorkerArgs() = %q, want %q", args, want)
	}
	wfs := flag.NewFlagSet("worker", flag.ContinueOnError)
	w := Register(wfs)
	if err := wfs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if *w != (Flags{Dir: dir, TraceMB: 7}) {
		t.Errorf("worker parsed %+v, want the directory and budget without the sweep", *w)
	}
	if got := (&Flags{Dir: dir}).Engine(3).Parallelism(); got != 3 {
		t.Errorf("engine parallelism %d, want 3", got)
	}
}
