//go:build unix

package engine

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// systemCPU is the system CPU time the process has used so far.
func systemCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Stime.Nano())
}

// BenchmarkColdGridDiskTier times one cold RunAll over serviceGrid per
// iteration (Parallelism 2, a fresh engine over an empty cache
// directory) with the instruction streams already built, so a pass pays
// for simulation and the disk tier's writes. It reports the process's
// system CPU per pass (sys-ms/op, from getrusage) and the data files a
// pass leaves in the directory (files/op: distinct inodes under the
// entry names).
func BenchmarkColdGridDiskTier(b *testing.B) {
	specs := serviceGrid()
	if _, err := New(Options{Parallelism: 2}).RunAll(context.Background(), specs, nil); err != nil {
		b.Fatal(err)
	}
	root := b.TempDir()
	var sys time.Duration
	files := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(root, strconv.Itoa(i))
		before := systemCPU(b)
		if _, err := New(Options{Parallelism: 2, DiskCacheDir: dir}).RunAll(context.Background(), specs, nil); err != nil {
			b.Fatal(err)
		}
		sys += systemCPU(b) - before
		b.StopTimer()
		des, err := os.ReadDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		inodes := make(map[uint64]bool)
		for _, de := range des {
			info, err := de.Info()
			if err != nil {
				b.Fatal(err)
			}
			inodes[uint64(info.Sys().(*syscall.Stat_t).Ino)] = true
		}
		files += len(inodes)
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(sys.Microseconds())/1e3/float64(b.N), "sys-ms/op")
	b.ReportMetric(float64(files)/float64(b.N), "files/op")
}

// BenchmarkWarmGridDiskTier times one warm RunAll over serviceGrid per
// iteration (Parallelism 2, a fresh engine over a cold-written
// directory), so a pass pays for keying, the disk probe and decoding.
// It reports the files the probe read per pass (reads/op), one per
// lockstep group's file, 78, and the names it stat'ed against them
// (checks/op), at most one per file read: its commit point's.
func BenchmarkWarmGridDiskTier(b *testing.B) {
	specs := serviceGrid()
	dir := b.TempDir()
	if _, err := New(Options{Parallelism: 2, DiskCacheDir: dir}).RunAll(context.Background(), specs, nil); err != nil {
		b.Fatal(err)
	}
	var reads, checks uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Options{Parallelism: 2, DiskCacheDir: dir})
		if _, err := e.RunAll(context.Background(), specs, nil); err != nil {
			b.Fatal(err)
		}
		if st := e.CacheStats(); st.DiskHits != uint64(len(specs)) {
			b.Fatalf("warm pass stats %s, want every spec from disk", counters(st))
		}
		reads += e.disk.reads.Load()
		checks += e.disk.checks.Load()
	}
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
	b.ReportMetric(float64(checks)/float64(b.N), "checks/op")
}

// BenchmarkRunKeyedDiskHit times one RunKeyed disk hit — a one-spec
// batch reading the file its key names — cycling through serviceGrid's
// cold-written directory, with a fresh engine (outside the timer) for
// every pass over the grid. Run it with -benchmem for the hit's
// allocations.
func BenchmarkRunKeyedDiskHit(b *testing.B) {
	specs := serviceGrid()
	dir := b.TempDir()
	if _, err := New(Options{Parallelism: 1, DiskCacheDir: dir}).RunAll(context.Background(), specs, nil); err != nil {
		b.Fatal(err)
	}
	keys := make([]Key, len(specs))
	for i, s := range specs {
		k, err := s.Key()
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = k
	}
	var e *Engine
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(specs)
		if k == 0 {
			b.StopTimer()
			e = New(Options{Parallelism: 1, DiskCacheDir: dir})
			b.StartTimer()
		}
		if _, err := e.RunKeyed(context.Background(), keys[k], specs[k]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := e.CacheStats(); st.Misses != 0 || st.Hits != 0 {
		b.Fatalf("stats %s, want disk hits only", counters(st))
	}
}

// BenchmarkDecodeEntry times decodeEntry on a real service-zipf line,
// the longest of one application's (a controller's, its cycle counts
// set).
func BenchmarkDecodeEntry(b *testing.B) {
	line := slices.MaxFunc(storedLines(b, "swim"), func(a, b []byte) int { return len(a) - len(b) })
	b.Run("entry", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeEntry(line); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSpecKey times Spec.Key over serviceGrid, the per-spec cost of
// a batch's key phase (and of the server's ValidKey, less validation).
func BenchmarkSpecKey(b *testing.B) {
	specs := serviceGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := specs[i%len(specs)].Key(); err != nil {
			b.Fatal(err)
		}
	}
}
