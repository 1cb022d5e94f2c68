package main

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/shard"
)

// runShardedSweep publishes g into cacheDir, runs workers in-process
// worker goroutines (each with its own engine, sharing only the cache
// directory — the multi-process topology), waits for completion, and
// merges by running the ordinary sweep over the warm cache. It returns
// the merged CSV and the merge engine's stats.
func runShardedSweep(t testing.TB, g sweepGrid, cacheDir string, workers int) (string, engine.CacheStats) {
	t.Helper()
	b, err := shard.Publish(cacheDir, shardSpecs(g))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := engine.New(engine.Options{DiskCacheDir: cacheDir, Parallelism: 2})
			_, errs[i] = shard.RunWorker(context.Background(), eng, b, shard.WorkerOptions{
				Poll: 2 * time.Millisecond,
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if complete, err := b.Wait(context.Background(), time.Millisecond, nil, nil); err != nil || !complete {
		t.Fatalf("grid incomplete after workers returned: %v, %v", complete, err)
	}

	merge := engine.New(engine.Options{DiskCacheDir: cacheDir})
	var out bytes.Buffer
	if err := runSweep(context.Background(), merge, g, &out, nil); err != nil {
		t.Fatal(err)
	}
	return out.String(), merge.CacheStats()
}

// TestShardedSweepMatchesSerial: the merged output of a sharded run —
// two workers racing over a shared cache directory — is byte-identical
// to the seed's serial loop, and the merge pass simulates nothing (it
// is pure disk hits, which is the whole byte-identity argument).
func TestShardedSweepMatchesSerial(t *testing.T) {
	g := tinyGrid()
	var want bytes.Buffer
	if err := serialSweep(g, &want); err != nil {
		t.Fatal(err)
	}
	got, st := runShardedSweep(t, g, t.TempDir(), 2)
	if got != want.String() {
		t.Errorf("sharded sweep diverged from serial reference:\n--- serial ---\n%s--- sharded ---\n%s", want.String(), got)
	}
	if st.Misses != 0 {
		t.Errorf("merge pass simulated %d points; every point must come off the shared cache", st.Misses)
	}
	wantPoints := uint64(len(shardSpecs(g)))
	if st.DiskHits != wantPoints {
		t.Errorf("merge pass took %d disk hits, want %d", st.DiskHits, wantPoints)
	}
}

// TestShardedSweepCrashRecovery: a worker that dies holding a lease
// does not change the merged bytes — the abandoned point is stolen,
// finished by the surviving worker, and the merged CSV still matches
// the serial reference exactly.
func TestShardedSweepCrashRecovery(t *testing.T) {
	g := tinyGrid()
	dir := t.TempDir()
	b, err := shard.Publish(dir, shardSpecs(g))
	if err != nil {
		t.Fatal(err)
	}

	_, err = shard.RunWorker(context.Background(),
		engine.New(engine.Options{DiskCacheDir: dir, Parallelism: 2}), b,
		shard.WorkerOptions{ID: "victim", Batch: 1, Poll: 2 * time.Millisecond, DieAfter: 1})
	if !errors.Is(err, shard.ErrAbandoned) {
		t.Fatalf("DieAfter worker returned %v, want ErrAbandoned", err)
	}
	if b.Complete() {
		t.Fatal("grid complete despite the crash — nothing to recover")
	}

	rescue, err := shard.RunWorker(context.Background(),
		engine.New(engine.Options{DiskCacheDir: dir, Parallelism: 2}), b,
		shard.WorkerOptions{ID: "rescuer", Poll: 2 * time.Millisecond, LeaseExpiry: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rescue.Stolen < 1 {
		t.Errorf("rescuer stats %+v: the abandoned lease was never stolen", rescue)
	}

	merge := engine.New(engine.Options{DiskCacheDir: dir})
	var got bytes.Buffer
	if err := runSweep(context.Background(), merge, g, &got, nil); err != nil {
		t.Fatal(err)
	}
	if st := merge.CacheStats(); st.Misses != 0 {
		t.Errorf("merge after crash recovery simulated %d points, want 0", st.Misses)
	}
	var want bytes.Buffer
	if err := serialSweep(g, &want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("crash-recovered sweep diverged from serial reference:\n--- serial ---\n%s--- recovered ---\n%s", want.String(), got.String())
	}
}

// BenchmarkSweepSharded measures the full sharded path — publish, two
// workers over a cold shared cache, completion wait, disk-served merge
// — on the same grid shape as BenchmarkSweepSerial and
// BenchmarkSweepEngine, so the three compare like for like. No perfbench
// workload shards, so this is the sharded path's only timing entry.
func BenchmarkSweepSharded(b *testing.B) {
	g := benchGrid()
	for i := 0; i < b.N; i++ {
		out, st := runShardedSweep(b, g, b.TempDir(), 2)
		if st.Misses != 0 {
			b.Fatalf("merge pass simulated %d points", st.Misses)
		}
		if len(out) == 0 {
			b.Fatal("empty sharded sweep output")
		}
	}
}
