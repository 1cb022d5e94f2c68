package shard

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// gridSpecs is a small mixed grid: two baselines and two tuned points.
func gridSpecs() []engine.Spec {
	tc := engine.DefaultTuningConfig(100)
	tc.InitialResponseThreshold = 1
	return []engine.Spec{
		{App: "lucas", Instructions: 10_000},
		{App: "parser", Instructions: 10_000},
		{App: "lucas", Instructions: 10_000, Technique: engine.TechniqueTuning, Tuning: &tc},
		{App: "parser", Instructions: 10_000, Technique: engine.TechniqueDamping},
	}
}

// TestPublishOpenRoundTrip: a board published by one process and
// opened from the manifest by another agrees on every point's content
// key and on the grid id.
func TestPublishOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	specs := gridSpecs()
	pub, err := Publish(dir, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pub.Keys) != len(specs) || len(pub.Specs) != len(specs) {
		t.Fatalf("published board holds %d keys / %d specs, want %d", len(pub.Keys), len(pub.Specs), len(specs))
	}

	got, err := Open(context.Background(), dir, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got.GridID != pub.GridID {
		t.Errorf("opened grid id %s, published %s", got.GridID, pub.GridID)
	}
	for i := range specs {
		want, _ := specs[i].Key()
		if got.Keys[i] != want {
			t.Errorf("point %d: opened key %s, want %s", i, got.Keys[i], want)
		}
	}

	// Republishing an extended grid atomically replaces the manifest.
	extended := append(gridSpecs(), engine.Spec{App: "swim", Instructions: 10_000})
	pub2, err := Publish(dir, extended)
	if err != nil {
		t.Fatal(err)
	}
	if pub2.GridID == pub.GridID {
		t.Error("distinct point sets share a grid id")
	}
	got2, err := Open(context.Background(), dir, time.Millisecond)
	if err != nil || got2.GridID != pub2.GridID {
		t.Errorf("reopen after republish: grid %s, %v; want %s", got2.GridID, err, pub2.GridID)
	}
}

// TestPublishRejectsBadGrids: empty grids and invalid specs are
// publish-time errors, not worker-time surprises.
func TestPublishRejectsBadGrids(t *testing.T) {
	dir := t.TempDir()
	if _, err := Publish(dir, nil); err == nil {
		t.Error("empty grid published")
	}
	if _, err := Publish(dir, []engine.Spec{{App: "lucas", Technique: "no-such-technique"}}); err == nil {
		t.Error("invalid spec published")
	}
	if _, err := os.Stat(filepath.Join(Dir(dir), manifestName)); !os.IsNotExist(err) {
		t.Error("rejected publish left a manifest behind")
	}
}

// TestRunWorkerRejectsHeartbeatlessExpiry: a lease expiry under 4 ns
// leaves no heartbeat interval (expiry/4). RunWorker reports it as an
// error, claiming nothing, instead of panicking in the heartbeat's
// ticker once it has claimed a batch.
func TestRunWorkerRejectsHeartbeatlessExpiry(t *testing.T) {
	dir := t.TempDir()
	b, err := Publish(dir, gridSpecs())
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{DiskCacheDir: dir, Parallelism: 1})
	for _, d := range []time.Duration{1, 3} {
		_, err := RunWorker(context.Background(), eng, b, WorkerOptions{LeaseExpiry: d, Poll: time.Millisecond})
		if err == nil || !strings.Contains(err.Error(), "heartbeat") {
			t.Errorf("lease expiry %v: RunWorker returned %v, want a heartbeat-interval error", d, err)
		}
	}
	for i := range b.Keys {
		if _, held := b.leaseAge(i); held {
			t.Errorf("point %d leased by a rejected worker", i)
		}
	}
	for _, d := range []time.Duration{-time.Second, 0, 4, DefaultLeaseExpiry} {
		if err := CheckLeaseExpiry(d); err != nil {
			t.Errorf("CheckLeaseExpiry(%v) = %v, want nil", d, err)
		}
	}
}

// TestOpenWaitsForPublish: a worker started before its coordinator
// polls until the manifest lands; with no publish it returns the
// context's error.
func TestOpenWaitsForPublish(t *testing.T) {
	dir := t.TempDir()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := Open(ctx, dir, 5*time.Millisecond); err == nil {
		t.Error("Open returned without a manifest")
	}

	type result struct {
		b   *Board
		err error
	}
	ch := make(chan result, 1)
	go func() {
		b, err := Open(context.Background(), dir, 2*time.Millisecond)
		ch <- result{b, err}
	}()
	time.Sleep(20 * time.Millisecond)
	pub, err := Publish(dir, gridSpecs())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		if r.err != nil || r.b.GridID != pub.GridID {
			t.Errorf("Open after delayed publish: %v, %v; want grid %s", r.b, r.err, pub.GridID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Open never observed the published manifest")
	}
}

// TestOpenRejectsIncompatibleManifests: corrupt JSON, an unknown
// schema version, and a grid id that doesn't match locally recomputed
// keys (a manifest from a binary with different normalization rules)
// are all hard errors — waiting on such a grid would hang forever.
func TestOpenRejectsIncompatibleManifests(t *testing.T) {
	write := func(t *testing.T, blob []byte) string {
		dir := t.TempDir()
		if err := os.MkdirAll(Dir(dir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(Dir(dir), manifestName), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	open := func(dir string) error {
		_, err := Open(context.Background(), dir, time.Millisecond)
		return err
	}

	if err := open(write(t, []byte("not json"))); err == nil {
		t.Error("corrupt manifest accepted")
	}

	good, err := json.Marshal(manifestFile{Version: manifestVersion + 1, GridID: "x", Specs: []engine.Spec{{App: "lucas"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := open(write(t, good)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future manifest version accepted (err %v)", err)
	}

	skewed, err := json.Marshal(manifestFile{Version: manifestVersion, GridID: "0123456789abcdef", Specs: []engine.Spec{{App: "lucas", Instructions: 10_000}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := open(write(t, skewed)); err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Errorf("grid-id mismatch accepted (err %v)", err)
	}
}

// TestLeaseSemantics: claim is exclusive, expiry is judged by mtime
// age, steal atomically replaces an expired lease, and release only
// removes the caller's own lease.
func TestLeaseSemantics(t *testing.T) {
	dir := t.TempDir()
	b, err := Publish(dir, gridSpecs())
	if err != nil {
		t.Fatal(err)
	}

	if !b.claim(0, "w1") {
		t.Fatal("first claim refused")
	}
	if b.claim(0, "w2") {
		t.Fatal("second claim of a held lease succeeded")
	}
	age, held := b.leaseAge(0)
	if !held || age > 10*time.Second {
		t.Fatalf("fresh lease: age %v, held %v", age, held)
	}
	if _, held := b.leaseAge(1); held {
		t.Error("unclaimed point reports a lease")
	}

	// A non-holder's release must leave the lease alone.
	b.release(0, "w2")
	if _, held := b.leaseAge(0); !held {
		t.Error("release by a non-holder removed the lease")
	}
	b.release(0, "w1")
	if _, held := b.leaseAge(0); held {
		t.Error("holder's release left the lease")
	}

	// Expiry and stealing: age the lease artificially, steal it, and
	// verify the steal reset the clock and took over ownership.
	if !b.claim(1, "w1") {
		t.Fatal("claim failed")
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(b.leasePath(1), old, old); err != nil {
		t.Fatal(err)
	}
	if age, held := b.leaseAge(1); !held || age < 30*time.Minute {
		t.Fatalf("aged lease: age %v, held %v", age, held)
	}
	if !b.steal(1, "w2") {
		t.Fatal("steal of an expired lease failed")
	}
	if age, _ := b.leaseAge(1); age > 10*time.Second {
		t.Errorf("steal did not reset the lease clock: age %v", age)
	}
	var li leaseInfo
	blob, err := os.ReadFile(b.leasePath(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &li); err != nil || li.Worker != "w2" || !li.Stolen {
		t.Errorf("stolen lease body = %+v, %v; want worker w2, stolen", li, err)
	}
	// The original holder's release is now a no-op; the thief's works.
	b.release(1, "w1")
	if _, held := b.leaseAge(1); !held {
		t.Error("stolen-from worker removed the thief's lease")
	}
	b.release(1, "w2")
	if _, held := b.leaseAge(1); held {
		t.Error("thief's release left the lease")
	}
}

// TestRefreshExtendsLease: the heartbeat rewinds a lease's age so a
// slow-but-alive holder is never treated as dead.
func TestRefreshExtendsLease(t *testing.T) {
	dir := t.TempDir()
	b, err := Publish(dir, gridSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if !b.claim(0, "w1") {
		t.Fatal("claim failed")
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(b.leasePath(0), old, old); err != nil {
		t.Fatal(err)
	}
	b.refresh(0)
	if age, held := b.leaseAge(0); !held || age > 10*time.Second {
		t.Errorf("refresh left lease age at %v (held %v)", age, held)
	}
}

// TestWaitAndCompletion: DoneCount tracks the shared cache, Wait
// returns once every point lands, and a stop close ends the wait early
// with an honest incomplete verdict.
func TestWaitAndCompletion(t *testing.T) {
	dir := t.TempDir()
	specs := gridSpecs()
	b, err := Publish(dir, specs)
	if err != nil {
		t.Fatal(err)
	}
	if n := b.DoneCount(); n != 0 {
		t.Fatalf("fresh grid reports %d done", n)
	}

	// Early stop with nothing running: complete=false, no error.
	stopped := make(chan struct{})
	close(stopped)
	complete, err := b.Wait(context.Background(), time.Millisecond, stopped, nil)
	if err != nil || complete {
		t.Fatalf("Wait on a stopped empty grid = %v, %v; want incomplete, nil", complete, err)
	}

	// Run half the grid, then Wait while a goroutine finishes the rest.
	eng := engine.New(engine.Options{DiskCacheDir: dir})
	if _, err := eng.RunAll(context.Background(), specs[:2], nil); err != nil {
		t.Fatal(err)
	}
	if n := b.DoneCount(); n != 2 {
		t.Fatalf("DoneCount = %d after 2 points, want 2", n)
	}
	if b.Complete() {
		t.Fatal("half-done grid reports complete")
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		engine.New(engine.Options{DiskCacheDir: dir}).RunAll(context.Background(), specs[2:], nil)
	}()
	var last int
	complete, err = b.Wait(context.Background(), time.Millisecond, nil, func(done, total int) { last = done })
	if err != nil || !complete {
		t.Fatalf("Wait = %v, %v; want complete", complete, err)
	}
	if last != len(specs) {
		t.Errorf("final onTick saw %d/%d", last, len(specs))
	}
	if !b.Complete() {
		t.Error("Complete() false after Wait returned complete")
	}
}

// TestWorkersCompleteGrid: two in-process workers (separate engines on
// one shared cache directory — the multi-process topology, visible to
// the race detector) split a grid, every point lands exactly once on
// disk, and a pre-warmed third worker exits immediately with nothing
// to do.
func TestWorkersCompleteGrid(t *testing.T) {
	dir := t.TempDir()
	specs := gridSpecs()
	b, err := Publish(dir, specs)
	if err != nil {
		t.Fatal(err)
	}

	opts := func(id string) WorkerOptions {
		return WorkerOptions{ID: id, Poll: 2 * time.Millisecond, Batch: 1}
	}
	var wg sync.WaitGroup
	stats := make([]WorkerStats, 2)
	errs := make([]error, 2)
	points := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := engine.New(engine.Options{DiskCacheDir: dir})
			o := opts([]string{"alpha", "beta"}[i])
			o.OnPoint = func() { points[i]++ }
			stats[i], errs[i] = RunWorker(context.Background(), eng, b, o)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !b.Complete() {
		t.Fatal("workers returned with an incomplete grid")
	}
	total := stats[0].Completed + stats[1].Completed
	if total < len(specs) {
		t.Errorf("workers completed %d points between them, grid has %d", total, len(specs))
	}
	if points[0] != stats[0].Completed || points[1] != stats[1].Completed {
		t.Errorf("OnPoint fired %v times, stats say %d/%d", points, stats[0].Completed, stats[1].Completed)
	}
	// Leases are all released on the way out.
	for i := range specs {
		if _, held := b.leaseAge(i); held {
			t.Errorf("point %d's lease survived worker exit", i)
		}
	}

	// A worker joining a finished grid does nothing, instantly.
	st, err := RunWorker(context.Background(), engine.New(engine.Options{DiskCacheDir: dir}), b, opts("late"))
	if err != nil || st.Completed != 0 || st.Batches != 0 {
		t.Errorf("worker on a warm grid: stats %+v, %v; want all-zero", st, err)
	}
}

// TestWorkerCrashRecovery: a worker that dies holding a claimed lease
// (the DieAfter hook) leaves the grid incomplete; a second worker with
// a short expiry steals the abandoned lease and finishes the grid.
func TestWorkerCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	specs := gridSpecs()
	b, err := Publish(dir, specs)
	if err != nil {
		t.Fatal(err)
	}

	crash, err := RunWorker(context.Background(), engine.New(engine.Options{DiskCacheDir: dir}), b,
		WorkerOptions{ID: "victim", Batch: 1, Poll: 2 * time.Millisecond, DieAfter: 1})
	if !errors.Is(err, ErrAbandoned) {
		t.Fatalf("DieAfter worker returned %v, want ErrAbandoned", err)
	}
	if crash.Completed < 1 {
		t.Fatalf("crashed worker completed %d points before dying, want >= 1", crash.Completed)
	}
	if b.Complete() {
		t.Fatal("grid complete despite the crash — nothing left to recover")
	}
	abandoned := 0
	for i := range specs {
		if _, held := b.leaseAge(i); held {
			abandoned++
		}
	}
	if abandoned != 1 {
		t.Fatalf("crashed worker left %d leases, want exactly 1", abandoned)
	}

	var log strings.Builder
	rescue, err := RunWorker(context.Background(), engine.New(engine.Options{DiskCacheDir: dir}), b,
		WorkerOptions{ID: "rescuer", Batch: 1, Poll: 2 * time.Millisecond, LeaseExpiry: 20 * time.Millisecond, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Complete() {
		t.Fatal("rescuer returned with an incomplete grid")
	}
	if rescue.Stolen < 1 {
		t.Errorf("rescuer stats %+v: abandoned lease was never stolen", rescue)
	}
	if !strings.Contains(log.String(), "stole expired lease") {
		t.Errorf("worker log does not record the steal:\n%s", log.String())
	}
	if crash.Completed+rescue.Completed < len(specs) {
		t.Errorf("victim %d + rescuer %d points < grid %d", crash.Completed, rescue.Completed, len(specs))
	}
}

// TestWorkerSimulationErrorIsTerminal: a point that cannot simulate
// stops the worker with the error and releases its leases (manifest
// validation makes this unreachable for published grids; the guard is
// for boards built in-process).
func TestWorkerSimulationErrorIsTerminal(t *testing.T) {
	dir := t.TempDir()
	specs := []engine.Spec{{App: "no-such-app", Instructions: 10_000}}
	keys, id, err := keysAndID(specs)
	if err != nil {
		t.Fatal(err)
	}
	b := board(dir, specs, keys, id)
	_, err = RunWorker(context.Background(), engine.New(engine.Options{DiskCacheDir: dir}), b,
		WorkerOptions{ID: "w", Batch: 1, Poll: time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "no-such-app") {
		t.Fatalf("worker on an unsimulatable grid returned %v", err)
	}
	if _, held := b.leaseAge(0); held {
		t.Error("failed worker left its lease behind")
	}
}
