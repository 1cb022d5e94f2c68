// Package shard coordinates a fleet of sweep workers over one shared
// disk-cache directory, distributing the points of a grid across
// processes (or machines sharing the directory) with no coordinator in
// the data path.
//
// The design leans entirely on two properties the engine already
// guarantees: every grid point is content-addressed (engine.Key is a
// pure function of the normalized Spec), and the disk-cache tier
// publishes results atomically — each simulated lockstep group's
// results as one temp file, hard-linked under every member's
// <key>.json name and renamed onto the last, so a name holds a complete
// file or none. Together they make every point idempotent — running it
// twice, on two workers, leaves a file under the point's name holding a
// byte-identical line for its key (the co-members sharing the file may
// differ with the batch) — so the coordination protocol only has to
// make duplicate work *rare*, never impossible:
//
//   - The coordinator publishes the grid once as a manifest
//     (<cache-dir>/shard/current.json, written atomically), naming
//     every point in its wire form. Workers need nothing else: they
//     poll for the manifest, recompute every point's key locally, and
//     go to work.
//   - A worker claims a point by creating its lease file with O_EXCL —
//     exactly one creator wins. While running the point it refreshes
//     the lease's mtime on a heartbeat ticker.
//   - A lease whose mtime is older than the expiry is stale: its
//     holder crashed (or stalled past the heartbeat budget), and an
//     idle worker steals it by atomically replacing the lease file —
//     which also resets the mtime, so concurrent stealers re-race on a
//     fresh lease. A stolen-from worker that was merely slow finishes
//     harmlessly: its result is the same bytes.
//   - A point is *done* exactly when its key has a live entry in the
//     shared disk cache; workers and the coordinator both read
//     completion straight off the cache directory, so there is no
//     separate completion ledger to corrupt.
//
// The merge step needs no code of its own: once every key is on disk,
// the ordinary single-process sweep over the same cache directory
// replays every point as a disk hit and emits the byte-identical
// report.
//
// All shard state lives under the shard/ subdirectory of the cache
// directory, which the engine's disk-cache GC never enters.
package shard

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
)

const (
	// manifestName is the active grid's manifest inside Dir; one grid
	// is active per cache directory at a time (publishing a new grid
	// atomically replaces the old manifest; stale workers finish their
	// old grid against the same content-addressed cache unharmed).
	manifestName = "current.json"
	// manifestVersion guards the manifest schema.
	manifestVersion = 1

	// DefaultLeaseExpiry is how long a lease may go without a heartbeat
	// before idle workers may steal it. It bounds crash-recovery
	// latency, not point duration — a healthy worker heartbeats every
	// DefaultLeaseExpiry/4 regardless of how long its point runs.
	DefaultLeaseExpiry = time.Minute
	// DefaultPoll is how often waiting loops (manifest discovery, idle
	// workers, the coordinator's completion wait) re-scan shared state.
	DefaultPoll = 500 * time.Millisecond
)

// Dir returns the shard-state root for a cache directory.
func Dir(cacheDir string) string { return filepath.Join(cacheDir, "shard") }

// manifestFile is the JSON envelope of a published grid.
type manifestFile struct {
	Version int           `json:"v"`
	GridID  string        `json:"grid_id"`
	Specs   []engine.Spec `json:"specs"`
}

// Board is one published grid over a shared cache directory: the
// ordered point set, every point's content key, and the lease
// directory workers coordinate through.
type Board struct {
	cacheDir string
	leaseDir string
	// GridID identifies the point set: a digest over every point's
	// key, so two boards agree on it exactly when they agree on every
	// point (same specs, same binary-normalization rules).
	GridID string
	// Specs are the grid's points in manifest order.
	Specs []engine.Spec
	// Keys are the points' content addresses, index-parallel to Specs.
	Keys []engine.Key
}

// keysAndID computes every spec's content key and the grid id derived
// from them.
func keysAndID(specs []engine.Spec) ([]engine.Key, string, error) {
	keys := make([]engine.Key, len(specs))
	for i, s := range specs {
		k, err := s.Key()
		if err != nil {
			return nil, "", fmt.Errorf("shard: point %d: %w", i, err)
		}
		keys[i] = k
	}
	return keys, gridIDOf(keys), nil
}

// gridIDOf digests a grid's point keys, in order, into its id.
func gridIDOf(keys []engine.Key) string {
	h := sha256.New()
	for _, k := range keys {
		h.Write(k[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// board assembles the in-memory Board for a validated point set.
func board(cacheDir string, specs []engine.Spec, keys []engine.Key, gridID string) *Board {
	return &Board{
		cacheDir: cacheDir,
		leaseDir: filepath.Join(Dir(cacheDir), gridID, "leases"),
		GridID:   gridID,
		Specs:    specs,
		Keys:     keys,
	}
}

// Publish validates and keys every point (one normalization each, via
// Spec.ValidKey), derives the grid id, and atomically installs the
// manifest as the cache directory's active grid. Workers sharing the
// directory discover it via Open.
func Publish(cacheDir string, specs []engine.Spec) (*Board, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("shard: empty grid")
	}
	keys := make([]engine.Key, len(specs))
	for i, s := range specs {
		k, err := s.ValidKey()
		if err != nil {
			return nil, fmt.Errorf("shard: point %d: %w", i, err)
		}
		keys[i] = k
	}
	gridID := gridIDOf(keys)
	b := board(cacheDir, specs, keys, gridID)
	if err := os.MkdirAll(b.leaseDir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	blob, err := json.Marshal(manifestFile{Version: manifestVersion, GridID: gridID, Specs: specs})
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if err := atomicWrite(filepath.Join(Dir(cacheDir), manifestName), blob); err != nil {
		return nil, fmt.Errorf("shard: publish manifest: %w", err)
	}
	return b, nil
}

// atomicWrite lands blob at path via CreateTemp+Rename, as the cache
// tier publishes a file: readers see the old manifest or the new one,
// never a torn write.
func atomicWrite(path string, blob []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Open reads the cache directory's active grid, polling every poll
// interval until a manifest appears or ctx ends — a worker may be
// started before its coordinator. The manifest's points are re-keyed
// locally; a grid id that does not match the recomputed one means the
// manifest was written by a binary with different normalization rules,
// and coordinating with it would wait on keys that never appear, so
// Open rejects it.
func Open(ctx context.Context, cacheDir string, poll time.Duration) (*Board, error) {
	if poll <= 0 {
		poll = DefaultPoll
	}
	path := filepath.Join(Dir(cacheDir), manifestName)
	for {
		blob, err := os.ReadFile(path)
		if err == nil {
			return openManifest(cacheDir, blob)
		}
		if !os.IsNotExist(err) {
			return nil, fmt.Errorf("shard: read manifest: %w", err)
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("shard: no manifest published in %s: %w", Dir(cacheDir), ctx.Err())
		case <-time.After(poll):
		}
	}
}

func openManifest(cacheDir string, blob []byte) (*Board, error) {
	var mf manifestFile
	if err := json.Unmarshal(blob, &mf); err != nil {
		return nil, fmt.Errorf("shard: corrupt manifest: %w", err)
	}
	if mf.Version != manifestVersion {
		return nil, fmt.Errorf("shard: manifest version %d, this binary speaks %d", mf.Version, manifestVersion)
	}
	keys, gridID, err := keysAndID(mf.Specs)
	if err != nil {
		return nil, err
	}
	if gridID != mf.GridID {
		return nil, fmt.Errorf("shard: manifest grid id %s, recomputed %s — published by an incompatible binary", mf.GridID, gridID)
	}
	return board(cacheDir, mf.Specs, keys, gridID), nil
}

// doneSet reads the shared cache directory once and returns the set of
// finished keys. Errors degrade to "nothing done" — a transient read
// failure only delays progress, never corrupts it.
func (b *Board) doneSet() map[engine.Key]struct{} {
	keys, err := engine.DiskCacheKeys(b.cacheDir)
	if err != nil {
		return nil
	}
	set := make(map[engine.Key]struct{}, len(keys))
	for _, k := range keys {
		set[k] = struct{}{}
	}
	return set
}

// DoneCount returns how many of the board's points have a finished
// entry in the shared cache, with a single directory read.
func (b *Board) DoneCount() int {
	set := b.doneSet()
	n := 0
	for _, k := range b.Keys {
		if _, ok := set[k]; ok {
			n++
		}
	}
	return n
}

// Complete reports whether every point is finished.
func (b *Board) Complete() bool { return b.DoneCount() == len(b.Keys) }

// Wait blocks until every point has a finished entry in the shared
// cache, polling every poll interval and invoking onTick (when
// non-nil) with the current count after each scan. A close of stop
// (e.g. "all local workers exited") ends the wait early after one
// final scan; Wait reports whether the grid completed. Cancelling ctx
// returns its error.
func (b *Board) Wait(ctx context.Context, poll time.Duration, stop <-chan struct{}, onTick func(done, total int)) (bool, error) {
	if poll <= 0 {
		poll = DefaultPoll
	}
	total := len(b.Keys)
	for {
		done := b.DoneCount()
		if onTick != nil {
			onTick(done, total)
		}
		if done == total {
			return true, nil
		}
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-stop:
			// One final scan: the last worker may have published its
			// final result on the way out.
			done = b.DoneCount()
			if onTick != nil {
				onTick(done, total)
			}
			return done == total, nil
		case <-time.After(poll):
		}
	}
}
