package engine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/sim"
)

// diskCacheVersion guards the on-disk entry schema: bumping it after a
// Result field change makes every old entry stale, so it is ignored and
// rewritten instead of silently decoding into the wrong shape. Version 3
// marked the PDN generalization (sim.Config gained PDN and SensorDomain,
// so every canonical encoding — and therefore every key — changed);
// version 4 marks the single network selector (sim.Config lost Supply
// and TwoStageSupply, and a spec without a network now encodes the
// lumped Table 1 network explicitly, changing every key again).
const diskCacheVersion = 4

// diskEntry is the JSON envelope of one cached result. JSON float64
// encoding is shortest-round-trip, so a reloaded Result is bit-identical
// to the simulated one (pinned by TestDiskCacheRoundTrip).
type diskEntry struct {
	Version int        `json:"v"`
	Result  sim.Result `json:"result"`
}

// diskCache is the engine's persistent second cache tier: one JSON file
// per Spec.Key under a directory, so a later process (a warm CI golden
// run, a repeated sweep) serves finished Results without simulating.
// All operations are best-effort — a missing, corrupt, or stale entry is
// a miss, and write failures are invisible to correctness (the result
// was computed anyway).
type diskCache struct {
	dir string
}

// path places an entry by full content hash; two distinct specs can
// never collide on a file.
func (d *diskCache) path(key Key) string {
	return filepath.Join(d.dir, key.Hex()+".json")
}

// DiskCacheHas reports whether dir holds a live (current-version,
// decodable) entry for key — the per-point completion probe sharded
// sweeps use: because results are published by atomic rename, a live
// entry means the point's simulation finished somewhere and any engine
// sharing dir will serve it without simulating.
func DiskCacheHas(dir string, key Key) bool {
	d := diskCache{dir: dir}
	_, ok := d.load(key)
	return ok
}

// DiskCacheKeys enumerates the keys of finished entries under dir with
// a single directory read, parsing keys out of file names without
// decoding entry bodies. A corrupt or stale-version entry is counted
// here but treated as a miss by load — callers using this for
// completion tracking (the sharded-sweep coordinator) tolerate that
// because their merge path re-simulates whatever load rejects.
func DiskCacheKeys(dir string) ([]Key, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var keys []Key
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		k, err := ParseKey(strings.TrimSuffix(name, ".json"))
		if err != nil {
			continue // not a cache entry (e.g. a foreign file)
		}
		keys = append(keys, k)
	}
	return keys, nil
}

// load returns the cached result for key, or ok=false when the entry is
// absent, corrupt, or from a different schema version.
func (d *diskCache) load(key Key) (sim.Result, bool) {
	blob, err := os.ReadFile(d.path(key))
	if err != nil {
		return sim.Result{}, false
	}
	var en diskEntry
	if err := json.Unmarshal(blob, &en); err != nil || en.Version != diskCacheVersion {
		return sim.Result{}, false
	}
	return en.Result, true
}

// gcTmpAge is how old a tmp-* file must be before gc treats it as
// abandoned by a crashed writer rather than in flight from a live one.
const gcTmpAge = time.Hour

// gc sweeps the cache directory, deleting files that can never be
// served again and whose bytes would otherwise leak forever:
//
//   - entries written under a different diskCacheVersion — a version
//     bump changes the Result schema, and because the spec key does not
//     encode the schema version the old file name is never rewritten by
//     the new version either: without a sweep v1 entries orphan forever;
//   - corrupt entries (load already treats them as misses, but only a
//     re-simulation of the exact same key would overwrite them);
//   - tmp-* temp files older than gcTmpAge, abandoned by writers that
//     died between CreateTemp and Rename.
//
// Everything else is left alone: fresh temp files of concurrent
// writers (the mtime age guard is what makes gc at one sharded
// worker's startup safe against another worker's in-flight write),
// files the cache never wrote, and subdirectories (the sharded-sweep
// coordination state — manifest and lease files — lives under shard/).
// The sweep is best-effort: any read or remove error just skips that
// file. It returns the number of files removed.
func (d *diskCache) gc() (removed int) {
	des, err := os.ReadDir(d.dir)
	if err != nil {
		return 0
	}
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		full := filepath.Join(d.dir, name)
		switch {
		case strings.HasPrefix(name, "tmp-"):
			info, err := de.Info()
			if err != nil || time.Since(info.ModTime()) < gcTmpAge {
				continue
			}
		case strings.HasSuffix(name, ".json"):
			blob, err := os.ReadFile(full)
			if err != nil {
				continue
			}
			var en diskEntry
			if json.Unmarshal(blob, &en) == nil && en.Version == diskCacheVersion {
				continue // live entry
			}
		default:
			continue // not a cache file
		}
		if os.Remove(full) == nil {
			removed++
		}
	}
	return removed
}

// store writes the entry atomically: a unique temp file in the same
// directory, then rename, so a concurrent reader (or a killed process)
// sees either the complete entry or none, never a torn one. It reports
// whether the entry landed.
func (d *diskCache) store(key Key, res sim.Result) bool {
	blob, err := json.Marshal(diskEntry{Version: diskCacheVersion, Result: res})
	if err != nil {
		return false
	}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return false
	}
	tmp, err := os.CreateTemp(d.dir, "tmp-*")
	if err != nil {
		return false
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return false
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	return true
}
