package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/baselines/convctl"
	"repro/internal/baselines/damping"
	"repro/internal/baselines/voltctl"
	"repro/internal/baselines/wavelet"
	"repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// diskCacheVersion guards the on-disk entry schema: bumping it after a
// Result field change makes every old entry stale, so it is ignored and
// rewritten instead of silently decoding into the wrong shape. Version 3
// marked the PDN generalization (sim.Config gained PDN and SensorDomain,
// so every canonical encoding — and therefore every key — changed);
// version 4 marks the single network selector (sim.Config lost Supply
// and TwoStageSupply, and a spec without a network now encodes the
// lumped Table 1 network explicitly, changing every key again); version
// 5 marks the binary entry (see appendEntry), which replaced a JSON
// object per line, with keys unchanged.
const diskCacheVersion = 5

// diskCache is the engine's persistent second cache tier, so a later
// process (a warm CI golden run, a repeated sweep) serves finished
// Results without simulating. Every result is found under its own name,
// <dir>/<64-hex key>.json, but one simulated lockstep group is one file:
// a line per member (the member's 64-hex key, a space, its entry; see
// appendEntry), hard-linked under every member's name. The content is
// not JSON; the suffix stays because DiskCacheKeys, the shard coordinator
// and gc find entries, an earlier version's too, by it. The file's last
// line names its commit point: store links every other name before it
// renames the file onto that one, so a file reachable under its last
// line's name finished publishing, and such a committed file serves
// every line it holds, whichever name it is opened by. A file not (or
// no longer) under that name — a crash mid-publish — serves only the
// line of the name that opened it. All operations are best-effort — a
// missing, corrupt, or stale entry is a miss, and write failures are
// invisible to correctness (the result was computed anyway).
type diskCache struct {
	dir string
	// reads counts the files read, and checks the commit points stat'ed
	// against a file read (committed), so tests and benchmarks can see
	// how much a batch's probe did.
	reads, checks atomic.Uint64
}

// path places an entry by full content hash; two distinct specs can
// never collide on a name.
func (d *diskCache) path(key Key) string { return d.name(key.lineKey()) }

// name is the file name of a line key's entry, filepath.Join(d.dir,
// <64-hex>.json), in one allocation when d.dir is clean, as a cache
// directory usually is. h must be a lineKey of a Key (lower-case hex).
func (d *diskCache) name(h lineKey) string {
	const sep = string(filepath.Separator)
	if dir := d.dir; dir != "." && dir != sep && filepath.Clean(dir) == dir {
		return dir + sep + string(h[:]) + ".json" // the literals let string(h[:]) skip its copy
	}
	return filepath.Join(d.dir, string(h[:])+".json")
}

// committed reports whether blob, the contents of the file id
// identifies, read through opened's name, finished publishing: whether
// the file is the one under its last line's name, which store renames it
// onto last. It is free when opened is that name, else one counted stat,
// whose device and inode must be the file's. A last line that is not a
// key line the cache writes is no commit point.
func (d *diskCache) committed(blob []byte, opened lineKey, id fileID) bool {
	blob = bytes.TrimSuffix(blob, []byte{'\n'})
	line := blob[bytes.LastIndexByte(blob, '\n')+1:]
	var last lineKey
	if len(line) <= len(last) || line[len(last)] != ' ' {
		return false
	}
	copy(last[:], line)
	if last == opened {
		return true
	}
	for _, c := range last {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	d.checks.Add(1)
	return id.names(d.name(last))
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

// errNoEntry is load's error for a file that holds no current-version
// line for the key it is named by.
var errNoEntry = errors.New("engine: disk-cache file holds no current entry for its key")

// absent reports whether a load error means there is no file to read
// under the key's name — no file, or no cache directory at all — as
// opposed to a file that is there but unusable.
func absent(err error) bool {
	return errors.Is(err, fs.ErrNotExist) || errors.Is(err, syscall.ENOTDIR)
}

// load returns the cached result for key: it reads the file the key
// names and decodes only the line for the key. The error is absent (see
// absent) when there is no such file; otherwise the file is unreadable,
// its line for key does not decode, or it has no current-version line
// for key (errNoEntry: a corrupt or truncated file, or one written
// before results were stored by line).
func (d *diskCache) load(key Key) (sim.Result, error) {
	blob, _, err := d.read(key)
	if err != nil {
		return sim.Result{}, err
	}
	return entryOf(blob, key)
}

// read returns the contents of the file key names and the identity of
// the file it read, which the commit point's name is checked against
// (committed) before the contents serve a co-member's line. A published
// file is never written again, so the size it is opened with is its
// size. Errors are load's: no file under the name is absent, and a name
// that opens but does not read (a directory squatting on it, say) is not.
func (d *diskCache) read(key Key) ([]byte, fileID, error) {
	blob, id, err := readFile(d.path(key))
	if err != nil {
		return nil, fileID{}, err
	}
	d.reads.Add(1)
	return blob, id, nil
}

// entryOf decodes key's entry from a file's contents: the first line
// eachEntry finds for the key (errNoEntry if there is none).
func entryOf(blob []byte, key Key) (res sim.Result, err error) {
	want := key.lineKey()
	err = errNoEntry
	eachEntry(blob, func(k lineKey, body []byte) bool {
		if k != want {
			return true
		}
		res, err = decodeEntry(body)
		return false
	})
	return res, err
}

// entryWords is the number of sim.Result's fixed-width fields, and
// entryStack the payload size appendEntry and decodeEntry keep on the
// stack, which only a client's long workload name exceeds.
const entryWords, entryStack = 15, 256

// appendEntry appends r's entry as store writes it, after the line's key
// and space: the lower-case hex of a payload of
//
//   - the version byte, diskCacheVersion;
//   - App, then Technique, each a uvarint length and the bytes (a custom
//     workload's name comes from the client and has no bound);
//   - sim.Result's fixed-width fields in declaration order, Tech's four
//     counters last, each 8 bytes little-endian, a float64 as its bits.
//
// Hex keeps every entry on one line, so the line walker, the commit
// point and gc read a file as they read any other, and the bits keep a
// result exact, -0 and NaN payloads included.
func appendEntry(b []byte, r *sim.Result) []byte {
	var stack [entryStack]byte
	p := append(stack[:0], diskCacheVersion)
	p = append(binary.AppendUvarint(p, uint64(len(r.App))), r.App...)
	p = append(binary.AppendUvarint(p, uint64(len(r.Technique))), r.Technique...)
	f := math.Float64bits
	for _, w := range [entryWords]uint64{
		r.Cycles, r.Instructions, f(r.IPC), f(r.EnergyJ), f(r.PhantomJ),
		r.Violations, f(r.ViolationFraction), f(r.PeakDeviationV),
		f(r.MeanAmps), f(r.MinAmps), f(r.MaxAmps),
		r.Tech.ControllerCycles, r.Tech.FirstLevelCycles, r.Tech.SecondLevelCycles, r.Tech.ResponseCycles,
	} {
		p = binary.LittleEndian.AppendUint64(p, w)
	}
	return hex.AppendEncode(b, p)
}

// decodeEntry decodes one line's entry, after its key and space. It
// takes only the bytes appendEntry writes for the Result it returns —
// lower-case hex digits, the current version, minimal lengths and
// nothing after the last field — and anything else is errNoEntry: a line
// of another version (every JSON line of an earlier build, which starts
// with '{'), or a corrupt one.
func decodeEntry(body []byte) (r sim.Result, err error) {
	var stack [entryStack]byte
	p := stack[:min(len(body)/2, entryStack)]
	if len(p) < len(body)/2 {
		p = make([]byte, len(body)/2)
	}
	if len(body)%2 != 0 || !unhexLower(p, body) || len(p) == 0 || p[0] != diskCacheVersion {
		return r, errNoEntry
	}
	var okApp, okTech bool
	r.App, p, okApp = entryString(p[1:])
	r.Technique, p, okTech = entryString(p)
	if !okApp || !okTech || len(p) != 8*entryWords {
		return sim.Result{}, errNoEntry
	}
	var w [entryWords]uint64
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	f := math.Float64frombits
	r.Cycles, r.Instructions, r.IPC, r.EnergyJ, r.PhantomJ = w[0], w[1], f(w[2]), f(w[3]), f(w[4])
	r.Violations, r.ViolationFraction, r.PeakDeviationV = w[5], f(w[6]), f(w[7])
	r.MeanAmps, r.MinAmps, r.MaxAmps = f(w[8]), f(w[9]), f(w[10])
	r.Tech = sim.TechStats{ControllerCycles: w[11], FirstLevelCycles: w[12], SecondLevelCycles: w[13], ResponseCycles: w[14]}
	return r, nil
}

// entryString splits a string field off the front of p: its uvarint
// length, in the fewest bytes (binary.Uvarint also takes longer forms,
// whose last byte is 0), then the bytes. A string resultNames holds is
// that one, not a copy of the line's bytes.
func entryString(p []byte) (s string, rest []byte, ok bool) {
	n, w := binary.Uvarint(p)
	if w <= 0 || w > 1 && p[w-1] == 0 || n > uint64(len(p)-w) {
		return "", nil, false
	}
	b := p[w : w+int(n)]
	if s, ok = resultNames[string(b)]; !ok {
		s = string(b)
	}
	return s, p[w+int(n):], true
}

// unhexLower decodes src, two lower-case hex digits per byte, into dst,
// and reports whether every digit was one (hex.Decode also takes upper
// case).
func unhexLower(dst, src []byte) bool {
	for i := range dst {
		hi, lo := hexDigit[src[2*i]], hexDigit[src[2*i+1]]
		if hi|lo > 0xf {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

// hexDigit is each byte's value as a lower-case hex digit, 0xff if it is
// none.
var hexDigit = func() (t [256]byte) {
	for c := range t {
		t[c] = byte(strings.IndexByte("0123456789abcdef", byte(c)))
	}
	return t
}()

// resultNames holds the strings a stored Result's App and Technique
// usually spell — every Table 2 application, the base machine's label
// and every technique's Name (each controller's Name is a constant, so
// a nil one gives it) — so decoding a line copies neither.
var resultNames = func() map[string]string {
	names := append(workload.Names(), string(TechniqueNone))
	for _, t := range []sim.Technique{
		(*tuning.Controller)(nil), (*tuning.DualBand)(nil), (*tuning.PerDomain)(nil),
		(*voltctl.Controller)(nil), (*damping.Controller)(nil), (*convctl.Controller)(nil), (*wavelet.Controller)(nil),
	} {
		names = append(names, t.Name())
	}
	m := make(map[string]string, len(names))
	for _, name := range names {
		m[name] = name
	}
	return m
}()

// lineKey is a key as a file's line spells it: Key.Hex's 64 lower-case
// digits. A line spelling its key any other way (upper-case digits, say)
// matches no Key's lineKey, so it serves nothing.
type lineKey [2 * sha256.Size]byte

func (k Key) lineKey() (h lineKey) {
	hex.Encode(h[:], k[:])
	return h
}

// eachEntry calls f with the key and entry of every line of a file's
// contents that starts with 64 bytes and a space, in file order, until f
// returns false.
func eachEntry(blob []byte, f func(key lineKey, body []byte) bool) {
	const keyLen = len(lineKey{})
	for len(blob) > 0 {
		var line []byte
		line, blob, _ = bytes.Cut(blob, []byte{'\n'})
		if len(line) <= keyLen || line[keyLen] != ' ' {
			continue
		}
		if !f(lineKey(line[:keyLen]), line[keyLen+1:]) {
			return
		}
	}
}

// gcTmpAge is how old a tmp-* file must be before gc treats it as
// abandoned by a crashed writer rather than in flight from a live one.
const gcTmpAge = time.Hour

// gc sweeps the cache directory, deleting files that can never be
// served again and whose bytes would otherwise leak forever:
//
//   - entries written under a different diskCacheVersion — a version
//     bump changes the entry schema, and an old file is rewritten only
//     when its spec runs again, which never happens after a bump that
//     changed every key: without a sweep such entries orphan forever;
//   - corrupt entries, and files from before results were stored by
//     line (load already treats them as misses, but only a
//     re-simulation of the exact same key would replace them);
//   - tmp-* names older than gcTmpAge, abandoned by writers that died
//     before publishing (or while publishing: a name already linked to
//     a temp file keeps serving its line).
//
// Everything else is left alone: fresh temp files of concurrent
// writers (the mtime age guard is what makes gc at one sharded
// worker's startup safe against another worker's in-flight write),
// files the cache never wrote, and subdirectories (the sharded-sweep
// coordination state — manifest and lease files — lives under shard/).
// A name is judged by the line for its own key, so a group's file is
// kept under each name that still finds its line. The sweep is
// best-effort: any read or remove error just skips that file. It
// returns the number of files removed.
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
		switch {
		case strings.HasPrefix(name, "tmp-"):
			info, err := de.Info()
			if err != nil || time.Since(info.ModTime()) < gcTmpAge {
				continue
			}
		case strings.HasSuffix(name, ".json"):
			key, err := ParseKey(strings.TrimSuffix(name, ".json"))
			if err != nil {
				continue // not a cache file
			}
			if _, err := d.load(key); err == nil || absent(err) {
				continue // live entry, or already gone
			}
		default:
			continue // not a cache file
		}
		if os.Remove(filepath.Join(d.dir, name)) == nil {
			removed++
		}
	}
	return removed
}

// store persists one simulated group's results — keys[k]'s result is
// res[k] — and reports how many of them landed. All lines go into one
// unique temp file in the directory, in key order, which is then
// published under each key's name: hard-linked under every name but the
// last and renamed onto the last, so a one-result group costs one
// create and one rename. That rename is the commit point: it comes
// after every link, and the last line names it (see diskCache). A name
// that already exists (a stale entry, or a concurrent writer's) is
// replaced by linking under a temp name and renaming over it. A
// published file is never written again, so a reader (or a killed
// process) sees a name's complete file or none, never a torn one, and a
// crash mid-publish leaves some names served and the rest missing.
func (d *diskCache) store(keys []Key, res []sim.Result) (landed int) {
	var buf []byte
	names := make([]string, len(keys))
	for k, key := range keys {
		h := key.lineKey()
		buf = append(append(buf, h[:]...), ' ')
		buf = append(appendEntry(buf, &res[k]), '\n')
		names[k] = d.name(h)
	}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return 0
	}
	tmp, err := os.CreateTemp(d.dir, "tmp-*")
	if err != nil {
		return 0
	}
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return 0
	}
	last := len(names) - 1
	for _, name := range names[:last] {
		if link(tmp.Name(), name) {
			landed++
		}
	}
	if err := os.Rename(tmp.Name(), names[last]); err != nil {
		os.Remove(tmp.Name())
		return landed
	}
	return landed + 1
}

// link publishes the file at tmp under name as well. An existing name is
// replaced atomically: the file is linked under a second temp name,
// which is renamed over it.
func link(tmp, name string) bool {
	err := os.Link(tmp, name)
	if err == nil {
		return true
	}
	if !errors.Is(err, fs.ErrExist) {
		return false
	}
	alias := tmp + ".link"
	if os.Link(tmp, alias) != nil {
		return false
	}
	if os.Rename(alias, name) != nil {
		os.Remove(alias)
		return false
	}
	return true
}
