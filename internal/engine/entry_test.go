package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/workload"
)

// serviceGrid is every registered technique on every network kind that
// validates it, for each of the 26 applications at 2,000 instructions:
// 624 specs in 78 lockstep groups (one per application and network),
// the population of the service benchmark's open loop.
func serviceGrid() []Spec {
	var specs []Spec
	for _, app := range workload.Names() {
		for _, kind := range circuit.NetworkKinds() {
			for _, tech := range Kinds() {
				s := Spec{App: app, Instructions: 2_000, Technique: tech, PDN: &circuit.NetworkConfig{Kind: kind}}
				if s.Validate() == nil {
					specs = append(specs, s)
				}
			}
		}
	}
	return specs
}

// storedLines runs serviceGrid's specs of the given applications into a
// fresh disk tier and returns the entry of every spec's line, after its
// key and space, in grid order.
func storedLines(tb testing.TB, apps ...string) [][]byte {
	tb.Helper()
	var specs []Spec
	for _, s := range serviceGrid() {
		if slices.Contains(apps, s.App) {
			specs = append(specs, s)
		}
	}
	d := diskCache{dir: tb.TempDir()}
	if _, err := New(Options{Parallelism: 2, DiskCacheDir: d.dir}).RunAll(context.Background(), specs, nil); err != nil {
		tb.Fatal(err)
	}
	lines := make([][]byte, 0, len(specs))
	for _, s := range specs {
		k, err := s.Key()
		if err != nil {
			tb.Fatal(err)
		}
		blob, _, err := d.read(k)
		if err != nil {
			tb.Fatal(err)
		}
		eachEntry(blob, func(lk lineKey, body []byte) bool {
			if lk != k.lineKey() {
				return true
			}
			lines = append(lines, body)
			return false
		})
	}
	if len(lines) != len(specs) {
		tb.Fatalf("%d lines for %d specs", len(lines), len(specs))
	}
	return lines
}

// sameBits reports whether two Results agree in every field, floats bit
// for bit: == and reflect.DeepEqual take -0 for 0, and NaN for unequal.
func sameBits(a, b sim.Result) bool {
	return sameFieldBits(reflect.ValueOf(a), reflect.ValueOf(b))
}

func sameFieldBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameFieldBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	default:
		return a.Interface() == b.Interface()
	}
}

// exactEntry fails tb unless line is refused with errNoEntry or decodes
// to a Result whose entry, as store writes it, is line byte for byte.
func exactEntry(tb testing.TB, line []byte) {
	tb.Helper()
	res, err := decodeEntry(line)
	switch {
	case err != nil && !errors.Is(err, errNoEntry):
		tb.Fatalf("line %q: error %v, want errNoEntry", line, err)
	case err == nil && !bytes.Equal(appendEntry(nil, &res), line):
		tb.Fatalf("line %q decodes to\n%+v\nwhose entry is\n%q", line, res, appendEntry(nil, &res))
	}
}

// cornerFloats, cornerUints and cornerStrings are the values a random
// Result's fields are drawn from, besides random ones: signed zeros,
// subnormals, the ends of float64's range, infinities and NaNs with
// payloads, the largest uint64, and names of every uvarint length up to
// three bytes, with quotes, backslashes, control and non-ASCII bytes.
var (
	cornerFloats = []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, 0x1.fffffffffffffp-1023, 1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
		1, -1, 0.1, 123456789.125, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000abc), math.Float64frombits(0x7fffffffffffffff),
	}
	cornerUints   = []uint64{0, 1, 9, 10, 127, 128, math.MaxUint64, math.MaxUint64 - 1, 1 << 63, 1<<53 + 1}
	cornerStrings = []string{
		"", "swim", "resonance-tuning", strings.Repeat("x", 127), strings.Repeat("y", 128), strings.Repeat("lucas", 400),
		strings.Repeat("z", 1<<14), `a"b`, `a\b`, "ctl\x01", "nul\x00", "tab\t", "nl\n", "del\x7f", "é", "\xff\xfe", " ",
	}
)

// randomResult sets every field of a Result, found by reflection, so a
// field added to Result is drawn too.
func randomResult(r *rand.Rand) sim.Result {
	var res sim.Result
	randomFields(reflect.ValueOf(&res).Elem(), r)
	return res
}

func randomFields(v reflect.Value, r *rand.Rand) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			randomFields(v.Field(i), r)
		}
	case reflect.String:
		if r.Intn(4) == 0 {
			v.SetString(cornerStrings[r.Intn(len(cornerStrings))])
			return
		}
		b := make([]byte, r.Intn(40))
		r.Read(b)
		v.SetString(string(b))
	case reflect.Uint64:
		if r.Intn(2) == 0 {
			v.SetUint(cornerUints[r.Intn(len(cornerUints))])
			return
		}
		v.SetUint(r.Uint64() >> r.Intn(64))
	case reflect.Float64:
		switch r.Intn(4) {
		case 0:
			v.SetFloat(cornerFloats[r.Intn(len(cornerFloats))])
		case 1: // any bits: subnormals, infinities and NaNs included
			v.SetFloat(math.Float64frombits(r.Uint64()))
		case 2:
			v.SetFloat(math.Float64frombits(r.Uint64() & (1<<52 - 1))) // subnormal
		default:
			v.SetFloat(r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20)))
		}
	default:
		panic(fmt.Sprintf("engine: a Result field of kind %s", v.Kind()))
	}
}

// TestDecodeEntryRoundTrip: every random Result comes back from its
// entry bit for bit, and decoding is exact — every truncation and every
// one-byte substitution, insertion and deletion of two real lines either
// is refused or decodes to a Result whose entry is the mutated line —
// so a laxer reading (upper-case digits, an overlong length, trailing
// bytes, another version) never serves a line.
func TestDecodeEntryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for n := 0; n < 10_000; n++ {
		want := randomResult(r)
		line := appendEntry(nil, &want)
		got, err := decodeEntry(line)
		if err != nil || !sameBits(got, want) {
			t.Fatalf("line %q decodes to\n%+v (%v)\nwant\n%+v", line, got, err, want)
		}
	}

	lines := storedLines(t, "swim", "mcf")
	// The base machine's line on the lumped network, and the longest:
	// a controller's, with its cycle counts set.
	longest := slices.MaxFunc(lines, func(a, b []byte) int { return len(a) - len(b) })
	for _, line := range [][]byte{lines[0], longest} {
		exactEntry(t, line)
		m := make([]byte, 0, len(line)+1)
		for i := 0; i <= len(line); i++ {
			exactEntry(t, line[:i])
			for c := 0; c < 256; c++ {
				if i < len(line) {
					m = append(append(append(m[:0], line[:i]...), byte(c)), line[i+1:]...)
					exactEntry(t, m)
				}
				m = append(append(append(m[:0], line[:i]...), byte(c)), line[i:]...)
				exactEntry(t, m)
			}
			if i < len(line) {
				exactEntry(t, append(append(m[:0], line[:i]...), line[i+1:]...))
			}
		}
	}

	// Lines a laxer decoder would read as lines[0]'s Result.
	p, err := hex.DecodeString(string(lines[0]))
	if err != nil || p[1] >= 0x80 {
		t.Fatalf("payload %x (%v): want a one-byte App length", p, err)
	}
	overlong := append([]byte{p[0], p[1] | 0x80, 0}, p[2:]...)
	v4 := append([]byte{4}, p[1:]...)
	for _, bad := range [][]byte{
		bytes.ToUpper(lines[0]),
		hex.AppendEncode(nil, overlong),
		append(slices.Clip(lines[0]), "00"...),
		hex.AppendEncode(nil, v4),
		[]byte(v4Entry()),
	} {
		if _, err := decodeEntry(bad); !errors.Is(err, errNoEntry) {
			t.Errorf("line %q: error %v, want errNoEntry", bad, err)
		}
	}
}

// TestDecodeStoredLineAllocatesNothing: decodeEntry decodes every line a
// service-zipf cold pass writes for one application — each technique on
// each network kind that validates it — without allocating: its payload
// is decoded on the stack, and its App and Technique strings are
// resultNames' own. TestDecodeEntryRoundTrip decides that the results
// are right.
func TestDecodeStoredLineAllocatesNothing(t *testing.T) {
	for _, line := range storedLines(t, "swim") {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := decodeEntry(line); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("decoding %s allocates %v times, want 0", line, allocs)
		}
	}
}

// FuzzDecodeEntry: decodeEntry never panics, and refuses any line but
// the exact entry of the Result it decodes to, seeded with real
// service-zipf lines and the entries of corner-case Results.
func FuzzDecodeEntry(f *testing.F) {
	for _, line := range storedLines(f, "swim") {
		f.Add(line)
	}
	r := rand.New(rand.NewSource(31))
	for n := 0; n < 32; n++ {
		res := randomResult(r)
		f.Add(appendEntry(nil, &res))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		exactEntry(t, line)
	})
}

// TestDecodeEntryCoversResult: a Result with every field set to a
// distinct non-zero value comes back from its entry equal, and the entry
// holds one fixed-width word per numeric field. A Result field the codec
// does not name fails here.
func TestDecodeEntryCoversResult(t *testing.T) {
	var want sim.Result
	n, words := 0, 0
	var set func(v reflect.Value)
	set = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				set(v.Field(i))
			}
			return
		case reflect.String:
			v.SetString(fmt.Sprintf("field-%d", n+1))
		case reflect.Uint64:
			v.SetUint(uint64(n + 1))
			words++
		case reflect.Float64:
			v.SetFloat(float64(n+1) + 0.25)
			words++
		default:
			t.Fatalf("Result field of kind %s", v.Kind())
		}
		n++
	}
	set(reflect.ValueOf(&want).Elem())
	if words != entryWords {
		t.Fatalf("sim.Result has %d fixed-width fields, the entry stores %d", words, entryWords)
	}
	line := appendEntry(nil, &want)
	got, err := decodeEntry(line)
	if err != nil || !sameBits(got, want) {
		t.Fatalf("line %s decodes to\n%+v (%v)\nwant\n%+v", line, got, err, want)
	}
}

// v4GroupFile is the file an earlier build, at diskCacheVersion 4 (one
// JSON object per line), wrote for TestDiskEntryBytesPinned's results.
const v4GroupFile = `a7937b64b8caa58f03721bb6bacf5c78cb235febe0e70b1b84cd99541461a08e {"v":4,"result":{"App":"swim","Technique":"resonance-tuning","Cycles":2345,"Instructions":2000,"IPC":0.8528784648187633,"EnergyJ":1.2345e-7,"PhantomJ":3.5e-9,"Violations":3,"ViolationFraction":0.0012793176972281449,"PeakDeviationV":0.0512,"MeanAmps":31.5,"MinAmps":12.25,"MaxAmps":64,"Tech":{"ControllerCycles":2345,"FirstLevelCycles":10,"SecondLevelCycles":2,"ResponseCycles":12}}}
16367aacb67a4a017c8da8ab95682ccb390863780f7114dda0a0e0c55644c7c4 {"v":4,"result":{"App":"parser","Technique":"base","Cycles":18446744073709551615,"Instructions":1,"IPC":-0,"EnergyJ":1e+21,"PhantomJ":5e-324,"Violations":0,"ViolationFraction":1,"PeakDeviationV":-1e-7,"MeanAmps":1e+308,"MinAmps":0,"MaxAmps":0,"Tech":{"ControllerCycles":0,"FirstLevelCycles":0,"SecondLevelCycles":0,"ResponseCycles":0}}}
`

// v4Entry is v4GroupFile's first line after its key and space.
func v4Entry() string {
	line, _, _ := strings.Cut(v4GroupFile, "\n")
	return line[len(lineKey{})+1:]
}

// TestDiskEntryBytesPinned: a two-member group's file is exactly the
// bytes below, so the line format cannot drift unnoticed.
func TestDiskEntryBytesPinned(t *testing.T) {
	keys := []Key{sha256.Sum256([]byte("first")), sha256.Sum256([]byte("second"))}
	res := []sim.Result{{
		App: "swim", Technique: "resonance-tuning",
		Cycles: 2345, Instructions: 2000, IPC: 0.8528784648187633,
		EnergyJ: 1.2345e-7, PhantomJ: 3.5e-9,
		Violations: 3, ViolationFraction: 0.0012793176972281449, PeakDeviationV: 0.0512,
		MeanAmps: 31.5, MinAmps: 12.25, MaxAmps: 64,
		Tech: sim.TechStats{ControllerCycles: 2345, FirstLevelCycles: 10, SecondLevelCycles: 2, ResponseCycles: 12},
	}, {
		App: "parser", Technique: "base",
		Cycles: math.MaxUint64, Instructions: 1,
		IPC: math.Copysign(0, -1), EnergyJ: 1e21, PhantomJ: math.SmallestNonzeroFloat64,
		ViolationFraction: 1, PeakDeviationV: -1e-7, MeanAmps: 1e308,
	}}
	const want = `a7937b64b8caa58f03721bb6bacf5c78cb235febe0e70b1b84cd99541461a08e 05047377696d107265736f6e616e63652d74756e696e672909000000000000d0070000000000002e7f3bc7c74aeb3f8edbffaeb591803e84f743d694102e3e03000000000000009e34eeead8f5543f2d431cebe236aa3f0000000000803f400000000000802840000000000000504029090000000000000a0000000000000002000000000000000c00000000000000
16367aacb67a4a017c8da8ab95682ccb390863780f7114dda0a0e0c55644c7c4 05067061727365720462617365ffffffffffffffff0100000000000000000000000000008050efe2d6e41a4b4401000000000000000000000000000000000000000000f03f48afbc9af2d77abea0c8eb85f3cce17f000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
`
	d := diskCache{dir: t.TempDir()}
	if landed := d.store(keys, res); landed != len(keys) {
		t.Fatalf("%d of %d results landed", landed, len(keys))
	}
	for k, key := range keys {
		blob, err := os.ReadFile(d.path(key))
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != want {
			t.Fatalf("file under key %d holds\n%s\nwant\n%s", k, blob, want)
		}
		if got, err := entryOf(blob, key); err != nil || !sameBits(got, res[k]) {
			t.Errorf("key %d: line decodes to %+v (%v), want %+v", k, got, err, res[k])
		}
	}
}

// TestDiskCacheVersion4Directory: a directory an earlier build wrote is
// served by none of its lines. A version 4 line under a real spec's name
// is one read fault, one miss and one disk write to a fresh engine,
// which leaves the name holding a current line that a second engine
// serves from disk; DiskCacheKeys still lists a file holding only
// version 4 lines, and the gc sweep removes it.
func TestDiskCacheVersion4Directory(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{App: "swim", Instructions: 2_000, Technique: TechniqueTuning}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	d := diskCache{dir: dir}
	if err := os.WriteFile(d.path(key), []byte(key.Hex()+" "+v4Entry()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := Key(sha256.Sum256([]byte("first")))
	if err := os.WriteFile(d.path(old), []byte(v4GroupFile), 0o644); err != nil {
		t.Fatal(err)
	}

	e := New(Options{DiskCacheDir: dir})
	want, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.DiskReadErrors != 1 || st.Misses != 1 || st.DiskWrites != 1 || st.DiskHits != 0 {
		t.Fatalf("stats %s, want 1 read fault, 1 miss and 1 disk write", counters(st))
	}
	if got, err := d.load(key); err != nil || !sameBits(got, want) {
		t.Fatalf("the rewritten name loads %+v (%v), want %+v", got, err, want)
	}
	e = New(Options{DiskCacheDir: dir})
	if got, err := e.Run(context.Background(), spec); err != nil || got != want {
		t.Fatalf("second engine: %+v (%v), want %+v", got, err, want)
	}
	if st := e.CacheStats(); st.DiskHits != 1 || st.Misses != 0 || st.DiskReadErrors != 0 {
		t.Errorf("second engine: stats %s, want 1 disk hit", counters(st))
	}

	keys, err := DiskCacheKeys(dir)
	if err != nil || !slices.Contains(keys, old) || !slices.Contains(keys, key) {
		t.Fatalf("DiskCacheKeys lists %d keys (%v), want the version 4 file's and the spec's", len(keys), err)
	}
	e = New(Options{DiskCacheDir: dir, DiskCacheGC: true})
	if st := e.CacheStats(); st.DiskGCRemoved != 1 {
		t.Errorf("DiskGCRemoved = %d, want 1 (the version 4 file)", st.DiskGCRemoved)
	}
	if _, err := os.Stat(d.path(old)); !os.IsNotExist(err) {
		t.Errorf("gc left the version 4 file: %v", err)
	}
	if _, err := e.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.DiskHits != 1 {
		t.Errorf("after gc: stats %s, want the spec's current line served from disk", counters(st))
	}
}

// TestDiskCachePathMatchesJoin: path names an entry exactly as
// filepath.Join does, for clean and unclean directories alike, and
// builds the name of a clean one in a single allocation.
func TestDiskCachePathMatchesJoin(t *testing.T) {
	key := Key(sha256.Sum256([]byte("path")))
	for _, dir := range []string{t.TempDir(), t.TempDir() + "/", "cache", "./cache", "cache/../other", ".", "/", ""} {
		d := diskCache{dir: dir}
		if got, want := d.path(key), filepath.Join(dir, key.Hex()+".json"); got != want {
			t.Errorf("dir %q: path %q, want %q", dir, got, want)
		}
	}
	d := diskCache{dir: t.TempDir()}
	if n := testing.AllocsPerRun(100, func() { d.path(key) }); n != 1 {
		t.Errorf("path makes %v allocations, want 1", n)
	}
}
