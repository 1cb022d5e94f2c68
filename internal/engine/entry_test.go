package engine

import (
	"context"
	"crypto/sha256"
	"encoding/json"
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

// decodeEntryJSON is decodeEntry as it was before decodeFast, frozen as
// the reference the decoder is checked against.
func decodeEntryJSON(body []byte) (sim.Result, error) {
	var en diskEntry
	if err := json.Unmarshal(body, &en); err != nil {
		return sim.Result{}, err
	}
	if en.Version != diskCacheVersion {
		return sim.Result{}, errNoEntry
	}
	return en.Result, nil
}

// entryLine is a result's entry as store writes it.
func entryLine(tb testing.TB, res sim.Result) []byte {
	tb.Helper()
	line, err := json.Marshal(diskEntry{Version: diskCacheVersion, Result: res})
	if err != nil {
		tb.Fatal(err)
	}
	return line
}

// sameBits reports whether two Results agree in every field, floats bit
// for bit: == and reflect.DeepEqual take -0 for 0.
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

// agreeWithJSON fails tb unless decodeEntry and the frozen reference
// give line the same error, or the same Result bit for bit.
func agreeWithJSON(tb testing.TB, line []byte) {
	tb.Helper()
	got, err := decodeEntry(line)
	want, werr := decodeEntryJSON(line)
	switch {
	case (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error():
		tb.Fatalf("line %q: decodeEntry error %v, encoding/json error %v", line, err, werr)
	case !sameBits(got, want):
		tb.Fatalf("line %q: decodeEntry gives\n%+v\nencoding/json gives\n%+v", line, got, want)
	}
}

// cornerFloats, cornerUints and cornerStrings are the values a random
// Result's fields are drawn from, besides random ones: signed zeros,
// subnormals, the ends of float64's range and of its shortest decimal
// forms' 'f' and 'e' spellings, the largest uint64, and names that
// encoding/json escapes or that are not ASCII.
var (
	cornerFloats = []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, 0x1.fffffffffffffp-1023, 1e308, -1e308, 1e-308, -1e-308, math.MaxFloat64, -math.MaxFloat64,
		1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 1, -1, 0.1, 123456789.125,
	}
	cornerUints   = []uint64{0, 1, 9, 10, math.MaxUint64, math.MaxUint64 - 1, 1 << 63, 1<<53 + 1}
	cornerStrings = []string{
		"", "swim", "resonance-tuning", strings.Repeat("lucas", 400), `a"b`, `a\b`, "<lt>", "a&b",
		"ctl\x01", "tab\t", "nl\n", "del\x7f", "é", "\xff\xfe", " ", " ~!#$%'()*+,-./:;=?@[]^_`{|}",
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
		// Mostly printable ASCII that encoding/json writes unescaped,
		// sometimes any byte.
		b := make([]byte, r.Intn(40))
		for i := range b {
			switch b[i] = byte(' ' + r.Intn('~'-' '+1)); {
			case r.Intn(64) == 0:
				b[i] = byte(r.Intn(256))
			case strings.IndexByte(`"\<>&`, b[i]) >= 0:
				b[i] = '_'
			}
		}
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
		case 1: // any finite float64, subnormals included
			f := math.Float64frombits(r.Uint64())
			for math.IsNaN(f) || math.IsInf(f, 0) {
				f = math.Float64frombits(r.Uint64())
			}
			v.SetFloat(f)
		case 2:
			v.SetFloat(math.Float64frombits(r.Uint64() & (1<<52 - 1))) // subnormal
		default:
			v.SetFloat(r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20)))
		}
	default:
		panic(fmt.Sprintf("engine: a Result field of kind %s", v.Kind()))
	}
}

// plainStrings reports whether every string in res is one that
// encoding/json writes unescaped and decodeFast takes: printable ASCII
// other than '"', '\\', '<', '>' and '&'.
func plainStrings(res sim.Result) bool {
	for _, s := range []string{res.App, res.Technique} {
		for i := 0; i < len(s); i++ {
			if c := s[i]; c < ' ' || c > '~' || strings.IndexByte(`"\<>&`, c) >= 0 {
				return false
			}
		}
	}
	return true
}

// TestDecodeEntryMatchesJSON: decodeEntry gives every line the error, or
// the Result bit for bit, that the frozen encoding/json reference gives
// it — over random Results as store writes them, and over every one-byte
// substitution, insertion and deletion of real lines. Every line store
// writes whose strings it does not escape takes the fast path.
func TestDecodeEntryMatchesJSON(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	fast := 0
	for n := 0; n < 10_000; n++ {
		want := randomResult(r)
		line := entryLine(t, want)
		agreeWithJSON(t, line)
		got, ok := decodeFast(line)
		if plainStrings(want) && !ok {
			t.Fatalf("stored line %q fell back to encoding/json", line)
		}
		if ok {
			fast++
			if !sameBits(got, want) {
				t.Fatalf("line %q decodes to\n%+v\nwant\n%+v", line, got, want)
			}
		}
	}
	t.Logf("%d of 10,000 random lines took the fast path", fast)

	lines := storedLines(t, "swim", "mcf")
	for _, line := range lines {
		if _, ok := decodeFast(line); !ok {
			t.Fatalf("stored line %q fell back to encoding/json", line)
		}
	}
	// The base machine's line on the lumped network, and the longest:
	// a controller's, with its cycle counts set.
	longest := slices.MaxFunc(lines, func(a, b []byte) int { return len(a) - len(b) })
	for _, line := range [][]byte{lines[0], longest} {
		m := make([]byte, 0, len(line)+1)
		for i := 0; i <= len(line); i++ {
			for c := 0; c < 256; c++ {
				if i < len(line) {
					m = append(append(append(m[:0], line[:i]...), byte(c)), line[i+1:]...)
					agreeWithJSON(t, m)
				}
				m = append(append(append(m[:0], line[:i]...), byte(c)), line[i:]...)
				agreeWithJSON(t, m)
			}
			if i < len(line) {
				agreeWithJSON(t, append(append(m[:0], line[:i]...), line[i+1:]...))
			}
		}
	}
}

// TestDecodeStoredLineAllocatesNothing: decodeEntry decodes every line a
// service-zipf cold pass writes for one application — each technique on
// each network kind that validates it — without allocating: its numbers
// parse in place, and its App and Technique strings are resultNames'
// own. TestDecodeEntryMatchesJSON decides that the results are right.
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

// FuzzDecodeEntry: decodeEntry agrees with the frozen encoding/json
// reference on any line, seeded with real service-zipf lines and lines
// of the corner-case values.
func FuzzDecodeEntry(f *testing.F) {
	for _, line := range storedLines(f, "swim") {
		f.Add(line)
	}
	r := rand.New(rand.NewSource(31))
	for n := 0; n < 32; n++ {
		f.Add(entryLine(f, randomResult(r)))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		agreeWithJSON(t, line)
	})
}

// TestDecodeEntryCoversResult: a Result with every field set to a
// distinct non-zero value, as store writes it, takes the fast path and
// comes back equal. A Result field decodeFast does not name fails here.
func TestDecodeEntryCoversResult(t *testing.T) {
	var want sim.Result
	n := 0
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
		case reflect.Float64:
			v.SetFloat(float64(n+1) + 0.25)
		default:
			t.Fatalf("Result field of kind %s", v.Kind())
		}
		n++
	}
	set(reflect.ValueOf(&want).Elem())
	line := entryLine(t, want)
	got, ok := decodeFast(line)
	if !ok {
		t.Fatalf("line %s fell back to encoding/json: decodeFast does not read every field of sim.Result", line)
	}
	if !sameBits(got, want) {
		t.Fatalf("line %s decodes to\n%+v\nwant\n%+v", line, got, want)
	}
}

// TestDiskEntryBytesPinned: a two-member group's file is exactly the
// bytes below, so neither the line shape decodeFast reads nor the
// directories earlier builds wrote can drift unnoticed.
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
	const want = `a7937b64b8caa58f03721bb6bacf5c78cb235febe0e70b1b84cd99541461a08e {"v":4,"result":{"App":"swim","Technique":"resonance-tuning","Cycles":2345,"Instructions":2000,"IPC":0.8528784648187633,"EnergyJ":1.2345e-7,"PhantomJ":3.5e-9,"Violations":3,"ViolationFraction":0.0012793176972281449,"PeakDeviationV":0.0512,"MeanAmps":31.5,"MinAmps":12.25,"MaxAmps":64,"Tech":{"ControllerCycles":2345,"FirstLevelCycles":10,"SecondLevelCycles":2,"ResponseCycles":12}}}
16367aacb67a4a017c8da8ab95682ccb390863780f7114dda0a0e0c55644c7c4 {"v":4,"result":{"App":"parser","Technique":"base","Cycles":18446744073709551615,"Instructions":1,"IPC":-0,"EnergyJ":1e+21,"PhantomJ":5e-324,"Violations":0,"ViolationFraction":1,"PeakDeviationV":-1e-7,"MeanAmps":1e+308,"MinAmps":0,"MaxAmps":0,"Tech":{"ControllerCycles":0,"FirstLevelCycles":0,"SecondLevelCycles":0,"ResponseCycles":0}}}
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
		eachEntry(blob, func(lk lineKey, body []byte) bool {
			if lk != key.lineKey() {
				return true
			}
			if got, ok := decodeFast(body); !ok || !sameBits(got, res[k]) {
				t.Errorf("key %d: line decodes to %+v (fast path %v), want %+v", k, got, ok, res[k])
			}
			return false
		})
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
