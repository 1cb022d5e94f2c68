package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/baselines/convctl"
	"repro/internal/circuit"
	"repro/internal/workload"
)

// canonicalReference is the reflection walk's canonical encoding of a
// spec, less PDN: what Spec.canonical returned before the encoder was
// compiled (encodeValue below is that walk, frozen).
func canonicalReference(s *Spec) ([]byte, error) {
	var buf bytes.Buffer
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if i == specPDN {
			continue
		}
		if err := encodeValue(&buf, v.Field(i)); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

func encodeString(buf *bytes.Buffer, s string) {
	var n [binary.MaxVarintLen64]byte
	buf.Write(n[:binary.PutUvarint(n[:], uint64(len(s)))])
	buf.WriteString(s)
}

func encodeUint(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

// encodeValue serializes a configuration value field-by-field in struct
// declaration order. It is reflection-driven so that a field added to
// any config struct is picked up automatically instead of silently
// aliasing distinct specs to one cache entry.
func encodeValue(buf *bytes.Buffer, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			buf.WriteByte(0)
			return nil
		}
		buf.WriteByte(1)
		return encodeValue(buf, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := encodeValue(buf, v.Field(i)); err != nil {
				return fmt.Errorf("%s.%s: %w", v.Type(), v.Type().Field(i).Name, err)
			}
		}
		return nil
	case reflect.String:
		encodeString(buf, v.String())
		return nil
	case reflect.Bool:
		if v.Bool() {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
		return nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		encodeUint(buf, uint64(v.Int()))
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		encodeUint(buf, v.Uint())
		return nil
	case reflect.Float32, reflect.Float64:
		encodeUint(buf, math.Float64bits(v.Float()))
		return nil
	case reflect.Slice:
		// Presence byte (nil vs empty differ for defaulting) plus a
		// length prefix so adjacent slices cannot alias.
		if v.IsNil() {
			buf.WriteByte(0)
			return nil
		}
		buf.WriteByte(1)
		var l [binary.MaxVarintLen64]byte
		buf.Write(l[:binary.PutUvarint(l[:], uint64(v.Len()))])
		for i := 0; i < v.Len(); i++ {
			if err := encodeValue(buf, v.Index(i)); err != nil {
				return fmt.Errorf("%s[%d]: %w", v.Type(), i, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("engine: cannot canonically encode kind %s", v.Kind())
	}
}

// checkCanonical fails t unless the compiled encoding of s is the
// reflection walk's, byte for byte.
func checkCanonical(t *testing.T, s Spec, form string) {
	t.Helper()
	want, err := canonicalReference(&s)
	if err != nil {
		t.Fatalf("%s: reference walk: %v", form, err)
	}
	if got := s.appendCanonical(nil); !bytes.Equal(got, want) {
		t.Fatalf("%s spec %+v:\ncompiled  %x\nreference %x", form, s, got, want)
	}
}

// randomString draws an ASCII string of 0, 1, 7, 127, 128 or 300 bytes,
// so its uvarint length takes one byte or two, or a non-ASCII one of
// about that length.
func randomString(r *rand.Rand) string {
	n := []int{0, 1, 7, 127, 128, 300}[r.Intn(6)]
	if r.Intn(2) == 0 {
		return strings.Repeat("x", n)
	}
	var b strings.Builder
	for b.Len() < n {
		b.WriteString([]string{"µ", "日本", "\x00", "\xff", "é", "a"}[r.Intn(6)])
	}
	return b.String()
}

// randomFloat draws from the values whose bits an encoding could lose:
// ±0, ±Inf, NaN payloads of either sign, subnormals, the extremes, and
// arbitrary bit patterns.
func randomFloat(r *rand.Rand) float64 {
	switch r.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1 - 2*r.Intn(2))
	case 3:
		// Quiet or signalling, positive or negative, any payload.
		return math.Float64frombits(0x7ff0_0000_0000_0000 | uint64(r.Intn(2))<<63 | (1 + uint64(r.Int63n(1<<52-1))))
	case 4:
		return math.Float64frombits(uint64(r.Int63n(1 << 52))) // subnormal
	case 5:
		return math.SmallestNonzeroFloat64
	case 6:
		return math.MaxFloat64 * float64(1-2*r.Intn(2))
	case 7:
		return math.Float64frombits(r.Uint64())
	}
	return r.NormFloat64() * 100
}

// fillRandom sets every settable field reachable from v: integers at
// zero, ±1, their width's extremes or anywhere between; floats from
// randomFloat; strings from randomString; pointers nil or set; slices
// nil, empty, short, or (of scalars) long enough for a two-byte uvarint
// length.
func fillRandom(r *rand.Rand, v reflect.Value) {
	if !v.CanSet() {
		panic(fmt.Sprintf("cannot set a %s", v.Type()))
	}
	switch v.Kind() {
	case reflect.Pointer:
		if r.Intn(4) == 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fillRandom(r, v.Elem())
	case reflect.Slice:
		n := 1 + r.Intn(3)
		switch r.Intn(8) {
		case 0:
			v.SetZero()
			return
		case 1:
			n = 0
		case 2:
			if v.Type().Elem().Kind() != reflect.Struct {
				n = 128 + r.Intn(200)
			}
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fillRandom(r, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(r, v.Field(i))
		}
	case reflect.String:
		v.SetString(randomString(r))
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		bits := v.Type().Bits()
		lo, hi := int64(-1)<<(bits-1), int64(uint64(1)<<(bits-1)-1)
		v.SetInt([]int64{0, 1, -1, lo, hi, r.Int63() >> (64 - bits), -r.Int63() >> (64 - bits)}[r.Intn(7)])
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		hi := ^uint64(0) >> (64 - v.Type().Bits())
		v.SetUint([]uint64{0, 1, hi, r.Uint64() & hi}[r.Intn(4)])
	case reflect.Float32, reflect.Float64:
		v.SetFloat(randomFloat(r))
	default:
		panic(fmt.Sprintf("no random %s", v.Type()))
	}
}

// randomSpec is the i-th random spec: every technique kind in turn on
// every network kind in turn, a quarter of them plain (an application,
// the technique and the network, everything else defaulted, as the
// experiments and the service send them) and the rest with every
// reachable field drawn by fillRandom.
func randomSpec(r *rand.Rand, i int) Spec {
	kinds, nets := Kinds(), circuit.NetworkKinds()
	kind, net := kinds[i%len(kinds)], nets[i/len(kinds)%len(nets)]
	apps := workload.Apps()
	if r.Intn(4) == 0 {
		return Spec{App: apps[r.Intn(len(apps))].Params.Name, Instructions: uint64(r.Intn(3)) * 100_000, Technique: kind, PDN: &circuit.NetworkConfig{Kind: net}}
	}
	var s Spec
	fillRandom(r, reflect.ValueOf(&s).Elem())
	s.Technique = kind
	// The network's kind, through the spec's PDN section, the system's,
	// or both.
	for _, pdn := range []*circuit.NetworkConfig{s.PDN, systemPDN(&s)} {
		if pdn != nil {
			pdn.Kind = net
		}
	}
	// Keep normalization off the derivations a junk supply would send
	// through a long impulse-response simulation: an explicit tap count
	// and an explicit low band.
	switch kind {
	case TechniqueConvolution:
		if s.Convolution == nil {
			s.Convolution = &convctl.Config{}
		}
		s.Convolution.Taps |= 1
	case TechniqueDualBand:
		if s.DualBand == nil {
			s.DualBand = &DualBandConfig{}
		}
		s.DualBand.Low.ReducedIssueWidth |= 1
	}
	return s
}

func systemPDN(s *Spec) *circuit.NetworkConfig {
	if s.System == nil {
		return nil
	}
	return s.System.PDN
}

// allKinds holds a field of every kind the encoder writes, the widths no
// config struct uses yet among them, and reaches itself through a
// pointer.
type allKinds struct {
	I   int
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	U   uint
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	F32 float32
	F64 float64
	B   bool
	S   string
	L   []int16
	N   []struct {
		F float32
		S string
	}
	P *allKinds
}

// TestCanonicalMatchesReflection: the compiled encoder writes exactly
// the reflection walk's bytes, over random specs of every technique and
// network kind, raw and normalized, over random inputs of both
// derived-defaults tables, and over a struct of every kind it encodes;
// a normalized spec's key is the hash of those bytes.
func TestCanonicalMatchesReflection(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	allKindsEncoder := compileEncoder(reflect.TypeOf(allKinds{}), -1)
	for i := 0; i < 10_000; i++ {
		s := randomSpec(r, i)
		checkCanonical(t, s, "raw")
		n, _, err := s.normalized()
		if err != nil {
			t.Fatal(err)
		}
		checkCanonical(t, n, "normalized")
		want, _ := canonicalReference(&n)
		if k, _ := n.key(); k != sha256.Sum256(want) {
			t.Fatalf("normalized spec %+v: key %s is not the hash of its encoding", n, k)
		}

		var cc convctl.Config
		var ts circuit.TwoStageParams
		var ak allKinds
		fillRandom(r, reflect.ValueOf(&cc).Elem())
		fillRandom(r, reflect.ValueOf(&ts).Elem())
		fillRandom(r, reflect.ValueOf(&ak).Elem())
		for _, c := range []struct {
			enc *encoder
			p   unsafe.Pointer
			v   any
		}{
			{convolutionDefaults.enc, unsafe.Pointer(&cc), cc},
			{dualBandDefaults.enc, unsafe.Pointer(&ts), ts},
			{allKindsEncoder, unsafe.Pointer(&ak), ak},
		} {
			var ref bytes.Buffer
			if err := encodeValue(&ref, reflect.ValueOf(c.v)); err != nil {
				t.Fatal(err)
			}
			if got := c.enc.encode(nil, c.p); !bytes.Equal(got, ref.Bytes()) {
				t.Fatalf("%T %+v:\ncompiled  %x\nreference %x", c.v, c.v, got, ref.Bytes())
			}
		}
	}
}

// FuzzCanonicalMatchesReflection: any spec the wire decodes encodes, raw
// and normalized, exactly as the reflection walk encodes it. Seeds are
// the pinned specs' wire forms.
func FuzzCanonicalMatchesReflection(f *testing.F) {
	for _, p := range pinnedSpecs() {
		blob, err := json.Marshal(p.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var s Spec
		if json.Unmarshal(blob, &s) != nil {
			t.Skip()
		}
		checkCanonical(t, s, "raw")
		if n, _, err := s.normalized(); err == nil {
			checkCanonical(t, n, "normalized")
		}
	})
}

// raceEnabled is set in a build with the race detector (race_test.go).
var raceEnabled bool

// TestKeyEncodingAllocatesNothing: Key and MachineKey resolve a spec in
// a holder borrowed from a pool, encode it on the stack and hash it, so
// they allocate nothing for every technique kind on every network kind's
// default: the multi-domain default's slices and the wavelet default's
// scales are shared, and the domain-tuning controller list is derived
// into the holder. It does not run under the race detector, whose
// sync.Pool drops a random share of the holders put back.
func TestKeyEncodingAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are randomized under the race detector")
	}
	for _, kind := range circuit.NetworkKinds() {
		for _, tech := range Kinds() {
			s := Spec{App: "swim", Instructions: 300_000, Technique: tech, PDN: &circuit.NetworkConfig{Kind: kind}}
			for _, f := range []struct {
				name string
				key  func() (Key, error)
			}{{"Key", s.Key}, {"MachineKey", s.MachineKey}} {
				allocs := testing.AllocsPerRun(100, func() {
					if _, err := f.key(); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s of a %s spec on the %s network allocates %v times, want 0", f.name, tech, kind, allocs)
				}
			}
		}
	}
}
