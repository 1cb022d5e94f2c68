package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"unsafe"
)

// Key is the content address of a Spec: the SHA-256 of its canonical
// encoding. Two Specs share a Key exactly when their canonical encodings
// are equal, i.e. when they describe the same simulation after default
// resolution — pointer identity, field defaulting, and unused technique
// configurations never influence it.
type Key [sha256.Size]byte

// String renders the key as short hex for logs and error messages.
func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }

// Hex renders the full content address — the form disk-cache file
// names, sharded-sweep lease files, and the server's NDJSON lines use.
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// ParseKey decodes a full-hex content address as rendered by Key.Hex.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return Key{}, fmt.Errorf("engine: bad key hex: %w", err)
	}
	if len(b) != len(k) {
		return Key{}, fmt.Errorf("engine: key is %d hex bytes, want %d", len(b), len(k))
	}
	copy(k[:], b)
	return k, nil
}

// Key returns the spec's content address.
func (s Spec) Key() (Key, error) {
	r, err := borrowResolved(&s)
	if err != nil {
		return Key{}, err
	}
	k, err := r.n.key()
	resolvedPool.Put(r)
	return k, err
}

// key is Key on a normalized spec. Its error is always nil: every
// normalized spec encodes.
func (n *Spec) key() (Key, error) {
	var buf [canonicalSize]byte
	return sha256.Sum256(n.appendCanonical(buf[:0])), nil
}

// Canonical returns the spec's canonical encoding: the normalized spec's
// fields serialized in declaration order with fixed-width scalars,
// length-prefixed strings, and presence bytes for optional sections. PDN
// is left out (normalization folds it into System). It is the ground
// truth the fuzz tests compare Keys against.
func (s Spec) Canonical() ([]byte, error) {
	r, err := borrowResolved(&s)
	if err != nil {
		return nil, err
	}
	var buf [canonicalSize]byte
	b := bytes.Clone(r.n.appendCanonical(buf[:0]))
	resolvedPool.Put(r)
	return b, nil
}

// canonicalSize sizes the encoding buffer a key is built in on the
// stack: every registered technique on every network kind encodes in
// under 1 KiB (341–718 bytes over the 26 applications); a longer
// encoding spills to the heap.
const canonicalSize = 1 << 10

// appendCanonical appends the spec's canonical encoding to b.
func (n *Spec) appendCanonical(b []byte) []byte {
	return specEncoder.encode(b, unsafe.Pointer(n))
}

// specPDN is the index of the Spec field the canonical encoding leaves
// out.
var specPDN = specField("PDN")

func specField(name string) int {
	f, ok := reflect.TypeFor[Spec]().FieldByName(name)
	if !ok {
		panic("engine: Spec has no field " + name)
	}
	return f.Index[0]
}

// specEncoder is Spec's canonical encoder, less its PDN field.
var specEncoder = compileEncoder(reflect.TypeFor[Spec](), specPDN)

// An encoder writes a value of one type in its canonical encoding: each
// field in struct declaration order, with
//   - a pointer as a presence byte, then its element;
//   - a slice as a presence byte (nil and empty differ for defaulting),
//     a uvarint length so adjacent slices cannot alias, then each
//     element;
//   - a string as a uvarint length, then its bytes;
//   - every integer width as 8 bytes big-endian, sign-extended when
//     signed;
//   - a float as the 8 big-endian bytes of math.Float64bits, so −0 and
//     NaN payloads keep their bits;
//   - a bool as one byte.
//
// Reflection decides the fields, their order and their kinds, once per
// type (compileEncoder), so a field added to any config struct is picked
// up automatically instead of silently aliasing distinct specs to one
// cache entry; encoding is then a flat loop over the resulting
// operations, reading each field at its offset from the value's
// address. encodeValue, the reflection walk this replaced, is kept in
// the tests as the reference its bytes are checked against.
type encoder struct {
	ops []encodeOp
}

// encodeOp writes the field at off from a value's address as kind. An
// 8-byte integer or float is written as the uint64 of its bits, so it
// compiles to a Uint64 op, and adjacent ones merge into one op of n
// words.
type encodeOp struct {
	off  uintptr
	kind reflect.Kind
	n    uintptr  // a Uint64 op's words
	elem *encoder // a pointer's or slice's element type's encoder
	size uintptr  // a slice element's size
}

// sliceHeader is the runtime layout of every slice.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// compileEncoder compiles t's encoder, leaving out t's top-level field
// skip (−1 keeps them all). It panics on a kind with no canonical
// encoding — a map, interface, array, func, chan, complex, uintptr or
// unsafe pointer anywhere in t — so such a field fails when the package
// initializes instead of when a spec is keyed.
func compileEncoder(t reflect.Type, skip int) *encoder {
	c := encoderCompiler{}
	return &encoder{ops: c.ops(nil, t, 0, skip, t.String())}
}

// encoderCompiler holds the element encoders compiled so far, one per
// type, so a type reached twice is compiled once and a recursive type
// terminates.
type encoderCompiler map[reflect.Type]*encoder

func (c encoderCompiler) encoder(t reflect.Type) *encoder {
	if e, ok := c[t]; ok {
		return e
	}
	e := &encoder{}
	c[t] = e
	e.ops = c.ops(nil, t, 0, -1, t.String())
	return e
}

// ops appends the operations that encode a t at offset off, flattening
// struct fields in declaration order; path names the field for a panic.
func (c encoderCompiler) ops(ops []encodeOp, t reflect.Type, off uintptr, skip int, path string) []encodeOp {
	switch k := t.Kind(); k {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if i != skip {
				f := t.Field(i)
				ops = c.ops(ops, f.Type, off+f.Offset, -1, path+"."+f.Name)
			}
		}
		return ops
	case reflect.Pointer:
		return append(ops, encodeOp{off: off, kind: k, elem: c.encoder(t.Elem())})
	case reflect.Slice:
		return append(ops, encodeOp{off: off, kind: k, elem: c.encoder(t.Elem()), size: t.Elem().Size()})
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		if t.Size() == 8 {
			if last := len(ops) - 1; last >= 0 && ops[last].kind == reflect.Uint64 && ops[last].off+8*ops[last].n == off {
				ops[last].n++
				return ops
			}
			return append(ops, encodeOp{off: off, kind: reflect.Uint64, n: 1})
		}
		fallthrough
	case reflect.String, reflect.Bool:
		return append(ops, encodeOp{off: off, kind: k})
	}
	panic(fmt.Sprintf("engine: cannot canonically encode %s: kind %s", path, t.Kind()))
}

// encode appends the canonical encoding of the value at p, which must
// point to a value of the encoder's type, to b.
func (e *encoder) encode(b []byte, p unsafe.Pointer) []byte {
	for i := range e.ops {
		op := &e.ops[i]
		at := unsafe.Add(p, op.off)
		switch op.kind {
		case reflect.Pointer:
			elem := *(*unsafe.Pointer)(at)
			if elem == nil {
				b = append(b, 0)
				continue
			}
			b = op.elem.encode(append(b, 1), elem)
		case reflect.Slice:
			s := (*sliceHeader)(at)
			if s.data == nil {
				b = append(b, 0)
				continue
			}
			b = binary.AppendUvarint(append(b, 1), uint64(s.len))
			for j := 0; j < s.len; j++ {
				b = op.elem.encode(b, unsafe.Add(s.data, uintptr(j)*op.size))
			}
		case reflect.String:
			s := *(*string)(at)
			b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
		case reflect.Bool:
			v := byte(0)
			if *(*bool)(at) {
				v = 1
			}
			b = append(b, v)
		case reflect.Uint64:
			for w := uintptr(0); w < op.n; w++ {
				b = binary.BigEndian.AppendUint64(b, *(*uint64)(unsafe.Add(at, 8*w)))
			}
		case reflect.Int: // on 32-bit platforms, where it is 4 bytes
			b = binary.BigEndian.AppendUint64(b, uint64(*(*int)(at)))
		case reflect.Int8:
			b = binary.BigEndian.AppendUint64(b, uint64(*(*int8)(at)))
		case reflect.Int16:
			b = binary.BigEndian.AppendUint64(b, uint64(*(*int16)(at)))
		case reflect.Int32:
			b = binary.BigEndian.AppendUint64(b, uint64(*(*int32)(at)))
		case reflect.Uint: // likewise
			b = binary.BigEndian.AppendUint64(b, uint64(*(*uint)(at)))
		case reflect.Uint8:
			b = binary.BigEndian.AppendUint64(b, uint64(*(*uint8)(at)))
		case reflect.Uint16:
			b = binary.BigEndian.AppendUint64(b, uint64(*(*uint16)(at)))
		case reflect.Uint32:
			b = binary.BigEndian.AppendUint64(b, uint64(*(*uint32)(at)))
		case reflect.Float32:
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(float64(*(*float32)(at))))
		}
	}
	return b
}
