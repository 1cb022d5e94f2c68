package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
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
	n, _, err := s.normalized()
	if err != nil {
		return Key{}, err
	}
	return n.key()
}

// key is Key on a normalized spec.
func (n *Spec) key() (Key, error) {
	enc, err := n.canonical()
	if err != nil {
		return Key{}, err
	}
	return sha256.Sum256(enc), nil
}

// Canonical returns the spec's canonical encoding: the normalized spec's
// fields serialized in declaration order with fixed-width scalars,
// length-prefixed strings, and presence bytes for optional sections. PDN
// is left out (normalization folds it into System). It is the ground
// truth the fuzz tests compare Keys against.
func (s Spec) Canonical() ([]byte, error) {
	n, _, err := s.normalized()
	if err != nil {
		return nil, err
	}
	return n.canonical()
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

// canonicalSize presizes the encoding buffer: every registered technique
// on every network kind encodes in under 1 KiB (341–718 bytes over the
// 26 applications).
const canonicalSize = 1 << 10

// canonical is Canonical on a normalized spec.
func (n *Spec) canonical() ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, canonicalSize))
	v := reflect.ValueOf(n).Elem()
	for i := 0; i < v.NumField(); i++ {
		if i == specPDN {
			continue
		}
		if err := encodeValue(buf, v.Field(i)); err != nil {
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
