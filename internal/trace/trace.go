// Package trace serialises instruction streams so that workloads can be
// recorded once and replayed exactly — or supplied from outside the repo
// entirely (the closest a synthetic-workload reproduction gets to "bring
// your own SPEC trace"). The format is a small versioned binary encoding:
//
//	magic "RTI1" | uint32 count | count × record
//	record: class u8 | mem u8 | flags u8 | srcDist1 u16 | srcDist2 u16
//
// All multi-byte fields are little-endian. Read decodes a stream into the
// packed arrays a materialized workload trace uses and returns a
// *cpu.TraceSource over them, so a core fetches a recorded stream in
// place, a machine on it forks, and Reset replays it any number of times.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/cpu"
)

// magic identifies the format and its version.
var magic = [4]byte{'R', 'T', 'I', '1'}

const recordSize = 7

// flag bits.
const flagMispredicted = 1 << 0

// Write serialises the instructions drawn from src (until exhaustion) to
// w and returns how many were written.
func Write(w io.Writer, src cpu.Source) (uint32, error) {
	bw := bufio.NewWriter(w)
	// Count is unknown up front for a generic Source, so buffer records
	// and patch the header; instruction streams used here are bounded,
	// so accumulate in memory.
	var records []byte
	var count uint32
	var rec [recordSize]byte
	for {
		in, ok := src.Next()
		if !ok {
			break
		}
		if count == ^uint32(0) {
			return count, fmt.Errorf("trace: stream exceeds %d instructions", ^uint32(0))
		}
		encode(&rec, in)
		records = append(records, rec[:]...)
		count++
	}
	if _, err := bw.Write(magic[:]); err != nil {
		return 0, fmt.Errorf("trace: writing header: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, count); err != nil {
		return 0, fmt.Errorf("trace: writing count: %w", err)
	}
	if _, err := bw.Write(records); err != nil {
		return 0, fmt.Errorf("trace: writing records: %w", err)
	}
	return count, bw.Flush()
}

// encode packs one instruction into a record.
func encode(rec *[recordSize]byte, in cpu.Inst) {
	rec[0] = byte(in.Class)
	rec[1] = byte(in.Mem)
	rec[2] = 0
	if in.Mispredicted {
		rec[2] |= flagMispredicted
	}
	binary.LittleEndian.PutUint16(rec[3:5], in.SrcDist1)
	binary.LittleEndian.PutUint16(rec[5:7], in.SrcDist2)
}

// decode unpacks one record.
func decode(rec []byte) (cpu.Inst, error) {
	in := cpu.Inst{
		Class:        cpu.Class(rec[0]),
		Mem:          cpu.MemLevel(rec[1]),
		Mispredicted: rec[2]&flagMispredicted != 0,
		SrcDist1:     binary.LittleEndian.Uint16(rec[3:5]),
		SrcDist2:     binary.LittleEndian.Uint16(rec[5:7]),
	}
	if in.Class >= cpu.NumClasses {
		return in, fmt.Errorf("trace: invalid instruction class %d", rec[0])
	}
	if in.Mem > cpu.MemMain {
		return in, fmt.Errorf("trace: invalid memory level %d", rec[1])
	}
	return in, nil
}

// Read parses an entire recorded stream from r.
func Read(r io.Reader) (*cpu.TraceSource, error) {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if hdr != magic {
		return nil, fmt.Errorf("trace: bad magic %q (want %q)", hdr, magic)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	// The count is read, not trusted: the arrays grow with the records
	// that are actually there.
	hint := min(count, 1<<20)
	meta := make([]uint8, 0, hint)
	src1 := make([]uint16, 0, hint)
	src2 := make([]uint16, 0, hint)
	var rec [recordSize]byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		in, err := decode(rec[:])
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		meta = append(meta, cpu.PackMeta(in))
		src1 = append(src1, in.SrcDist1)
		src2 = append(src2, in.SrcDist2)
	}
	return cpu.NewTraceSource(meta, src1, src2), nil
}
