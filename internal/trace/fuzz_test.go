package trace

import (
	"bytes"
	"testing"

	"repro/internal/cpu"
)

// FuzzRead feeds arbitrary bytes to the trace decoder: it must either
// reject them with an error or produce a stream that re-encodes to an
// equivalent stream (no panics, no invalid instructions).
func FuzzRead(f *testing.F) {
	// Seed with a valid two-instruction trace.
	var valid bytes.Buffer
	if _, err := Write(&valid, packed([]cpu.Inst{
		{Class: cpu.IntALU, SrcDist1: 3},
		{Class: cpu.Load, Mem: cpu.MemMain, SrcDist2: 7},
	})); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("RTI1\x00\x00\x00\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, blob []byte) {
		rd, err := Read(bytes.NewReader(blob))
		if err != nil {
			return // rejection is fine
		}
		// Accepted: every instruction must be well-formed and the
		// stream must round-trip.
		var insts []cpu.Inst
		for {
			in, ok := rd.Next()
			if !ok {
				break
			}
			if in.Class >= cpu.NumClasses || in.Mem > cpu.MemMain {
				t.Fatalf("decoder produced invalid instruction %+v", in)
			}
			insts = append(insts, in)
		}
		var out bytes.Buffer
		n, err := Write(&out, packed(insts))
		if err != nil {
			t.Fatalf("re-encoding accepted stream: %v", err)
		}
		if int(n) != len(insts) {
			t.Fatalf("re-encoded %d of %d", n, len(insts))
		}
		rd2, err := Read(&out)
		if err != nil {
			t.Fatalf("re-reading: %v", err)
		}
		rd.Reset()
		for i := 0; ; i++ {
			a, okA := rd.Next()
			b, okB := rd2.Next()
			if okA != okB || a != b {
				t.Fatalf("round-trip mismatch at %d", i)
			}
			if !okA {
				break
			}
		}
	})
}
