package workload

import "repro/internal/cpu"

// Trace is one application's instruction stream, materialized by running
// a Generator to completion once and packed into parallel slices (one
// meta byte plus two uint16 producer distances per instruction — 5
// bytes/inst, versus the ~10 RNG draws the live Generator spends per
// instruction). A Trace is immutable after Materialize: any number of
// runs may replay it concurrently through independent cursors.
//
// Replay is bit-identical to live generation — the trace stores the
// exact per-instruction RNG outcomes, so a core fed by Source() sees the
// same Inst sequence, cycle for cycle, as one fed by NewGenerator with
// the same (Params, limit). The differential tests in internal/engine
// pin this for every Table 2 application.
type Trace struct {
	params Params

	meta       []uint8
	src1, src2 []uint16
}

// bytesPerInst is the packed size of one instruction (meta + 2 dists).
const bytesPerInst = 5

// Materialize runs a fresh Generator for application p to completion and
// returns the packed trace. It panics on invalid parameters, exactly
// like NewGenerator.
func Materialize(p Params, limit uint64) *Trace {
	g := NewGenerator(p, limit)
	// Bounded limits are the norm; cap the preallocation so a defensive
	// "unlimited" limit doesn't allocate the address space up front.
	n := int(min(limit, 1<<24))
	t := &Trace{
		params: p,
		meta:   make([]uint8, 0, n),
		src1:   make([]uint16, 0, n),
		src2:   make([]uint16, 0, n),
	}
	for {
		in, ok := g.Next()
		if !ok {
			return t
		}
		t.meta = append(t.meta, cpu.PackMeta(in))
		t.src1 = append(t.src1, in.SrcDist1)
		t.src2 = append(t.src2, in.SrcDist2)
	}
}

// Params returns the application parameters the trace was drawn from.
func (t *Trace) Params() Params { return t.params }

// Len returns the number of instructions in the trace.
func (t *Trace) Len() int { return len(t.meta) }

// SizeBytes returns the packed size of the trace's instruction data,
// the unit the TraceStore budget accounts in.
func (t *Trace) SizeBytes() uint64 { return uint64(len(t.meta)) * bytesPerInst }

// At returns instruction i (for tests and inspection; replay goes
// through Source).
func (t *Trace) At(i int) cpu.Inst {
	cl, mem, mis := cpu.UnpackMeta(t.meta[i])
	return cpu.Inst{Class: cl, Mem: mem, Mispredicted: mis, SrcDist1: t.src1[i], SrcDist2: t.src2[i]}
}

// Source returns a fresh replay cursor over the trace. Cursors are
// independent; the shared backing slices are read-only.
func (t *Trace) Source() *cpu.TraceSource {
	return cpu.NewTraceSource(t.meta, t.src1, t.src2)
}
