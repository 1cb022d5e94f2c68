package workload

import "repro/internal/cpu"

// Trace is one application's instruction stream, materialized by running
// a Generator once and packed into parallel slices (one meta byte plus
// two uint16 producer distances per instruction — 5 bytes/inst, versus
// the ~10 RNG draws the live Generator spends per instruction). A Trace
// is immutable once built: any number of runs may replay it concurrently
// through independent cursors, and a shorter trace of the same
// application may be a prefix view sharing its arrays.
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
	return (&Trace{params: p}).extend(NewGenerator(p, limit), int(limit))
}

// extend returns the first n (>= t.Len()) instructions of t's stream in
// new arrays sized exactly to n: t's instructions copied, then the rest
// drawn from g, which must be positioned at t's end and yield at least
// that many. t is never written, so every view of it stays valid.
func (t *Trace) extend(g *Generator, n int) *Trace {
	e := &Trace{
		params: t.params,
		meta:   make([]uint8, n),
		src1:   make([]uint16, n),
		src2:   make([]uint16, n),
	}
	k := copy(e.meta, t.meta)
	copy(e.src1, t.src1)
	copy(e.src2, t.src2)
	for i := k; i < n; i++ {
		in, _ := g.Next()
		e.meta[i] = cpu.PackMeta(in)
		e.src1[i] = in.SrcDist1
		e.src2[i] = in.SrcDist2
	}
	return e
}

// prefix returns the trace of t's first n (<= t.Len()) instructions: t
// itself when n is its whole length, otherwise a view sharing t's
// read-only arrays.
func (t *Trace) prefix(n int) *Trace {
	if n == len(t.meta) {
		return t
	}
	return &Trace{params: t.params, meta: t.meta[:n], src1: t.src1[:n], src2: t.src2[:n]}
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
