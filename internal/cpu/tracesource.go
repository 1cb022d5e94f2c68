package cpu

import "fmt"

// Instruction streams replayed from a materialized trace store each
// instruction as one packed meta byte plus two producer distances (5
// bytes per instruction in struct-of-arrays form). The meta byte layout
// is:
//
//	bits 0-2  Class      (NumClasses = 7 fits in 3 bits)
//	bits 3-4  MemLevel   (MemMain = 2 fits in 2 bits)
//	bit  5    Mispredicted
const (
	metaClassBits  = 3
	metaClassMask  = 1<<metaClassBits - 1
	metaMemShift   = metaClassBits
	metaMemMask    = 3
	metaMispredict = 1 << 5
)

// PackMeta encodes an instruction's class, memory level, and
// misprediction flag into one trace meta byte.
func PackMeta(in Inst) uint8 {
	m := uint8(in.Class) | uint8(in.Mem)<<metaMemShift
	if in.Mispredicted {
		m |= metaMispredict
	}
	return m
}

// TraceSource replays a materialized instruction trace. It implements
// Source with a Next that is an index increment and three slice loads —
// no branch-heavy RNG sampling — so replaying a stored workload costs a
// fraction of generating it (see BenchmarkGeneratorNext vs
// BenchmarkTraceSourceNext). A Core given a TraceSource does not call
// Next at all: it reads the packed arrays in place and moves the cursor
// as it fetches.
//
// A TraceSource never writes its arrays and never reads past their
// length: any number of TraceSources may replay the same trace
// concurrently, while the trace store appends past that length.
type TraceSource struct {
	meta       []uint8
	src1, src2 []uint16
	pos        int
}

// NewTraceSource returns a source replaying the given packed trace. The
// three slices are parallel; it panics on a length mismatch, since that
// is a corrupted trace, not a runtime condition.
func NewTraceSource(meta []uint8, src1, src2 []uint16) *TraceSource {
	if len(src1) != len(meta) || len(src2) != len(meta) {
		panic(fmt.Sprintf("cpu.NewTraceSource: mismatched trace slices (%d meta, %d src1, %d src2)",
			len(meta), len(src1), len(src2)))
	}
	return &TraceSource{meta: meta, src1: src1, src2: src2}
}

// Next implements Source.
func (t *TraceSource) Next() (Inst, bool) {
	i := t.pos
	if i >= len(t.meta) {
		return Inst{}, false
	}
	t.pos = i + 1
	m := t.meta[i]
	return Inst{
		Class:        Class(m & metaClassMask),
		Mem:          MemLevel(m >> metaMemShift & metaMemMask),
		Mispredicted: m&metaMispredict != 0,
		SrcDist1:     t.src1[i],
		SrcDist2:     t.src2[i],
	}, true
}

// Fork implements ForkableSource: the backing trace slices are shared
// read-only, so forking is a cursor copy.
func (t *TraceSource) Fork() Source {
	c := *t
	return &c
}

// Len returns the number of instructions in the trace.
func (t *TraceSource) Len() int { return len(t.meta) }

// Reset rewinds the cursor for another replay.
func (t *TraceSource) Reset() { t.pos = 0 }
