// Package cpu implements a cycle-level model of the 8-wide out-of-order
// superscalar processor of Table 1 in the paper: 8-wide fetch/issue/commit,
// 128-entry reorder buffer and load-store queue, two-ported L1 caches, and
// the Table 1 functional-unit pool. The model executes synthetic
// instruction streams (see package workload) rather than a real ISA; what
// matters for inductive noise is the per-cycle *activity* waveform, which
// the model reports so the power model can convert it into current.
//
// The pipeline exposes the throttle hooks that all three inductive-noise
// techniques rely on: reducing issue width and cache ports (resonance
// tuning's first-level response), stalling issue entirely (second level),
// stalling fetch (the technique of [10]), and bounding the estimated
// current issued per cycle (pipeline damping [14]).
package cpu

// Class categorises instructions by the functional unit they occupy.
type Class uint8

// Instruction classes.
const (
	IntALU Class = iota // single-cycle integer ALU op
	IntMul              // integer multiply/divide
	FPALU               // floating-point add/sub
	FPMul               // floating-point multiply/divide
	Load                // memory load
	Store               // memory store
	Branch              // conditional or unconditional branch
	NumClasses
)

// String returns the class mnemonic.
func (c Class) String() string {
	switch c {
	case IntALU:
		return "intalu"
	case IntMul:
		return "intmul"
	case FPALU:
		return "fpalu"
	case FPMul:
		return "fpmul"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return "unknown"
	}
}

// MemLevel is the level of the memory hierarchy that services a load or
// store.
type MemLevel uint8

// Memory hierarchy levels.
const (
	MemL1   MemLevel = iota // L1 hit
	MemL2                   // L1 miss, L2 hit
	MemMain                 // L2 miss, main memory access
)

// String returns the level name.
func (m MemLevel) String() string {
	switch m {
	case MemL1:
		return "L1"
	case MemL2:
		return "L2"
	case MemMain:
		return "mem"
	default:
		return "unknown"
	}
}

// Inst is one synthetic instruction. Dependencies are expressed as
// distances: SrcDist1/SrcDist2 give how many instructions earlier in
// program order the producing instruction is (0 means no dependency).
type Inst struct {
	Class Class
	// SrcDist1 and SrcDist2 are producer distances in program order;
	// 0 means the operand is immediately available.
	SrcDist1, SrcDist2 uint16
	// Mem is the hierarchy level that services this Load or Store.
	Mem MemLevel
	// Mispredicted marks a branch whose prediction is wrong; the
	// frontend refetches after the branch resolves.
	Mispredicted bool
}

// Source supplies the instruction stream executed by the core.
//
// The core reads a *TraceSource in place: its fetch queue is a window on
// the trace's packed arrays, and fetch only advances the trace's cursor.
// Stored workload traces and recorded streams (trace.Read) both arrive
// as one. Any other source — in practice the live workload Generator,
// which runs the streams too long for the trace store's budget — is read
// one Next call per fetched instruction into a small ring in the same
// packed form, so dispatch is one loop whichever way the stream arrives.
type Source interface {
	// Next returns the next instruction, or ok=false when the stream
	// is exhausted.
	Next() (inst Inst, ok bool)
}

// ForkableSource is an optional Source extension for sources whose
// cursor state can be duplicated mid-stream. Fork returns an
// independent source that continues from the same position and yields
// exactly the same remaining instructions; the original is unaffected.
// Core.Fork (and through it sim.Machine.Fork) requires its source to be
// forkable.
type ForkableSource interface {
	Source
	Fork() Source
}
