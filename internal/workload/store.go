package workload

import (
	"container/list"
	"fmt"
	"math"
	"sync"

	"repro/internal/cpu"
)

// DefaultTraceBudget is the byte budget of the shared trace store: enough
// for the full 26-app suite at the default 1M-instruction budget (~130 MB
// packed) with generous headroom, while bounding what paper-scale streams
// (100M instructions ≈ 500 MB each) can pin in memory.
const DefaultTraceBudget = 1 << 30 // 1 GiB

// bytesPerInst is the packed size of one instruction: a meta byte
// (cpu.PackMeta) and two uint16 producer distances.
const bytesPerInst = 5

// TraceStats reports a TraceStore's traffic. Every request is counted
// exactly once, as a build, an extension, a hit or a bypass.
type TraceStats struct {
	// Builds counts streams started from scratch (one fresh Generator
	// each); Extensions counts stored streams lengthened to serve a
	// longer request; Hits counts requests served from stored
	// instructions, including those coalesced onto an in-flight build
	// that covers them.
	Builds, Extensions, Hits uint64
	// Bypasses counts requests whose trace alone would exceed the byte
	// budget and therefore streamed from a live Generator instead.
	Bypasses uint64
	// Evictions counts streams dropped to stay within the budget.
	Evictions uint64
	// Entries and Bytes describe the store's current contents: one
	// stream per application, its arrays counted at capacity (the room
	// an extension grows into is resident too).
	Entries int
	Bytes   uint64
}

// String renders the stats as the trace-stats line the command-line
// tools print at the end of a run.
func (st TraceStats) String() string {
	return fmt.Sprintf("trace-stats: built=%d extended=%d reused=%d bypassed=%d evicted=%d entries=%d resident_mb=%.1f",
		st.Builds, st.Extensions, st.Hits, st.Bypasses, st.Evictions, st.Entries, float64(st.Bytes)/(1<<20))
}

// traceEntry is one application's store slot: the packed arrays of the
// longest stream built for it so far and the Generator positioned at
// that stream's end. It is created before its first build starts, so
// concurrent requests coalesce onto a single Generator run.
type traceEntry struct {
	params     Params
	meta       []uint8 // the published stream: len built, cap allocated
	src1, src2 []uint16
	gen        *Generator // positioned at the stream's end; nil until the first build

	// busy is non-nil while a build or extension is in flight; the
	// builder alone touches gen and the arrays past their length
	// meanwhile.
	busy chan struct{}
	elem *list.Element // nil while unpublished or busy
}

// size is the entry's resident bytes: its arrays at capacity.
func (en *traceEntry) size() uint64 { return uint64(cap(en.meta)) * bytesPerInst }

// TraceStore materializes each application's instruction stream once,
// packed, and hands every run that asks for it an independent
// *cpu.TraceSource over the shared arrays, which replays it at a
// fraction of the Generator's cost. A stream of n instructions is the
// first n of the application's one stream (the generator's phase and
// episode state do not depend on the limit), so the store keeps a single
// entry per application: a shorter request is a cursor over a prefix of
// it, and a longer one extends it in place of starting over. A byte
// budget with LRU eviction bounds resident trace data; requests that
// cannot fit (a single stream larger than the whole budget) fall back to
// live generation, which is bit-identical by construction. The zero
// value is not usable; construct with NewTraceStore or use the
// process-wide Shared store.
type TraceStore struct {
	mu      sync.Mutex
	budget  uint64
	entries map[Params]*traceEntry // Params is all-scalar: equality is "same application model"
	lru     *list.List             // of *traceEntry, front = most recently used
	bytes   uint64
	stats   TraceStats
}

// NewTraceStore returns a store with the given byte budget (<= 0 means
// DefaultTraceBudget).
func NewTraceStore(budgetBytes int64) *TraceStore {
	b := uint64(DefaultTraceBudget)
	if budgetBytes > 0 {
		b = uint64(budgetBytes)
	}
	return &TraceStore{
		budget:  b,
		entries: make(map[Params]*traceEntry),
		lru:     list.New(),
	}
}

// shared is the process-wide store: every driver that routes spec
// construction through the engine shares it, so one cmd/experiments
// invocation materializes each Table 2 application exactly once no
// matter how many tables and figures replay it.
var shared = NewTraceStore(0)

// SharedTraces returns the process-wide trace store.
func SharedTraces() *TraceStore { return shared }

// SetBudget replaces the store's byte budget (<= 0 restores the
// default) and evicts immediately if the store is over the new budget.
func (s *TraceStore) SetBudget(budgetBytes int64) {
	b := uint64(DefaultTraceBudget)
	if budgetBytes > 0 {
		b = uint64(budgetBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget = b
	s.evictLocked()
}

// Stats returns a snapshot of the store's counters.
func (s *TraceStore) Stats() TraceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.bytes
	return st
}

// Source returns an instruction source for application p limited to
// limit instructions: a cursor over the stored stream (materializing
// and storing it on first request), or a live Generator when the trace
// alone would blow the byte budget. Either way the instruction sequence
// is identical. It panics on invalid parameters, like NewGenerator.
func (s *TraceStore) Source(p Params, limit uint64) cpu.Source {
	if src := s.Get(p, limit); src != nil {
		return src
	}
	return NewGenerator(p, limit)
}

// Get returns a fresh cursor over application p's first limit
// instructions, or nil when the trace alone would exceed the store's
// budget (callers fall back to live generation). A request the stored
// stream covers reads a prefix of it; a longer one extends the stream
// first, building it from scratch on the first request. Concurrent
// requests coalesce onto one build per application.
func (s *TraceStore) Get(p Params, limit uint64) *cpu.TraceSource {
	s.mu.Lock()
	if limit > s.budget/bytesPerInst { // overflow-safe limit*bytesPerInst > budget
		s.stats.Bypasses++
		s.mu.Unlock()
		return nil
	}
	n := int(limit)
	for {
		en, ok := s.entries[p]
		switch {
		case !ok:
			en = &traceEntry{params: p}
			s.entries[p] = en
			s.stats.Builds++
			s.extendLocked(en, n)
		case len(en.meta) >= n:
			s.stats.Hits++
			if en.elem != nil {
				s.lru.MoveToFront(en.elem)
			}
		case en.busy != nil:
			// Too short, and the generator is the builder's until it
			// publishes: wait, then look again. The build may cover n
			// (a hit), or the entry may be evicted meanwhile.
			busy := en.busy
			s.mu.Unlock()
			<-busy
			s.mu.Lock()
			continue
		default:
			s.stats.Extensions++
			s.extendLocked(en, n)
		}
		src := cpu.NewTraceSource(en.meta[:n:n], en.src1[:n:n], en.src2[:n:n])
		s.mu.Unlock()
		return src
	}
}

// extendLocked draws en's stream out to n instructions and publishes it.
// It is called with s.mu held, releases it while the Generator runs, and
// returns with it held again. The entry leaves the LRU meanwhile, so it
// cannot be evicted under the builder, and its published stream keeps
// serving shorter requests: the new instructions go past the published
// length, which no cursor reads, into spare capacity or into arrays grown
// for them. Growth is geometric (twice the stream, up to the budget), so
// a run of slightly longer requests copies the stream O(log) times; a
// first build is sized exactly. If the build panics (NewGenerator on
// invalid Params), the entry is dropped before the panic goes on, so a
// later request builds afresh instead of waiting on busy for good;
// cursors already handed out keep their arrays.
func (s *TraceStore) extendLocked(en *traceEntry, n int) {
	busy := make(chan struct{})
	en.busy = busy
	if en.elem != nil {
		s.lru.Remove(en.elem)
		en.elem = nil
	}
	meta, src1, src2, old := en.meta, en.src1, en.src2, en.size()
	maxLen := int(s.budget / bytesPerInst)
	s.mu.Unlock()

	built := false
	defer func() {
		if built {
			return
		}
		s.mu.Lock()
		delete(s.entries, en.params) // a busy entry is never evicted, so it is still there
		s.bytes -= old
		close(busy)
		s.mu.Unlock()
	}()
	if en.gen == nil {
		en.gen = NewGenerator(en.params, math.MaxUint64)
	}
	k := len(meta)
	if n > cap(meta) {
		c := max(n, min(2*k, maxLen))
		meta = append(make([]uint8, 0, c), meta...)
		src1 = append(make([]uint16, 0, c), src1...)
		src2 = append(make([]uint16, 0, c), src2...)
	}
	meta, src1, src2 = meta[:n], src1[:n], src2[:n]
	for i := k; i < n; i++ {
		in, _ := en.gen.Next()
		meta[i], src1[i], src2[i] = cpu.PackMeta(in), in.SrcDist1, in.SrcDist2
	}

	built = true
	s.mu.Lock()
	// Publish the stream before entering the LRU: evictLocked reads the
	// entry's size, and a SetBudget shrink racing this insert may evict
	// the entry in the same critical section.
	en.meta, en.src1, en.src2, en.busy = meta, src1, src2, nil
	s.bytes += en.size() - old
	en.elem = s.lru.PushFront(en)
	s.evictLocked()
	close(busy)
}

// evictLocked drops least-recently-used streams until the store fits its
// budget. Entries under construction (no lru element) are never evicted
// here; they account themselves on completion. Runs already holding a
// cursor over an evicted stream keep replaying it safely — eviction only
// drops the store's reference.
func (s *TraceStore) evictLocked() {
	for s.bytes > s.budget {
		back := s.lru.Back()
		if back == nil {
			return
		}
		en := back.Value.(*traceEntry)
		s.lru.Remove(back)
		delete(s.entries, en.params)
		s.bytes -= en.size()
		s.stats.Evictions++
	}
}

// Materialize returns a cursor over application p's first limit
// instructions from a private store, for tests and benchmarks (nil above
// DefaultTraceBudget). It panics on invalid parameters, like NewGenerator.
func Materialize(p Params, limit uint64) *cpu.TraceSource { return NewTraceStore(0).Get(p, limit) }
