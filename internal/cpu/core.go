package cpu

import (
	"fmt"
	"math/bits"
)

// Activity reports what the core did in one cycle. The power model turns
// an Activity into energy and current; the techniques read the structural
// occupancies.
type Activity struct {
	Fetched    int // instructions fetched
	Dispatched int // instructions renamed/dispatched
	Committed  int // instructions retired

	Issued      [NumClasses]int // instructions issued, by class
	IssuedTotal int

	L1I int // L1 instruction-cache accesses (instruction granularity)
	L1D int // L1 data-cache accesses started (loads at issue, stores at commit)
	L2  int // L2 accesses started
	Mem int // main-memory accesses started

	BranchesResolved int

	IQOccupancy  int // instructions waiting to issue at end of cycle
	ROBOccupancy int // reorder-buffer occupancy at end of cycle
}

// notDone is the completion cycle of an instruction that has not
// issued: no cycle reaches it, so "doneAt <= cycle" alone tells whether
// a result is available.
const notDone = ^uint64(0)

// noLink terminates the intrusive dependent/wheel lists.
const noLink int32 = -1

// robEntry is one in-flight instruction, 32 bytes. Scheduling is
// event-driven: the entry carries its unresolved-operand count, an
// intrusive list of the entries waiting on its result (depHead, with
// per-operand next links in the waiters), and a link onto the completion
// timing wheel. The producer distances are consumed at dispatch, so the
// entry keeps only what issue and commit read of the instruction.
type robEntry struct {
	doneAt uint64 // cycle the result is ready; notDone until issue

	// depHead is the first waiter on this entry's result, encoded as
	// slot<<1|operand; depNext are this entry's own next-links, one per
	// source operand, threading it through its producers' waiter lists.
	depHead   int32
	depNext   [2]int32
	wheelNext int32 // next entry completing in the same wheel bucket

	class        Class
	mem          MemLevel
	mispredicted bool
	pending      uint8 // unresolved source operands
}

// Core is the cycle-level out-of-order processor model. Create one with
// New and advance it one cycle at a time with Step.
//
// The scheduler separates wakeup from select like real issue logic: an
// instruction's unresolved operands are counted once at dispatch and each
// is resolved exactly once, when its producer's completion cycle arrives
// on a timing wheel. Ready instructions sit in a seq-ordered bitmap that
// issue selects from oldest-first, so per-cycle results are bit-identical
// to a full oldest-first window rescan (the scan survives as a reference
// implementation in the tests) at a fraction of the cost.
type Core struct {
	cfg Config
	src Source
	// trace is src when it is a *TraceSource. The fetch queue is then a
	// window on the trace's own arrays: fetch moves the trace's cursor
	// (the window's end) and dispatch decodes instructions where they
	// sit. Any other source fills a ring from Next.
	trace *TraceSource

	cycle   uint64
	seqNext uint64 // sequence number of the next dispatched instruction

	// rob capacity is cfg.ROBSize rounded up to a power of two so an
	// entry's slot is seq&robMask; occupancy is still capped at the
	// configured ROBSize.
	rob      []robEntry
	robMask  uint64
	robCount int

	// ready is a bitmap over ROB slots of waiting instructions whose
	// operands have all resolved; issue iterates it in seq order.
	ready      []uint64
	readyCount int

	// wheel buckets in-flight completions by doneAt; sized past the
	// longest latency so buckets never alias.
	wheel     []int32
	wheelMask uint64

	// unitCap caches Config.units per class for the select loop.
	unitCap [NumClasses]int
	// classLat and memLat cache Config.latency's answers so the issue
	// loop is a table load instead of a two-level switch.
	classLat [NumClasses]uint64
	memLat   [3]uint64

	// The fetch queue holds fqCount instructions, in the packed trace
	// form, from index fqHead of fqMeta/fqSrc1/fqSrc2. With a trace
	// source those are the trace's arrays and the queue never wraps
	// (fqWrap is 0); otherwise they are a ring of FetchQueue entries
	// (fqWrap) that fetch fills from Next.
	fqMeta         []uint8
	fqSrc1, fqSrc2 []uint16
	fqHead         int
	fqCount        int
	fqWrap         int
	srcDone        bool

	iqCount  int // dispatched but unissued
	lsqCount int // loads+stores in flight

	// Branch-redirect state: dispatch and fetch stop behind a
	// mispredicted branch until it resolves plus the redirect penalty.
	blockedOnBranch bool
	blockedSlot     int // ROB slot of the branch dispatch is blocked on
	redirectClearAt uint64

	committed uint64
	fetchedN  uint64

	// classAmps are the a-priori per-class current estimates used when a
	// Throttle carries an issue-current budget (pipeline damping [14]).
	classAmps [NumClasses]float64
}

// ceilPow2 returns the smallest power of two ≥ n (n ≥ 1).
func ceilPow2(n int) int {
	return 1 << bits.Len(uint(n-1))
}

// New returns a core executing instructions from src under configuration
// cfg. It panics if cfg is invalid, since a Config mistake is a programming
// error, not a runtime condition.
func New(cfg Config, src Source) *Core {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("cpu.New: %v", err))
	}
	robCap := ceilPow2(cfg.ROBSize)
	maxLat := cfg.MemLat // Validate enforces L1Lat ≤ L2Lat ≤ MemLat
	for _, l := range []int{cfg.IntALULat, cfg.IntMulLat, cfg.FPALULat, cfg.FPMulLat} {
		if l > maxLat {
			maxLat = l
		}
	}
	wheelLen := ceilPow2(maxLat + 1)
	c := &Core{
		cfg:       cfg,
		src:       src,
		rob:       make([]robEntry, robCap),
		robMask:   uint64(robCap - 1),
		ready:     make([]uint64, (robCap+63)/64),
		wheel:     make([]int32, wheelLen),
		wheelMask: uint64(wheelLen - 1),
	}
	if t, ok := src.(*TraceSource); ok {
		c.trace = t
		c.fqMeta, c.fqSrc1, c.fqSrc2 = t.meta, t.src1, t.src2
		c.fqHead = t.pos
	} else {
		c.fqMeta = make([]uint8, cfg.FetchQueue)
		c.fqSrc1 = make([]uint16, cfg.FetchQueue)
		c.fqSrc2 = make([]uint16, cfg.FetchQueue)
		c.fqWrap = cfg.FetchQueue
	}
	for i := range c.wheel {
		c.wheel[i] = noLink
	}
	for cl := Class(0); cl < NumClasses; cl++ {
		c.unitCap[cl] = cfg.units(cl)
		c.classLat[cl] = uint64(cfg.latency(Inst{Class: cl}))
	}
	for _, lvl := range []MemLevel{MemL1, MemL2, MemMain} {
		c.memLat[lvl] = uint64(cfg.latency(Inst{Class: Load, Mem: lvl}))
	}
	return c
}

// Fork returns a deep copy of the core that can be stepped
// independently of the original: identical throttle sequences applied to
// both produce bit-identical Activity streams (the contract
// sim.Machine.Fork builds on). The instruction source must implement
// ForkableSource so the clone continues the stream from the same
// position; Fork returns an error otherwise.
func (c *Core) Fork() (*Core, error) {
	fs, ok := c.src.(ForkableSource)
	if !ok {
		return nil, fmt.Errorf("cpu: source %T is not forkable", c.src)
	}
	f := *c
	f.src = fs.Fork()
	if c.trace != nil {
		// The window's arrays are the shared read-only trace; only the
		// cursor is the clone's own.
		f.trace = f.src.(*TraceSource)
	} else {
		f.fqMeta = append([]uint8(nil), c.fqMeta...)
		f.fqSrc1 = append([]uint16(nil), c.fqSrc1...)
		f.fqSrc2 = append([]uint16(nil), c.fqSrc2...)
	}
	f.rob = append([]robEntry(nil), c.rob...)
	f.ready = append([]uint64(nil), c.ready...)
	f.wheel = append([]int32(nil), c.wheel...)
	return &f, nil
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Cycle returns the number of cycles simulated so far.
func (c *Core) Cycle() uint64 { return c.cycle }

// Committed returns the number of instructions retired so far.
func (c *Core) Committed() uint64 { return c.committed }

// Fetched returns the number of instructions fetched so far.
func (c *Core) Fetched() uint64 { return c.fetchedN }

// IPC returns committed instructions per cycle so far.
func (c *Core) IPC() float64 {
	if c.cycle == 0 {
		return 0
	}
	return float64(c.committed) / float64(c.cycle)
}

// Done reports whether the instruction stream is exhausted and the
// pipeline has fully drained.
func (c *Core) Done() bool {
	return c.srcDone && c.fqCount == 0 && c.robCount == 0
}

// SetClassCurrentEstimates installs the per-class issue-current estimates
// (amps) consulted when a throttle carries an issue-current budget.
func (c *Core) SetClassCurrentEstimates(est [NumClasses]float64) {
	c.classAmps = est
}

// ClassCurrentEstimates returns the installed per-class estimates.
func (c *Core) ClassCurrentEstimates() [NumClasses]float64 { return c.classAmps }

// oldestSeq returns the sequence number of the oldest un-retired
// instruction; producers older than this have retired and their results
// are available.
func (c *Core) oldestSeq() uint64 { return c.seqNext - uint64(c.robCount) }

func (c *Core) setReady(slot int) {
	c.ready[slot>>6] |= 1 << uint(slot&63)
	c.readyCount++
}

func (c *Core) clearReady(slot int) {
	c.ready[slot>>6] &^= 1 << uint(slot&63)
	c.readyCount--
}

// Step simulates one clock cycle under throttle t and returns the cycle's
// activity. It is a convenience wrapper over StepInto.
func (c *Core) Step(t Throttle) Activity {
	var act Activity
	c.StepInto(t, &act)
	return act
}

// StepInto simulates one clock cycle under throttle t, writing the cycle's
// activity into *act (which it resets first). Passing the Activity by
// pointer keeps the per-cycle hot path free of large struct copies. Stages
// run in reverse pipeline order (commit, issue, dispatch, fetch) so
// intra-cycle structural hazards resolve naturally.
func (c *Core) StepInto(t Throttle, act *Activity) {
	*act = Activity{}
	c.wake()
	ports := t.cachePorts(c.cfg.CachePorts)
	portsUsed := 0

	c.commit(act, ports, &portsUsed)
	c.issue(act, &t, ports, &portsUsed)
	c.dispatch(act)
	c.fetch(act, t.StallFetch)

	act.IQOccupancy = c.iqCount
	act.ROBOccupancy = c.robCount
	c.cycle++
}

// wake drains this cycle's completion bucket: every instruction whose
// result arrives now walks its waiter list, decrementing each waiter's
// unresolved-operand count and marking it ready when the count hits zero.
func (c *Core) wake() {
	b := &c.wheel[c.cycle&c.wheelMask]
	s := *b
	if s == noLink {
		return
	}
	*b = noLink
	for s != noLink {
		e := &c.rob[s]
		s = e.wheelNext
		e.wheelNext = noLink
		tag := e.depHead
		e.depHead = noLink
		for tag != noLink {
			de := &c.rob[tag>>1]
			next := de.depNext[tag&1]
			de.depNext[tag&1] = noLink
			de.pending--
			if de.pending == 0 {
				c.setReady(int(tag >> 1))
			}
			tag = next
		}
	}
}

func (c *Core) commit(act *Activity, ports int, portsUsed *int) {
	for act.Committed < c.cfg.CommitWidth && c.robCount > 0 {
		e := &c.rob[c.oldestSeq()&c.robMask]
		if e.doneAt > c.cycle {
			break
		}
		if e.class == Store {
			if *portsUsed >= ports {
				break // store write needs a cache port
			}
			*portsUsed++
			c.countMemAccess(act, e.mem)
		}
		if e.class == Load || e.class == Store {
			c.lsqCount--
		}
		c.robCount--
		c.committed++
		act.Committed++
	}
}

// issue selects from the ready bitmap oldest-first, applying the same
// width, unit, port, and current-budget constraints (with skip-and-retry)
// as the reference scan.
func (c *Core) issue(act *Activity, t *Throttle, ports int, portsUsed *int) {
	if c.readyCount == 0 {
		return
	}
	width := t.issueWidth(c.cfg.IssueWidth)
	if width == 0 {
		return
	}
	var unitsUsed [NumClasses]int
	budget := t.IssueCurrentBudget
	budgeted := t.budgeted()

	// Walk the bitmap circularly from the oldest entry's slot: slots
	// ascend in seq order within the window, so this is oldest-first.
	remaining := c.readyCount
	start := int(c.oldestSeq() & c.robMask)
	nw := len(c.ready)
	startWord := start >> 6
	startBit := uint(start & 63)
	for i := 0; i <= nw; i++ {
		wi := startWord + i
		if wi >= nw {
			wi -= nw
		}
		w := c.ready[wi]
		if i == 0 {
			w &= ^uint64(0) << startBit
		} else if i == nw {
			w &= (uint64(1) << startBit) - 1
		}
		for w != 0 {
			slot := wi<<6 | bits.TrailingZeros64(w)
			w &= w - 1
			remaining--
			e := &c.rob[slot]
			cl := e.class
			if unitsUsed[cl] >= c.unitCap[cl] {
				continue
			}
			if cl == Load && *portsUsed >= ports {
				continue
			}
			if budgeted {
				cost := c.classAmps[cl]
				if cost > budget {
					continue
				}
				budget -= cost
			}
			unitsUsed[cl]++
			if cl == Load {
				*portsUsed++
				c.countMemAccess(act, e.mem)
			}
			lat := c.classLat[cl]
			if cl == Load {
				lat = c.memLat[e.mem]
			}
			e.doneAt = c.cycle + lat
			wb := &c.wheel[e.doneAt&c.wheelMask]
			e.wheelNext = *wb
			*wb = int32(slot)
			c.clearReady(slot)
			c.iqCount--
			act.Issued[cl]++
			act.IssuedTotal++
			if cl == Branch {
				act.BranchesResolved++
				if e.mispredicted && c.blockedOnBranch && slot == c.blockedSlot {
					c.blockedOnBranch = false
					c.redirectClearAt = e.doneAt + uint64(c.cfg.MispredictPenalty)
				}
			}
			if act.IssuedTotal >= width {
				return
			}
		}
		if remaining == 0 {
			return
		}
	}
}

func (c *Core) countMemAccess(act *Activity, lvl MemLevel) {
	act.L1D++
	switch lvl {
	case MemL2:
		act.L2++
	case MemMain:
		act.L2++
		act.Mem++
	}
}

func (c *Core) frontendBlocked() bool {
	return c.blockedOnBranch || c.cycle < c.redirectClearAt
}

// dispatch renames up to DecodeWidth instructions from the fetch queue
// into the ROB, decoding each packed instruction straight into its entry.
// Only a mispredicted branch blocks the frontend mid-cycle, and dispatch
// stops right behind it, so the check before the loop covers every
// instruction.
func (c *Core) dispatch(act *Activity) {
	if c.frontendBlocked() {
		return
	}
	for act.Dispatched < c.cfg.DecodeWidth &&
		c.fqCount > 0 &&
		c.robCount < c.cfg.ROBSize &&
		c.iqCount < c.cfg.IQSize {

		h := c.fqHead
		m := c.fqMeta[h]
		cl := Class(m & metaClassMask)
		memOp := cl == Load || cl == Store
		if memOp && c.lsqCount >= c.cfg.LSQSize {
			break
		}
		dist1, dist2 := c.fqSrc1[h], c.fqSrc2[h]
		c.fqHead++
		if c.fqHead == c.fqWrap {
			c.fqHead = 0
		}
		c.fqCount--

		slot := int(c.seqNext & c.robMask)
		e := &c.rob[slot]
		e.doneAt = notDone
		e.class = cl
		e.mem = MemLevel(m >> metaMemShift & metaMemMask)
		e.mispredicted = m&metaMispredict != 0
		e.depHead = noLink
		e.depNext = [2]int32{noLink, noLink}
		e.wheelNext = noLink
		older := uint64(c.robCount)
		pending := c.link(e, slot, 0, dist1, older) + c.link(e, slot, 1, dist2, older)
		e.pending = uint8(pending)
		c.seqNext++
		c.robCount++
		c.iqCount++
		if pending == 0 {
			c.setReady(slot)
		}
		if memOp {
			c.lsqCount++
		}
		act.Dispatched++
		if cl == Branch && e.mispredicted {
			c.blockedOnBranch = true
			c.blockedSlot = slot
			break // nothing younger dispatches until redirect
		}
	}
}

// link resolves source operand op of the entry being dispatched into
// slot, whose producer is dist instructions older. older is how many
// in-flight instructions precede the entry: a producer further back
// predates the stream or has retired, and one whose result is ready by
// this cycle is available too. link returns 0 for an available operand
// and 1 for a pending one, which it threads onto the producer's waiter
// list for wakeup at the producer's completion cycle.
func (c *Core) link(e *robEntry, slot, op int, dist uint16, older uint64) int {
	if dist == 0 || uint64(dist) > older {
		return 0
	}
	pe := &c.rob[(uint64(slot)-uint64(dist))&c.robMask]
	if pe.doneAt <= c.cycle {
		return 0
	}
	e.depNext[op] = pe.depHead
	pe.depHead = int32(slot<<1 | op)
	return 1
}

// fetch brings up to FetchWidth instructions into the fetch queue, as
// many as it has room for. Reaching the end of the stream before that
// marks the source done, on whichever cycle the shortfall happens.
func (c *Core) fetch(act *Activity, stall bool) {
	if stall || c.srcDone || c.frontendBlocked() {
		return
	}
	want := c.cfg.FetchWidth
	if room := c.cfg.FetchQueue - c.fqCount; room < want {
		want = room
	}
	got := 0
	if t := c.trace; t != nil {
		got = len(t.meta) - t.pos
		if got >= want {
			got = want
		} else {
			c.srcDone = true
		}
		t.pos += got
		c.fqCount += got
	} else {
		for ; got < want; got++ {
			in, ok := c.src.Next()
			if !ok {
				c.srcDone = true
				break
			}
			tail := c.fqHead + c.fqCount
			if tail >= c.fqWrap {
				tail -= c.fqWrap
			}
			c.fqMeta[tail], c.fqSrc1[tail], c.fqSrc2[tail] = PackMeta(in), in.SrcDist1, in.SrcDist2
			c.fqCount++
		}
	}
	c.fetchedN += uint64(got)
	act.Fetched = got
	act.L1I = got
}

// Run advances the core until the stream drains or maxCycles elapse,
// discarding per-cycle activity. It returns the number of cycles run.
// It is a convenience for tests and calibration; simulations that need
// power coupling call Step directly.
func (c *Core) Run(maxCycles uint64, t Throttle) uint64 {
	start := c.cycle
	var act Activity
	for !c.Done() && c.cycle-start < maxCycles {
		c.StepInto(t, &act)
	}
	return c.cycle - start
}
