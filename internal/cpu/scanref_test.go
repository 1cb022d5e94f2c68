package cpu

// scanCore is the original scan-based pipeline model, kept verbatim as a
// test-only reference implementation. The shipping Core replaced the
// per-cycle O(ROBSize) issue rescan with an event-driven scheduler; the
// differential property test in differential_test.go checks the two
// produce bit-identical per-cycle Activity streams under every throttle
// shape. Keep this in sync with nothing: it is frozen on purpose.

// scan-reference instruction states inside the ROB.
const (
	stWaiting uint8 = iota // dispatched, waiting for operands or a unit
	stExec                 // issued; result ready at doneAt
)

type scanROBEntry struct {
	inst   Inst
	seq    uint64
	state  uint8
	doneAt uint64
}

type scanCore struct {
	cfg Config
	src Source

	cycle   uint64
	seqNext uint64

	rob      []scanROBEntry
	head     int
	robCount int

	fq      []Inst
	fqHead  int
	fqCount int
	srcDone bool

	iqCount  int
	lsqCount int

	blockedOnBranch bool
	blockedSeq      uint64
	redirectClearAt uint64

	committed uint64
	fetchedN  uint64

	classAmps [NumClasses]float64
}

func newScanCore(cfg Config, src Source) *scanCore {
	return &scanCore{
		cfg: cfg,
		src: src,
		rob: make([]scanROBEntry, cfg.ROBSize),
		fq:  make([]Inst, cfg.FetchQueue),
	}
}

func (c *scanCore) Done() bool {
	return c.srcDone && c.fqCount == 0 && c.robCount == 0
}

func (c *scanCore) Committed() uint64 { return c.committed }

func (c *scanCore) SetClassCurrentEstimates(est [NumClasses]float64) { c.classAmps = est }

func (c *scanCore) oldestSeq() uint64 { return c.seqNext - uint64(c.robCount) }

func (c *scanCore) ready(e *scanROBEntry) bool {
	return c.operandReady(e.seq, e.inst.SrcDist1) && c.operandReady(e.seq, e.inst.SrcDist2)
}

func (c *scanCore) operandReady(seq uint64, dist uint16) bool {
	if dist == 0 {
		return true
	}
	d := uint64(dist)
	if d > seq {
		return true
	}
	p := seq - d
	if p < c.oldestSeq() {
		return true
	}
	pe := &c.rob[p%uint64(c.cfg.ROBSize)]
	return pe.state == stExec && pe.doneAt <= c.cycle
}

func (c *scanCore) Step(t Throttle) Activity {
	var act Activity
	ports := t.cachePorts(c.cfg.CachePorts)
	portsUsed := 0

	c.commit(&act, ports, &portsUsed)
	c.issue(&act, t, ports, &portsUsed)
	c.dispatch(&act)
	c.fetch(&act, t)

	act.IQOccupancy = c.iqCount
	act.ROBOccupancy = c.robCount
	c.cycle++
	return act
}

func (c *scanCore) commit(act *Activity, ports int, portsUsed *int) {
	for act.Committed < c.cfg.CommitWidth && c.robCount > 0 {
		e := &c.rob[c.head]
		if e.state != stExec || e.doneAt > c.cycle {
			break
		}
		if e.inst.Class == Store {
			if *portsUsed >= ports {
				break
			}
			*portsUsed++
			c.countMemAccess(act, e.inst.Mem)
		}
		if e.inst.Class == Load || e.inst.Class == Store {
			c.lsqCount--
		}
		c.head = (c.head + 1) % c.cfg.ROBSize
		c.robCount--
		c.committed++
		act.Committed++
	}
}

func (c *scanCore) issue(act *Activity, t Throttle, ports int, portsUsed *int) {
	width := t.issueWidth(c.cfg.IssueWidth)
	if width == 0 {
		return
	}
	var unitsUsed [NumClasses]int
	budget := t.IssueCurrentBudget
	idx := c.head
	waitingSeen := 0
	for scanned := 0; scanned < c.robCount && act.IssuedTotal < width && waitingSeen < c.iqCount+act.IssuedTotal; scanned++ {
		e := &c.rob[idx]
		idx = (idx + 1) % c.cfg.ROBSize
		if e.state != stWaiting {
			continue
		}
		waitingSeen++
		if !c.ready(e) {
			continue
		}
		cl := e.inst.Class
		if unitsUsed[cl] >= c.cfg.units(cl) {
			continue
		}
		if cl == Load && *portsUsed >= ports {
			continue
		}
		if t.budgeted() {
			cost := c.classAmps[cl]
			if cost > budget {
				continue
			}
			budget -= cost
		}
		unitsUsed[cl]++
		if cl == Load {
			*portsUsed++
			c.countMemAccess(act, e.inst.Mem)
		}
		e.state = stExec
		e.doneAt = c.cycle + uint64(c.cfg.latency(e.inst))
		c.iqCount--
		act.Issued[cl]++
		act.IssuedTotal++
		if cl == Branch {
			act.BranchesResolved++
			if e.inst.Mispredicted && c.blockedOnBranch && e.seq == c.blockedSeq {
				c.blockedOnBranch = false
				c.redirectClearAt = e.doneAt + uint64(c.cfg.MispredictPenalty)
			}
		}
	}
}

func (c *scanCore) countMemAccess(act *Activity, lvl MemLevel) {
	act.L1D++
	switch lvl {
	case MemL2:
		act.L2++
	case MemMain:
		act.L2++
		act.Mem++
	}
}

func (c *scanCore) frontendBlocked() bool {
	return c.blockedOnBranch || c.cycle < c.redirectClearAt
}

func (c *scanCore) dispatch(act *Activity) {
	for act.Dispatched < c.cfg.DecodeWidth &&
		c.fqCount > 0 &&
		c.robCount < c.cfg.ROBSize &&
		c.iqCount < c.cfg.IQSize &&
		!c.frontendBlocked() {

		in := c.fq[c.fqHead]
		if (in.Class == Load || in.Class == Store) && c.lsqCount >= c.cfg.LSQSize {
			break
		}
		c.fqHead = (c.fqHead + 1) % c.cfg.FetchQueue
		c.fqCount--

		tail := (c.head + c.robCount) % c.cfg.ROBSize
		c.rob[tail] = scanROBEntry{inst: in, seq: c.seqNext, state: stWaiting}
		c.seqNext++
		c.robCount++
		c.iqCount++
		if in.Class == Load || in.Class == Store {
			c.lsqCount++
		}
		act.Dispatched++
		if in.Class == Branch && in.Mispredicted {
			c.blockedOnBranch = true
			c.blockedSeq = c.seqNext - 1
			break
		}
	}
}

func (c *scanCore) fetch(act *Activity, t Throttle) {
	if t.StallFetch || c.srcDone || c.frontendBlocked() {
		return
	}
	for act.Fetched < c.cfg.FetchWidth && c.fqCount < c.cfg.FetchQueue {
		in, ok := c.src.Next()
		if !ok {
			c.srcDone = true
			break
		}
		tail := (c.fqHead + c.fqCount) % c.cfg.FetchQueue
		c.fq[tail] = in
		c.fqCount++
		c.fetchedN++
		act.Fetched++
		act.L1I++
	}
}
