// Package power converts per-cycle pipeline activity into processor power
// and current, in the style of the Wattch framework the paper builds on.
//
// Every architectural unit has a per-event energy derived from a
// peak-power budget (105 W at 1.0 V and 10 GHz in the Table 1 design
// point). Aggressive conditional clock gating is modelled: an idle unit
// consumes a configurable residual fraction of its power, and the global
// clock components are never gated (paper §4.1). Current is power divided
// by supply voltage, so the modelled core swings between roughly the
// paper's 35 A idle floor and 105 A peak.
//
// Following the paper (and [10], [14]), multi-cycle operations spread
// their energy across the cycles they occupy rather than charging it all
// to the start cycle; the model keeps a small ring of future energy
// deposits for that purpose.
package power

import (
	"fmt"

	"repro/internal/cpu"
)

// Unit identifies an energy-consuming architectural block.
type Unit int

// Architectural units.
const (
	UnitFrontend Unit = iota // fetch, branch predictor, L1 I-cache
	UnitRename               // rename and dispatch
	UnitWindow               // issue queue wakeup/select
	UnitRegfile              // register file reads/writes
	UnitIntALU
	UnitIntMul
	UnitFPALU
	UnitFPMul
	UnitL1D
	UnitL2
	UnitMem // memory controller / bus interface
	UnitROB // reorder buffer and commit
	UnitBus // result buses
	NumUnits
)

// String returns the unit name.
func (u Unit) String() string {
	names := [...]string{
		"frontend", "rename", "window", "regfile",
		"intalu", "intmul", "fpalu", "fpmul",
		"l1d", "l2", "mem", "rob", "bus",
	}
	if int(u) < len(names) {
		return names[u]
	}
	return fmt.Sprintf("Unit(%d)", int(u))
}

// budgetFraction is each unit's share of the dynamic (gateable) power
// budget at full utilisation, loosely following Wattch's breakdown for a
// wide out-of-order core.
var budgetFraction = [NumUnits]float64{
	UnitFrontend: 0.12,
	UnitRename:   0.06,
	UnitWindow:   0.15,
	UnitRegfile:  0.10,
	UnitIntALU:   0.12,
	UnitIntMul:   0.04,
	UnitFPALU:    0.10,
	UnitFPMul:    0.06,
	UnitL1D:      0.10,
	UnitL2:       0.05,
	UnitMem:      0.03,
	UnitROB:      0.04,
	UnitBus:      0.03,
}

// spreadCycles is how many cycles each unit's event energy is spread over
// (paper §4.1: "spread the current of multi-cycle operations over the
// appropriate pipeline stages"). An instruction's energy is really drawn
// across the pipeline stages it occupies, not in the single issue cycle,
// so even the "one-cycle" units spread over a few cycles; this gives the
// per-cycle current waveform the short-range smoothness of a real core
// while leaving resonance-band (tens of cycles) content untouched.
var spreadCycles = [NumUnits]int{
	UnitFrontend: 3,
	UnitRename:   3,
	UnitWindow:   3,
	UnitRegfile:  3,
	UnitIntALU:   2,
	UnitIntMul:   3,
	UnitFPALU:    3,
	UnitFPMul:    4,
	UnitL1D:      3,
	UnitL2:       6,
	UnitMem:      12,
	UnitROB:      3,
	UnitBus:      3,
}

// Config parameterises the power model.
type Config struct {
	// Vdd is the supply voltage in volts.
	Vdd float64
	// ClockHz is the core clock frequency.
	ClockHz float64
	// PeakWatts is total power with every unit fully utilised (105 W).
	PeakWatts float64
	// IdleWatts is total power with every gateable unit idle: the
	// ungated global clock plus gating residuals (35 W).
	IdleWatts float64
	// GatedResidual is the fraction of a unit's full power it consumes
	// when clock-gated (Wattch-style aggressive gating keeps ~10%).
	GatedResidual float64
}

// DefaultConfig matches the Table 1 design point: 1.0 V, 10 GHz, 105 W
// peak, 35 W idle, 10% gating residual.
func DefaultConfig() Config {
	return Config{Vdd: 1.0, ClockHz: 10e9, PeakWatts: 105, IdleWatts: 35, GatedResidual: 0.10}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Vdd <= 0 || c.ClockHz <= 0:
		return fmt.Errorf("power: Vdd and clock must be positive: %+v", c)
	case c.PeakWatts <= c.IdleWatts || c.IdleWatts <= 0:
		return fmt.Errorf("power: need 0 < IdleWatts < PeakWatts: %+v", c)
	case c.GatedResidual < 0 || c.GatedResidual >= 1:
		return fmt.Errorf("power: gated residual must be in [0,1): %+v", c)
	}
	return nil
}

// spreadRing must cover the longest spread.
const spreadRing = 16

// Step memoization: throttled and stalled cycles repeat a small set of
// activity vectors (often the all-idle vector), so the deposit pattern a
// vector produces is cached in a direct-mapped table keyed by the packed
// vector. A cached entry stores the per-unit (total, share, spread)
// triples and a hit replays exactly the additions the uncached path would
// perform, in the same order — floating-point addition is not
// associative, so pre-summing deposits would change results; replaying
// the identical op sequence keeps hit and miss cycles bit-identical.
const (
	memoBits = 12
	memoSize = 1 << memoBits
)

// memoRow is one active unit's deposit recipe within a memo entry. The
// unit index and spread length are packed into single bytes to keep a
// row at 24 bytes, so the enlarged table stays reasonably cache-dense.
type memoRow struct {
	total float64
	share float64
	u     uint8
	n     uint8
}

// memoEntry caches the deposit recipe of one activity vector. key holds
// the packed vector plus one so the zero value marks an empty slot (the
// all-idle vector packs to zero).
type memoEntry struct {
	key  uint64
	n    uint8
	rows [NumUnits]memoRow
}

// MemoStats reports Step's memoization traffic.
type MemoStats struct {
	// Hits counts cycles served by a cached deposit recipe; Misses
	// counts cycles that computed and cached a new recipe.
	Hits, Misses uint64
	// Bypasses counts cycles whose activity could not be packed into the
	// memo key (some field above 15) and took the original path.
	Bypasses uint64
}

// Lookups returns the total number of Step calls that consulted the memo.
func (s MemoStats) Lookups() uint64 { return s.Hits + s.Misses + s.Bypasses }

// HitRate returns the fraction of Step calls served from the memo.
func (s MemoStats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// memoKey packs the 13 activity fields events reads into 4-bit lanes.
// ok is false when any field exceeds a lane (wider machines' peak cycles
// take the unmemoized path).
func memoKey(act *cpu.Activity) (key uint64, ok bool) {
	f0, f1, f2, f3 := act.Fetched, act.Dispatched, act.IssuedTotal, act.Committed
	f4, f5, f6 := act.L1D, act.L2, act.Mem
	f7, f8 := act.Issued[cpu.IntALU], act.Issued[cpu.IntMul]
	f9, f10 := act.Issued[cpu.FPALU], act.Issued[cpu.FPMul]
	f11, f12 := act.Issued[cpu.Branch], act.Issued[cpu.Store]
	// One combined range check: OR-ing keeps any bit above 0xF (and the
	// sign bit of any negative count) visible, exactly as the per-field
	// v&^0xF test would.
	if (f0|f1|f2|f3|f4|f5|f6|f7|f8|f9|f10|f11|f12)&^0xF != 0 {
		return 0, false
	}
	key = uint64(f0) | uint64(f1)<<4 | uint64(f2)<<8 | uint64(f3)<<12 |
		uint64(f4)<<16 | uint64(f5)<<20 | uint64(f6)<<24 |
		uint64(f7)<<28 | uint64(f8)<<32 | uint64(f9)<<36 | uint64(f10)<<40 |
		uint64(f11)<<44 | uint64(f12)<<48
	return key, true
}

// Model converts cpu.Activity into per-cycle power, current, and energy.
// A Model is stateful because of multi-cycle energy spreading; use one
// Model per simulated core and advance it exactly once per core cycle.
type Model struct {
	cfg Config
	cc  cpu.Config

	// unitEventJ is the dynamic energy deposited per event per unit,
	// already net of the gating residual.
	unitEventJ [NumUnits]float64
	// maxEvents is the per-cycle event capacity per unit.
	maxEvents [NumUnits]float64
	// floorJ is the per-cycle energy with everything idle.
	floorJ float64

	pending [spreadRing]float64
	slot    int

	// Multi-domain accounting (see EnableDomains in domains.go): unit →
	// domain assignment, one spreading ring per domain, and the ungated
	// floor split by each domain's budget share. nd stays zero — and the
	// slices nil — on single-domain models.
	nd         int
	assign     [NumUnits]uint8
	pendingDom [][]float64
	floorDomJ  []float64

	memo       []memoEntry
	memoHits   uint64
	memoMisses uint64
	memoBypass uint64

	totalJ   float64
	perUnit  [NumUnits]float64
	floorTot float64
	cycles   uint64
}

// New returns a power model for a core with structural configuration cc.
// It panics on an invalid Config, mirroring cpu.New.
func New(cfg Config, cc cpu.Config) *Model {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("power.New: %v", err))
	}
	m := &Model{cfg: cfg, cc: cc}
	m.unitEventJ, m.maxEvents, m.floorJ = unitEnergies(cfg, cc)
	m.memo = make([]memoEntry, memoSize)
	return m
}

// unitEnergies derives the per-unit event energy (net of the gating
// residual), the per-unit per-cycle event capacity, and the all-idle
// cycle energy of a core with structural configuration cc under cfg.
// It is plain arithmetic — total over configurations New would reject —
// so the envelope accessors below can be evaluated without a Model.
func unitEnergies(cfg Config, cc cpu.Config) (eventJ, maxEvents [NumUnits]float64, floorJ float64) {
	maxEvents = [NumUnits]float64{
		UnitFrontend: float64(cc.FetchWidth),
		UnitRename:   float64(cc.DecodeWidth),
		UnitWindow:   float64(cc.IssueWidth),
		UnitRegfile:  float64(cc.IssueWidth),
		UnitIntALU:   float64(cc.IntALUs),
		UnitIntMul:   float64(cc.IntMuls),
		UnitFPALU:    float64(cc.FPALUs),
		UnitFPMul:    float64(cc.FPMuls),
		UnitL1D:      float64(cc.CachePorts),
		UnitL2:       1,
		UnitMem:      1,
		UnitROB:      float64(cc.CommitWidth),
		UnitBus:      float64(cc.IssueWidth),
	}

	cycleJ := 1 / cfg.ClockHz
	dynamicW := (cfg.PeakWatts - cfg.IdleWatts) / (1 - cfg.GatedResidual)
	floorW := cfg.IdleWatts - cfg.GatedResidual*dynamicW
	if floorW < 0 {
		floorW = 0
	}
	floorJ = (floorW + cfg.GatedResidual*dynamicW) * cycleJ
	for u := Unit(0); u < NumUnits; u++ {
		fullUnitJ := budgetFraction[u] * dynamicW * cycleJ
		eventJ[u] = fullUnitJ * (1 - cfg.GatedResidual) / maxEvents[u]
	}
	return eventJ, maxEvents, floorJ
}

// Fork returns an independent copy of the model continuing from the
// same accounting state: the in-flight energy deposits of the spreading
// ring, the accumulated totals, and the memo table all carry over, so
// identical future Step sequences yield bit-identical energies. The
// memo's traffic counters start at zero on the copy — each Step is
// counted on exactly one model, so summing MemoStats over a machine and
// all of its forks gives exact totals.
func (m *Model) Fork() *Model {
	f := *m
	f.memo = append([]memoEntry(nil), m.memo...)
	f.memoHits, f.memoMisses, f.memoBypass = 0, 0, 0
	if m.nd > 0 {
		f.pendingDom = make([][]float64, m.nd)
		for d := range f.pendingDom {
			f.pendingDom[d] = append([]float64(nil), m.pendingDom[d]...)
		}
		f.floorDomJ = append([]float64(nil), m.floorDomJ...)
	}
	return &f
}

// Config returns the electrical configuration.
func (m *Model) Config() Config { return m.cfg }

// events maps an Activity onto per-unit event counts, clamped to each
// unit's capacity so malformed activity cannot exceed peak power. It
// writes into *ev to keep the per-cycle path free of array copies.
func (m *Model) events(act *cpu.Activity, ev *[NumUnits]float64) {
	ev[UnitFrontend] = float64(act.Fetched)
	ev[UnitRename] = float64(act.Dispatched)
	ev[UnitWindow] = float64(act.IssuedTotal)
	ev[UnitRegfile] = float64(act.IssuedTotal)
	ev[UnitIntALU] = float64(act.Issued[cpu.IntALU] + act.Issued[cpu.Branch] + act.Issued[cpu.Store])
	ev[UnitIntMul] = float64(act.Issued[cpu.IntMul])
	ev[UnitFPALU] = float64(act.Issued[cpu.FPALU])
	ev[UnitFPMul] = float64(act.Issued[cpu.FPMul])
	ev[UnitL1D] = float64(act.L1D)
	ev[UnitL2] = float64(act.L2)
	ev[UnitMem] = float64(act.Mem)
	ev[UnitROB] = float64(act.Committed)
	ev[UnitBus] = float64(act.IssuedTotal)
	for u := Unit(0); u < NumUnits; u++ {
		if ev[u] > m.maxEvents[u] {
			ev[u] = m.maxEvents[u]
		}
	}
}

// Step accounts one core cycle of activity plus any phantom current and
// returns the cycle's energy in joules. The Activity is passed by pointer
// because Step sits on the per-cycle hot path and the struct is large
// enough to cost a bulk copy per call; Step never mutates it. Phantom
// amps model the phantom operations of the second-level response and of
// [10]: current that does no useful work.
func (m *Model) Step(act *cpu.Activity, phantomAmps float64) float64 {
	if key, ok := memoKey(act); ok {
		en := &m.memo[(key*0x9E3779B97F4A7C15)>>(64-memoBits)]
		if en.key == key+1 {
			m.memoHits++
		} else {
			m.memoMisses++
			m.fillMemo(act, key, en)
		}
		// Replay the cached recipe: the identical additions, in the
		// identical order, as the unmemoized loop below.
		slot := uint(m.slot)
		for i := 0; i < int(en.n); i++ {
			r := &en.rows[i]
			m.perUnit[r.u] += r.total
			for k := uint(0); k < uint(r.n); k++ {
				m.pending[(slot+k)&(spreadRing-1)] += r.share
			}
		}
	} else {
		m.memoBypass++
		var ev [NumUnits]float64
		m.events(act, &ev)
		// Deposit each unit's event energy across its spread window.
		for u := Unit(0); u < NumUnits; u++ {
			if ev[u] == 0 {
				continue
			}
			total := ev[u] * m.unitEventJ[u]
			m.perUnit[u] += total
			n := spreadCycles[u]
			share := total / float64(n)
			for k := uint(0); k < uint(n); k++ {
				m.pending[(uint(m.slot)+k)&(spreadRing-1)] += share
			}
		}
	}
	m.floorTot += m.floorJ
	e := m.floorJ + m.pending[m.slot]
	m.pending[m.slot] = 0
	m.slot = (m.slot + 1) & (spreadRing - 1)

	if phantomAmps > 0 {
		e += phantomAmps * m.cfg.Vdd / m.cfg.ClockHz
	}
	m.totalJ += e
	m.cycles++
	return e
}

// fillMemo computes the deposit recipe for act into en. The recipe's
// totals and shares are produced by the same expressions the unmemoized
// loop evaluates, so replaying it is bit-identical to that loop.
func (m *Model) fillMemo(act *cpu.Activity, key uint64, en *memoEntry) {
	var ev [NumUnits]float64
	m.events(act, &ev)
	en.key = key + 1
	en.n = 0
	for u := Unit(0); u < NumUnits; u++ {
		if ev[u] == 0 {
			continue
		}
		total := ev[u] * m.unitEventJ[u]
		n := spreadCycles[u]
		en.rows[en.n] = memoRow{total: total, share: total / float64(n), u: uint8(u), n: uint8(n)}
		en.n++
	}
}

// MemoStats returns Step's memoization counters.
func (m *Model) MemoStats() MemoStats {
	return MemoStats{Hits: m.memoHits, Misses: m.memoMisses, Bypasses: m.memoBypass}
}

// CurrentAmps converts a cycle energy (joules) into the average current
// drawn over that cycle.
func (m *Model) CurrentAmps(cycleJoules float64) float64 {
	return cycleJoules * m.cfg.ClockHz / m.cfg.Vdd
}

// IdleAmps returns the current drawn by a fully idle cycle.
func (m *Model) IdleAmps() float64 { return m.cfg.IdleWatts / m.cfg.Vdd }

// PeakAmps returns the current drawn with every unit at capacity.
func (m *Model) PeakAmps() float64 { return m.cfg.PeakWatts / m.cfg.Vdd }

// MidAmps returns the midpoint current level, the target the second-level
// response holds with phantom operations.
func (m *Model) MidAmps() float64 { return MidAmps(m.cfg) }

// MidAmps is Model.MidAmps evaluated from the configuration alone.
func MidAmps(cfg Config) float64 { return (cfg.PeakWatts/cfg.Vdd + cfg.IdleWatts/cfg.Vdd) / 2 }

// PhantomFireAmps returns the extra current drawn by phantom-firing the
// L1 caches and all functional units — the high-voltage response of [10].
func (m *Model) PhantomFireAmps() float64 { return PhantomFireAmps(m.cfg, m.cc) }

// PhantomFireAmps is Model.PhantomFireAmps evaluated from the
// configurations alone, without building a Model.
func PhantomFireAmps(cfg Config, cc cpu.Config) float64 {
	eventJ, maxEvents, _ := unitEnergies(cfg, cc)
	j := 0.0
	for _, u := range [...]Unit{UnitL1D, UnitFrontend, UnitIntALU, UnitIntMul, UnitFPALU, UnitFPMul} {
		j += eventJ[u] * maxEvents[u]
	}
	return j * cfg.ClockHz / cfg.Vdd
}

// ClassAmps returns a-priori per-instruction-class current estimates, the
// kind pipeline damping [14] requires. The estimate for a class is the
// full current footprint of moving one instruction through the machine —
// fetch, rename, window, regfile, commit, and bus shares plus its
// functional unit — so that bounding the issued estimate stream bounds
// the processor's dynamic current, as [14]'s whole-pipeline estimates do.
func (m *Model) ClassAmps() [cpu.NumClasses]float64 {
	perIssueJ := m.unitEventJ[UnitWindow] + m.unitEventJ[UnitRegfile] + m.unitEventJ[UnitBus] +
		m.unitEventJ[UnitFrontend] + m.unitEventJ[UnitRename] + m.unitEventJ[UnitROB]
	var fu [cpu.NumClasses]float64
	fu[cpu.IntALU] = m.unitEventJ[UnitIntALU]
	fu[cpu.IntMul] = m.unitEventJ[UnitIntMul]
	fu[cpu.FPALU] = m.unitEventJ[UnitFPALU]
	fu[cpu.FPMul] = m.unitEventJ[UnitFPMul]
	fu[cpu.Load] = m.unitEventJ[UnitL1D]
	fu[cpu.Store] = m.unitEventJ[UnitIntALU] + m.unitEventJ[UnitL1D]
	fu[cpu.Branch] = m.unitEventJ[UnitIntALU]
	var out [cpu.NumClasses]float64
	for cl := cpu.Class(0); cl < cpu.NumClasses; cl++ {
		out[cl] = m.CurrentAmps(fu[cl] + perIssueJ)
	}
	return out
}

// TotalJoules returns the energy accumulated since construction.
func (m *Model) TotalJoules() float64 { return m.totalJ }

// Breakdown reports where the accumulated energy went: the ungated floor
// (global clock plus gating residuals) and each unit's dynamic share.
// Values are in joules; their sum equals TotalJoules minus any energy
// still in flight in the spreading ring and any phantom energy accounted
// by Step's phantomAmps argument.
func (m *Model) Breakdown() (floorJ float64, unitJ [NumUnits]float64) {
	return m.floorTot, m.perUnit
}

// Cycles returns how many cycles have been accounted.
func (m *Model) Cycles() uint64 { return m.cycles }
