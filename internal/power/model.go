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

// deposit is what one unit adds in a cycle at a given event count: the
// joules charged to the unit, and the share of them laid into each of
// the unit's spreadCycles ring slots.
type deposit struct{ total, share float64 }

// maxTabled caps each unit's deposit table. A validated cpu.Config
// bounds unit capacities only from below, so without the cap a
// configuration from outside the program could make New allocate
// without bound; counts past a table are evaluated inline, with the
// expressions the table is filled with.
const maxTabled = 64

// MemoStats reported the traffic of the activity-vector memo Step once
// used; per-unit deposit tables replaced that memo.
//
// Deprecated: always zero. The type is kept because benchmark tooling
// still reads its fields.
type MemoStats struct {
	Hits, Misses, Bypasses uint64
}

// Lookups returns Hits + Misses + Bypasses.
//
// Deprecated: always zero, like MemoStats.
func (s MemoStats) Lookups() uint64 { return s.Hits + s.Misses + s.Bypasses }

// HitRate returns Hits over Lookups, or zero without lookups.
//
// Deprecated: always zero, like MemoStats.
func (s MemoStats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
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
	// maxEvents is the per-cycle event capacity per unit; larger counts
	// are clamped to it.
	maxEvents [NumUnits]int
	// dep[u][c] is unit u's deposit at c events, for c from zero to
	// min(maxEvents[u], maxTabled). The tables are filled by New and
	// never written again, so forks share them.
	dep [NumUnits][]deposit
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
	pendingDom [][spreadRing]float64
	floorDomJ  []float64

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
	var maxEvents [NumUnits]float64
	m.unitEventJ, maxEvents, m.floorJ = unitEnergies(cfg, cc)
	size := 0
	for u := Unit(0); u < NumUnits; u++ {
		m.maxEvents[u] = int(maxEvents[u])
		size += min(m.maxEvents[u], maxTabled) + 1
	}
	// One backing array holds every unit's table.
	tab := make([]deposit, size)
	for u := Unit(0); u < NumUnits; u++ {
		n := min(m.maxEvents[u], maxTabled) + 1
		m.dep[u], tab = tab[:n:n], tab[n:]
		for c := range m.dep[u] {
			m.dep[u][c] = m.unitDeposit(u, c)
		}
	}
	return m
}

// unitDeposit evaluates unit u's deposit at c events.
func (m *Model) unitDeposit(u Unit, c int) deposit {
	total := float64(c) * m.unitEventJ[u]
	return deposit{total, total / float64(spreadCycles[u])}
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
// rings and the accumulated totals carry over, so identical future Step
// sequences yield bit-identical energies. The deposit tables are never
// written after New, so the copy shares them; a fork costs the model's
// own fields, about a kilobyte, plus its domain rings.
func (m *Model) Fork() *Model {
	f := *m
	if m.nd > 0 {
		f.pendingDom = append([][spreadRing]float64(nil), m.pendingDom...)
		f.floorDomJ = append([]float64(nil), m.floorDomJ...)
	}
	return &f
}

// Config returns the electrical configuration.
func (m *Model) Config() Config { return m.cfg }

// depositCycle accounts one cycle of activity: each unit with events
// adds its deposit's total to the unit's energy and its share to
// spreadCycles[u] consecutive slots, from the current one, of the single
// ring — or, when domains is set, of the ring of the unit's domain.
// Counts are clamped to each unit's capacity so malformed activity
// cannot exceed peak power. Units go in order and slots in ring order:
// floating-point addition is not associative, so this order is part of
// the result.
func (m *Model) depositCycle(act *cpu.Activity, domains bool) {
	counts := [NumUnits]int{
		UnitFrontend: act.Fetched,
		UnitRename:   act.Dispatched,
		UnitWindow:   act.IssuedTotal,
		UnitRegfile:  act.IssuedTotal,
		UnitIntALU:   act.Issued[cpu.IntALU] + act.Issued[cpu.Branch] + act.Issued[cpu.Store],
		UnitIntMul:   act.Issued[cpu.IntMul],
		UnitFPALU:    act.Issued[cpu.FPALU],
		UnitFPMul:    act.Issued[cpu.FPMul],
		UnitL1D:      act.L1D,
		UnitL2:       act.L2,
		UnitMem:      act.Mem,
		UnitROB:      act.Committed,
		UnitBus:      act.IssuedTotal,
	}
	slot := uint(m.slot)
	for u := Unit(0); u < NumUnits; u++ {
		c := min(counts[u], m.maxEvents[u])
		if c == 0 {
			continue
		}
		var d deposit
		if tab := m.dep[u]; uint(c) < uint(len(tab)) {
			d = tab[c]
		} else {
			// A negative count (cpu.Core produces none) or one past
			// the table.
			d = m.unitDeposit(u, c)
		}
		m.perUnit[u] += d.total
		ring := &m.pending
		if domains {
			ring = &m.pendingDom[m.assign[u]]
		}
		for k, n := uint(0), uint(spreadCycles[u]); k < n; k++ {
			ring[(slot+k)&(spreadRing-1)] += d.share
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
	m.depositCycle(act, false)
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
