package power

import (
	"math"
	"testing"

	"repro/internal/cpu"
)

func newModel() *Model { return New(DefaultConfig(), cpu.DefaultConfig()) }

// fullActivity returns an Activity with every unit at capacity.
func fullActivity(cc cpu.Config) cpu.Activity {
	var act cpu.Activity
	act.Fetched = cc.FetchWidth
	act.Dispatched = cc.DecodeWidth
	act.Committed = cc.CommitWidth
	act.Issued[cpu.IntALU] = cc.IntALUs
	act.Issued[cpu.IntMul] = cc.IntMuls
	act.Issued[cpu.FPALU] = cc.FPALUs
	act.Issued[cpu.FPMul] = cc.FPMuls
	act.IssuedTotal = cc.IssueWidth
	act.L1D = cc.CachePorts
	act.L2 = 1
	act.Mem = 1
	return act
}

func TestIdleCycleDrawsIdleCurrent(t *testing.T) {
	m := newModel()
	for i := 0; i < 100; i++ {
		e := m.Step(&cpu.Activity{}, 0)
		amps := m.CurrentAmps(e)
		if math.Abs(amps-35) > 1e-9 {
			t.Fatalf("idle cycle %d draws %g A, want 35", i, amps)
		}
	}
}

func TestSustainedFullActivityApproachesPeak(t *testing.T) {
	m := newModel()
	act := fullActivity(cpu.DefaultConfig())
	var amps float64
	for i := 0; i < 100; i++ {
		amps = m.CurrentAmps(m.Step(&act, 0))
	}
	// With all spreads in steady state the full-capacity cycle must
	// draw the full 105 A.
	if math.Abs(amps-105) > 0.5 {
		t.Errorf("sustained full activity draws %g A, want ≈ 105", amps)
	}
}

func TestCurrentBoundedByPeak(t *testing.T) {
	m := newModel()
	act := fullActivity(cpu.DefaultConfig())
	// Overdrive the counters: the model must clamp to unit capacity.
	act.Fetched *= 10
	act.IssuedTotal *= 10
	act.L1D *= 10
	act.L2 = 50
	act.Mem = 50
	for i := 0; i < 200; i++ {
		amps := m.CurrentAmps(m.Step(&act, 0))
		if amps > m.PeakAmps()+1e-9 {
			t.Fatalf("cycle %d draws %g A, exceeding peak %g", i, amps, m.PeakAmps())
		}
	}
}

func TestEnergyConservedUnderSpreading(t *testing.T) {
	// One burst cycle followed by idle: total energy must equal the
	// burst energy plus idle floors, regardless of how it is spread.
	cc := cpu.DefaultConfig()
	burst := fullActivity(cc)

	spread := New(DefaultConfig(), cc)
	spread.Step(&burst, 0)
	for i := 0; i < spreadRing; i++ {
		spread.Step(&cpu.Activity{}, 0)
	}

	cfg := DefaultConfig()
	wantDynamic := (cfg.PeakWatts - cfg.IdleWatts) / cfg.ClockHz // one full cycle of net dynamic energy
	wantTotal := float64(spreadRing+1)*cfg.IdleWatts/cfg.ClockHz + wantDynamic
	if got := spread.TotalJoules(); math.Abs(got-wantTotal)/wantTotal > 1e-9 {
		t.Errorf("total energy %g J, want %g J", got, wantTotal)
	}
	if spread.Cycles() != spreadRing+1 {
		t.Errorf("cycles %d, want %d", spread.Cycles(), spreadRing+1)
	}
}

func TestSpreadingSmoothsCurrent(t *testing.T) {
	// An L2+memory access burst should not land all in one cycle.
	m := newModel()
	var act cpu.Activity
	act.L2, act.Mem = 1, 1
	first := m.CurrentAmps(m.Step(&act, 0))
	second := m.CurrentAmps(m.Step(&cpu.Activity{}, 0))
	if second <= m.IdleAmps() {
		t.Error("no residual energy in the cycle after a memory access")
	}
	if first >= m.IdleAmps()+(m.PeakAmps()-m.IdleAmps())*0.08 {
		t.Errorf("memory access energy insufficiently spread: first cycle %g A", first)
	}
	_ = second
}

func TestPhantomAmpsAddExactly(t *testing.T) {
	m1, m2 := newModel(), newModel()
	e1 := m1.Step(&cpu.Activity{}, 0)
	e2 := m2.Step(&cpu.Activity{}, 25)
	diff := m2.CurrentAmps(e2) - m1.CurrentAmps(e1)
	if math.Abs(diff-25) > 1e-9 {
		t.Errorf("phantom 25 A added %g A", diff)
	}
}

func TestDerivedCurrents(t *testing.T) {
	m := newModel()
	if m.IdleAmps() != 35 || m.PeakAmps() != 105 {
		t.Errorf("idle/peak = %g/%g, want 35/105", m.IdleAmps(), m.PeakAmps())
	}
	if m.MidAmps() != 70 {
		t.Errorf("mid = %g, want 70", m.MidAmps())
	}
	pf := m.PhantomFireAmps()
	if pf <= 0 || pf >= m.PeakAmps()-m.IdleAmps() {
		t.Errorf("phantom-fire amps %g out of range (0, %g)", pf, m.PeakAmps()-m.IdleAmps())
	}
}

func TestClassAmpsOrdering(t *testing.T) {
	m := newModel()
	amps := m.ClassAmps()
	for cl := cpu.Class(0); cl < cpu.NumClasses; cl++ {
		if amps[cl] <= 0 {
			t.Errorf("class %v estimate %g, want positive", cl, amps[cl])
		}
	}
	if amps[cpu.IntMul] <= amps[cpu.IntALU] {
		t.Error("multiply should cost more than ALU op")
	}
	if amps[cpu.Store] <= amps[cpu.Load] {
		t.Error("store (ALU+cache) should cost more than load (cache)")
	}
}

func TestMoreActivityMoreCurrent(t *testing.T) {
	levels := []int{0, 2, 4, 8}
	prev := -1.0
	for _, n := range levels {
		m := newModel()
		var act cpu.Activity
		act.Issued[cpu.IntALU] = n
		act.IssuedTotal = n
		act.Fetched = n
		act.Dispatched = n
		act.Committed = n
		var amps float64
		for i := 0; i < 20; i++ {
			amps = m.CurrentAmps(m.Step(&act, 0))
		}
		if amps <= prev {
			t.Errorf("current %g A at activity %d not above %g", amps, n, prev)
		}
		prev = amps
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Vdd = 0 },
		func(c *Config) { c.ClockHz = -1 },
		func(c *Config) { c.IdleWatts = 0 },
		func(c *Config) { c.PeakWatts = c.IdleWatts },
		func(c *Config) { c.GatedResidual = 1 },
		func(c *Config) { c.GatedResidual = -0.1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config did not panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.Vdd = 0
	New(cfg, cpu.DefaultConfig())
}

func TestUnitString(t *testing.T) {
	seen := map[string]bool{}
	for u := Unit(0); u < NumUnits; u++ {
		s := u.String()
		if s == "" || seen[s] {
			t.Errorf("unit %d name %q invalid or duplicate", u, s)
		}
		seen[s] = true
	}
	if Unit(99).String() == "" {
		t.Error("out-of-range unit should still render")
	}
}

func TestBudgetFractionsSumToOne(t *testing.T) {
	sum := 0.0
	for u := Unit(0); u < NumUnits; u++ {
		sum += budgetFraction[u]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("budget fractions sum to %g, want 1", sum)
	}
}

func TestSpreadWindowsFitRing(t *testing.T) {
	for u := Unit(0); u < NumUnits; u++ {
		if spreadCycles[u] < 1 || spreadCycles[u] > spreadRing {
			t.Errorf("unit %v spread %d outside [1,%d]", u, spreadCycles[u], spreadRing)
		}
	}
}

func TestBreakdownAccountsForEverything(t *testing.T) {
	m := newModel()
	act := fullActivity(cpu.DefaultConfig())
	for i := 0; i < 50; i++ {
		m.Step(&act, 0)
	}
	for i := 0; i < spreadRing; i++ {
		m.Step(&cpu.Activity{}, 0) // drain the spreading ring
	}
	floorJ, unitJ := m.Breakdown()
	sum := floorJ
	for u := Unit(0); u < NumUnits; u++ {
		if unitJ[u] < 0 {
			t.Errorf("unit %v negative energy", u)
		}
		sum += unitJ[u]
	}
	if math.Abs(sum-m.TotalJoules())/m.TotalJoules() > 1e-9 {
		t.Errorf("breakdown sum %g != total %g", sum, m.TotalJoules())
	}
	// The floor dominates an idle-heavy run; dynamic shares follow the
	// budget fractions under full activity.
	if unitJ[UnitWindow] <= unitJ[UnitIntMul] {
		t.Error("window (15%) should out-consume intmul (4%) at full activity")
	}
}

// refEvents is a frozen copy of the per-unit event mapping Step used
// before the deposit tables: float counts, clamped to each unit's
// capacity. It keeps the reference paths below independent of the code
// they check.
func refEvents(m *Model, act *cpu.Activity, ev *[NumUnits]float64) {
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
	_, maxEvents, _ := unitEnergies(m.cfg, m.cc)
	for u := Unit(0); u < NumUnits; u++ {
		if ev[u] > maxEvents[u] {
			ev[u] = maxEvents[u]
		}
	}
}

// refStep replays the original Step algorithm — every deposit computed
// from the event count on the spot — against a model's calibration, so
// tests can pin the table-driven path bit-identically to the original
// arithmetic.
type refStep struct {
	m        *Model
	pending  [spreadRing]float64
	slot     int
	perUnit  [NumUnits]float64
	floorTot float64
	totalJ   float64
}

func (r *refStep) step(act *cpu.Activity, phantomAmps float64) float64 {
	var ev [NumUnits]float64
	refEvents(r.m, act, &ev)
	for u := Unit(0); u < NumUnits; u++ {
		if ev[u] == 0 {
			continue
		}
		total := ev[u] * r.m.unitEventJ[u]
		r.perUnit[u] += total
		n := spreadCycles[u]
		share := total / float64(n)
		for k := 0; k < n; k++ {
			r.pending[(r.slot+k)%spreadRing] += share
		}
	}
	r.floorTot += r.m.floorJ
	e := r.m.floorJ + r.pending[r.slot]
	r.pending[r.slot] = 0
	r.slot = (r.slot + 1) % spreadRing
	if phantomAmps > 0 {
		e += phantomAmps * r.m.cfg.Vdd / r.m.cfg.ClockHz
	}
	r.totalJ += e
	return e
}

// refDomainStep is a frozen copy of the per-domain accounting loop
// StepDomains ran before the deposit tables, replayed against a
// domain-enabled model's calibration.
type refDomainStep struct {
	m          *Model
	pendingDom [][]float64
	slot       int
	perUnit    [NumUnits]float64
	floorTot   float64
	totalJ     float64
}

func newRefDomainStep(m *Model) *refDomainStep {
	r := &refDomainStep{m: m, pendingDom: make([][]float64, m.nd)}
	for d := range r.pendingDom {
		r.pendingDom[d] = make([]float64, spreadRing)
	}
	return r
}

func (r *refDomainStep) step(act *cpu.Activity, domJ []float64) float64 {
	var ev [NumUnits]float64
	refEvents(r.m, act, &ev)
	for u := Unit(0); u < NumUnits; u++ {
		if ev[u] == 0 {
			continue
		}
		total := ev[u] * r.m.unitEventJ[u]
		r.perUnit[u] += total
		n := spreadCycles[u]
		share := total / float64(n)
		ring := r.pendingDom[r.m.assign[u]]
		for k := uint(0); k < uint(n); k++ {
			ring[(uint(r.slot)+k)&(spreadRing-1)] += share
		}
	}
	r.floorTot += r.m.floorJ
	e := 0.0
	for d := 0; d < r.m.nd; d++ {
		ed := r.m.floorDomJ[d] + r.pendingDom[d][r.slot]
		r.pendingDom[d][r.slot] = 0
		domJ[d] = ed
		e += ed
	}
	r.slot = (r.slot + 1) & (spreadRing - 1)
	r.totalJ += e
	return e
}

// activityPool returns n activity vectors for the bit-identity tests:
// the all-idle and peak vectors, two that leave the tables' range — one
// over capacity (Fetched = 99, which clamps) and one negative — and
// random in-capacity vectors. Streams drawn from a small pool revisit
// vectors many times, as throttled and stalled simulation cycles do.
func activityPool(n int, rnd func(int) int) []cpu.Activity {
	pool := make([]cpu.Activity, 0, n)
	pool = append(pool, cpu.Activity{})                    // all-idle
	pool = append(pool, fullActivity(cpu.DefaultConfig())) // peak
	wide := fullActivity(cpu.DefaultConfig())
	wide.Fetched = 99 // over capacity: clamps to FetchWidth
	pool = append(pool, wide)
	negative := fullActivity(cpu.DefaultConfig())
	negative.L2 = -1 // cpu.Core never reports one; must still match
	pool = append(pool, negative)
	for len(pool) < cap(pool) {
		var a cpu.Activity
		a.Fetched = rnd(9)
		a.Dispatched = rnd(9)
		a.Committed = rnd(9)
		a.Issued[cpu.IntALU] = rnd(7)
		a.Issued[cpu.IntMul] = rnd(3)
		a.Issued[cpu.FPALU] = rnd(5)
		a.Issued[cpu.FPMul] = rnd(3)
		a.Issued[cpu.Branch] = rnd(2)
		a.Issued[cpu.Store] = rnd(3)
		a.IssuedTotal = a.Issued[cpu.IntALU] + a.Issued[cpu.IntMul] +
			a.Issued[cpu.FPALU] + a.Issued[cpu.FPMul] + a.Issued[cpu.Branch] + a.Issued[cpu.Store]
		a.L1D = rnd(3)
		a.L2 = rnd(2)
		a.Mem = rnd(2)
		pool = append(pool, a)
	}
	return pool
}

// xorshift returns a deterministic generator of ints in [0, n).
func xorshift(seed uint64) func(n int) int {
	return func(n int) int {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return int(seed % uint64(n))
	}
}

// TestDepositTablesBitIdentical drives the table-driven Step with a
// repeating but varied activity stream, including vectors outside the
// tables' range, and asserts every cycle's energy is bit-identical to
// the original deposit algorithm.
func TestDepositTablesBitIdentical(t *testing.T) {
	m := newModel()
	ref := &refStep{m: newModel()}
	rnd := xorshift(1)
	pool := activityPool(40, rnd)
	for i := 0; i < 20000; i++ {
		act := pool[rnd(len(pool))]
		phantom := 0.0
		if rnd(4) == 0 {
			phantom = float64(rnd(30))
		}
		got := m.Step(&act, phantom)
		want := ref.step(&act, phantom)
		if got != want {
			t.Fatalf("cycle %d: Step = %v, reference = %v", i, got, want)
		}
	}
	if m.TotalJoules() != ref.totalJ {
		t.Fatalf("TotalJoules diverged: %v vs %v", m.TotalJoules(), ref.totalJ)
	}
	gotFloor, gotUnits := m.Breakdown()
	if gotFloor != ref.floorTot || gotUnits != ref.perUnit {
		t.Fatalf("Breakdown diverged")
	}
}

// TestStepDomainsTablesBitIdentical pins StepDomains on a two-domain
// assignment, cycle by cycle and domain by domain, to the frozen
// per-domain loop it ran before the deposit tables.
func TestStepDomainsTablesBitIdentical(t *testing.T) {
	assign := twoDomainAssign(t)
	m := newModel()
	m.EnableDomains(2, assign)
	calib := newModel()
	calib.EnableDomains(2, assign)
	ref := newRefDomainStep(calib)
	rnd := xorshift(7)
	pool := activityPool(40, rnd)
	got, want := make([]float64, 2), make([]float64, 2)
	for i := 0; i < 20000; i++ {
		act := pool[rnd(len(pool))]
		eg := m.StepDomains(&act, got)
		ew := ref.step(&act, want)
		if eg != ew || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("cycle %d: StepDomains = %v %v, reference = %v %v", i, eg, got, ew, want)
		}
	}
	if m.TotalJoules() != ref.totalJ {
		t.Fatalf("TotalJoules diverged: %v vs %v", m.TotalJoules(), ref.totalJ)
	}
	gotFloor, gotUnits := m.Breakdown()
	if gotFloor != ref.floorTot || gotUnits != ref.perUnit {
		t.Fatalf("Breakdown diverged")
	}
}

// TestWideCoreCountsPastTable: a core wider than the deposit tables
// (a validated cpu.Config bounds widths only from below) keeps small
// tables and evaluates the counts past them inline, bit-identically.
func TestWideCoreCountsPastTable(t *testing.T) {
	cc := cpu.DefaultConfig()
	cc.FetchWidth = 1 << 40
	m := New(DefaultConfig(), cc)
	if n := len(m.dep[UnitFrontend]); n != maxTabled+1 {
		t.Fatalf("frontend table has %d entries, want %d", n, maxTabled+1)
	}
	ref := &refStep{m: New(DefaultConfig(), cc)}
	for _, fetched := range []int{1, maxTabled, maxTabled + 1, 1 << 20, 1 << 40, 1 << 50} {
		act := cpu.Activity{Fetched: fetched}
		if got, want := m.Step(&act, 0), ref.step(&act, 0); got != want {
			t.Fatalf("Fetched = %d: Step = %v, reference = %v", fetched, got, want)
		}
	}
}
