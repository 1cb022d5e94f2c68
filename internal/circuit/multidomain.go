package circuit

import (
	"fmt"
	"math"
	"math/cmplx"
)

// DomainParams describes one supply domain of a distributed PDN: the
// die-side decoupling capacitance and the C4 bump branch feeding it from
// the shared package rail, plus the domain's electrical operating point.
type DomainParams struct {
	// Name labels the domain in reports and assignments ("core", "fp").
	Name string
	// Vdd is the domain's nominal supply voltage in volts.
	Vdd float64
	// NoiseMargin is the allowed deviation as a fraction of Vdd.
	NoiseMargin float64
	// Cdie is the domain's on-die decoupling capacitance in farads.
	Cdie float64
	// Rbump and Lbump form the C4 bump branch from the package rail to
	// the domain's die node.
	Rbump, Lbump float64
	// PowerUnits lists the power-model unit names (power.Unit.String)
	// drawing from this domain. Units listed nowhere default to domain
	// zero; a unit may appear in at most one domain.
	PowerUnits []string
}

// Validate reports whether the domain is usable.
func (d DomainParams) Validate() error {
	switch {
	case d.Name == "":
		return fmt.Errorf("circuit: domain must be named: %+v", d)
	case d.Cdie <= 0 || d.Rbump <= 0 || d.Lbump <= 0:
		return fmt.Errorf("circuit: domain %q bump R/L and die C must be positive: %+v", d.Name, d)
	case d.Vdd <= 0:
		return fmt.Errorf("circuit: domain %q Vdd must be positive (got %g)", d.Name, d.Vdd)
	case d.NoiseMargin <= 0 || d.NoiseMargin >= 1:
		return fmt.Errorf("circuit: domain %q noise margin must be in (0,1) (got %g)", d.Name, d.NoiseMargin)
	}
	return nil
}

// ResonantFrequency returns the domain's die-level resonance, the bump
// inductance against the die capacitance.
func (d DomainParams) ResonantFrequency() float64 {
	return 1 / (2 * math.Pi * math.Sqrt(d.Lbump*d.Cdie))
}

// MultiDomainParams describes the distributed multi-domain PDN stack: N
// die nodes under C4 bumps feeding per-domain rails from a shared
// package stage, which in turn hangs off a board stage, with per-tier
// decoupling capacitance (the PowerScout-style die/package/board
// template). All domains share the package and board tiers, so current
// variations in different domains superpose at the package rail — the
// shared-resonance interference a single lumped RLC cannot represent.
type MultiDomainParams struct {
	// Domains are the per-domain die stages (at least one).
	Domains []DomainParams
	// Cpkg is the package decoupling capacitance; Rpkg and Lpkg form the
	// branch from the board rail to the package rail.
	Cpkg, Rpkg, Lpkg float64
	// Cboard is the board bulk capacitance; Rboard and Lboard form the
	// branch from the voltage-regulator source to the board rail.
	Cboard, Rboard, Lboard float64
	// ClockHz converts between seconds and processor cycles.
	ClockHz float64
}

// Table1TwoDomain splits the Table 1 die into two equal supply domains —
// "core" (front end, integer units, ROB, buses) and "fp" (floating-point
// units and the memory hierarchy) — each carrying half the on-die
// decoupling capacitance behind twice the bump impedance, so the two die
// stages in parallel reproduce the Table 1 electricals (same 100 MHz
// die-level resonance per domain). The shared package stage resonates
// near 20 MHz (die-cap loaded) and the board stage near 0.7 MHz, giving
// the die node a multi-peak impedance profile. Both shared tiers are
// stiff (characteristic impedance well under half a milliohm, so an
// isolated memory-stall current step rings them by far less than the
// noise margin) but the package tier keeps a quality factor near seven:
// only a current oscillation *sustained* at its resonance builds the
// deviation past the margin — the resonant-specific behaviour the
// detection mechanism exists for, now one electrical tier up.
func Table1TwoDomain() MultiDomainParams {
	t1 := Table1()
	return MultiDomainParams{
		Domains: []DomainParams{
			{
				Name: "core", Vdd: t1.Vdd, NoiseMargin: t1.NoiseMargin,
				Cdie: t1.C / 2, Rbump: 2 * t1.R, Lbump: 2 * t1.L,
				PowerUnits: []string{"frontend", "rename", "window", "regfile", "intalu", "intmul", "rob", "bus"},
			},
			{
				Name: "fp", Vdd: t1.Vdd, NoiseMargin: t1.NoiseMargin,
				Cdie: t1.C / 2, Rbump: 2 * t1.R, Lbump: 2 * t1.L,
				PowerUnits: []string{"fpalu", "fpmul", "l1d", "l2", "mem"},
			},
		},
		Cpkg: 20e-6, Rpkg: 0.05e-3, Lpkg: 2.9e-12,
		Cboard: 450e-6, Rboard: 0.15e-3, Lboard: 100e-12,
		ClockHz: t1.ClockHz,
	}
}

// ThreeSupplyExample returns a three-domain stack in the spirit of the
// three-voltage-supply SoC decap study: core, floating-point, and memory
// domains with staggered die-level resonances (100, 50, and 25 MHz)
// over a 10 MHz package stage, so a single die node sees four distinct
// local impedance maxima.
func ThreeSupplyExample() MultiDomainParams {
	t1 := Table1()
	return MultiDomainParams{
		Domains: []DomainParams{
			{
				Name: "core", Vdd: t1.Vdd, NoiseMargin: t1.NoiseMargin,
				Cdie: 1500e-9, Rbump: 375e-6, Lbump: 1.69e-12,
				PowerUnits: []string{"frontend", "rename", "window", "regfile", "intalu", "intmul", "rob", "bus"},
			},
			{
				Name: "fp", Vdd: t1.Vdd, NoiseMargin: t1.NoiseMargin,
				Cdie: 1500e-9, Rbump: 750e-6, Lbump: 6.76e-12,
				PowerUnits: []string{"fpalu", "fpmul"},
			},
			{
				Name: "mem", Vdd: t1.Vdd, NoiseMargin: t1.NoiseMargin,
				Cdie: 1500e-9, Rbump: 1.5e-3, Lbump: 27e-12,
				PowerUnits: []string{"l1d", "l2", "mem"},
			},
		},
		Cpkg: 4e-6, Rpkg: 2e-3, Lpkg: 63e-12,
		Cboard: 40e-6, Rboard: 0.5e-3, Lboard: 100e-12,
		ClockHz: t1.ClockHz,
	}
}

// Validate reports whether the parameters are usable.
func (p MultiDomainParams) Validate() error {
	if len(p.Domains) == 0 {
		return fmt.Errorf("circuit: multi-domain PDN needs at least one domain")
	}
	seen := map[string]bool{}
	for _, d := range p.Domains {
		if err := d.Validate(); err != nil {
			return err
		}
		if seen[d.Name] {
			return fmt.Errorf("circuit: duplicate domain name %q", d.Name)
		}
		seen[d.Name] = true
	}
	switch {
	case p.Cpkg <= 0 || p.Rpkg <= 0 || p.Lpkg <= 0:
		return fmt.Errorf("circuit: package R/L/C must be positive (R=%g L=%g C=%g)", p.Rpkg, p.Lpkg, p.Cpkg)
	case p.Cboard <= 0 || p.Rboard <= 0 || p.Lboard <= 0:
		return fmt.Errorf("circuit: board R/L/C must be positive (R=%g L=%g C=%g)", p.Rboard, p.Lboard, p.Cboard)
	case p.ClockHz <= 0:
		return fmt.Errorf("circuit: clock frequency must be positive (got %g)", p.ClockHz)
	}
	return nil
}

// dieCapacitance sums the domains' die capacitances, the load the
// shared tiers see below the die-level resonances (where the bump
// inductances are transparent).
func (p MultiDomainParams) dieCapacitance() float64 {
	c := 0.0
	for _, d := range p.Domains {
		c += d.Cdie
	}
	return c
}

// PackageResonantFrequency returns the shared package-tier resonance:
// the package branch inductance against the package capacitance plus
// the die capacitance it carries (below the die resonances the bump
// branches are transparent, so the die caps load the package rail).
// Every domain's current variation excites this tier, which is where
// cross-domain interference lives.
func (p MultiDomainParams) PackageResonantFrequency() float64 {
	return 1 / (2 * math.Pi * math.Sqrt(p.Lpkg*(p.Cpkg+p.dieCapacitance())))
}

// BoardResonantFrequency returns the board-tier resonance, with the
// package and die capacitance loading the board rail.
func (p MultiDomainParams) BoardResonantFrequency() float64 {
	return 1 / (2 * math.Pi * math.Sqrt(p.Lboard*(p.Cboard+p.Cpkg+p.dieCapacitance())))
}

// Impedance returns |Z(f)| seen by domain d's current source at its die
// node: the die capacitance in parallel with the bump branch, which
// leads onto the package rail where the package capacitance, the board
// stage, and every other domain's die stage hang in parallel.
func (p MultiDomainParams) Impedance(d int, f float64) float64 {
	if f == 0 {
		return p.Rboard + p.Rpkg + p.Domains[d].Rbump
	}
	w := 2 * math.Pi * f
	par := func(a, b complex128) complex128 { return a * b / (a + b) }
	zc := func(c float64) complex128 { return complex(0, -1/(w*c)) }
	// Board stage seen from the package branch: board cap in parallel
	// with the branch back to the (shorted) source.
	zBoard := par(zc(p.Cboard), complex(p.Rboard, w*p.Lboard))
	// Package rail: package cap ∥ (package branch + board) ∥ every other
	// domain's (bump + die cap) series branch.
	zPkg := par(zc(p.Cpkg), complex(p.Rpkg, w*p.Lpkg)+zBoard)
	for e := range p.Domains {
		if e == d {
			continue
		}
		de := p.Domains[e]
		zPkg = par(zPkg, complex(de.Rbump, w*de.Lbump)+zc(de.Cdie))
	}
	dd := p.Domains[d]
	return cmplx.Abs(par(zc(dd.Cdie), complex(dd.Rbump, w*dd.Lbump)+zPkg))
}

// ImpedanceSweep samples domain d's |Z(f)| at n log-spaced frequencies
// across [loHz, hiHz], suiting the decades the tiers span.
func (p MultiDomainParams) ImpedanceSweep(d int, loHz, hiHz float64, n int) []ImpedancePoint {
	if n < 2 {
		n = 2
	}
	pts := make([]ImpedancePoint, n)
	ratio := math.Pow(hiHz/loHz, 1/float64(n-1))
	f := loHz
	for i := range pts {
		pts[i] = ImpedancePoint{FrequencyHz: f, Ohms: p.Impedance(d, f)}
		f *= ratio
	}
	return pts
}

// MultiDomainState is the electrical state of the stack: the board and
// package tiers plus one (bump current, die voltage) pair per domain.
// Voltages are relative to the eliminated source, i.e. they include the
// IR drops.
type MultiDomainState struct {
	Ib float64 // board branch (source → board rail) current
	Vb float64 // board rail voltage
	Ip float64 // package branch (board → package rail) current
	Vp float64 // package rail voltage

	Id []float64 // per-domain bump branch currents
	Vd []float64 // per-domain die node voltages
}

// MultiDomainSimulator advances the distributed stack one processor
// cycle at a time with the Heun formula, mirroring Simulator and
// TwoStageSimulator. It implements Network.
type MultiDomainSimulator struct {
	p     MultiDomainParams
	dt    float64
	state MultiDomainState
	cycle uint64

	// Heun scratch, kept on the simulator so Step performs no per-cycle
	// allocation: the predictor state and the derivatives evaluated at
	// the current and predicted states.
	pred, k1, k2 MultiDomainState
}

// NewMultiDomainSimulator returns a simulator initialised to the DC
// steady state for per-domain draws i0 (len(i0) must equal the domain
// count).
func NewMultiDomainSimulator(p MultiDomainParams, i0 []float64) *MultiDomainSimulator {
	if len(i0) != len(p.Domains) {
		panic(fmt.Sprintf("circuit.NewMultiDomainSimulator: %d initial currents for %d domains", len(i0), len(p.Domains)))
	}
	s := &MultiDomainSimulator{p: p, dt: 1 / p.ClockHz}
	nd := len(p.Domains)
	s.state.Id = make([]float64, nd)
	s.state.Vd = make([]float64, nd)
	s.newScratch()
	s.Reset(i0)
	return s
}

// newScratch gives the simulator its own Heun scratch, one allocation
// for all three states.
func (s *MultiDomainSimulator) newScratch() {
	nd := len(s.p.Domains)
	buf := make([]float64, 6*nd)
	for _, st := range []*MultiDomainState{&s.pred, &s.k1, &s.k2} {
		st.Id, st.Vd, buf = buf[:nd], buf[nd:2*nd], buf[2*nd:]
	}
}

// Reset restores the DC steady state for per-domain draws i0: every
// branch carries its share of the total and every node sits at its IR
// drop below the source.
func (s *MultiDomainSimulator) Reset(i0 []float64) {
	total := 0.0
	for _, v := range i0 {
		total += v
	}
	s.state.Ib = total
	s.state.Ip = total
	s.state.Vb = -s.p.Rboard * total
	s.state.Vp = s.state.Vb - s.p.Rpkg*total
	for d := range s.p.Domains {
		s.state.Id[d] = i0[d]
		s.state.Vd[d] = s.state.Vp - s.p.Domains[d].Rbump*i0[d]
	}
	s.cycle = 0
}

// Kind implements Network.
func (s *MultiDomainSimulator) Kind() string { return NetworkMultiDomain }

// Domains implements Network.
func (s *MultiDomainSimulator) Domains() int { return len(s.p.Domains) }

// DomainInfo implements Network.
func (s *MultiDomainSimulator) DomainInfo(d int) DomainInfo {
	dp := s.p.Domains[d]
	return DomainInfo{
		Name:                dp.Name,
		NominalVolts:        dp.Vdd,
		NoiseMarginVolts:    dp.NoiseMargin * dp.Vdd,
		ResonantFrequencyHz: dp.ResonantFrequency(),
	}
}

// Params returns the network parameters.
func (s *MultiDomainSimulator) Params() MultiDomainParams { return s.p }

// State returns the raw electrical state (shared slices; do not mutate).
func (s *MultiDomainSimulator) State() MultiDomainState { return s.state }

// Cycle returns the number of steps taken.
func (s *MultiDomainSimulator) Cycle() uint64 { return s.cycle }

// Fork implements Network: an independent deep copy continuing from the
// same electrical state.
func (s *MultiDomainSimulator) Fork() Network {
	f := *s
	f.state.Id = append([]float64(nil), s.state.Id...)
	f.state.Vd = append([]float64(nil), s.state.Vd...)
	f.newScratch()
	return &f
}

// derivInto evaluates the stack's ODE right-hand side at st, writing
// every derivative into the matching field of k.
func (s *MultiDomainSimulator) derivInto(st *MultiDomainState, draws []float64, k *MultiDomainState) {
	sumId := 0.0
	for d := range k.Id {
		dd := &s.p.Domains[d]
		k.Id[d] = (st.Vp - st.Vd[d] - dd.Rbump*st.Id[d]) / dd.Lbump
		k.Vd[d] = (st.Id[d] - draws[d]) / dd.Cdie
		sumId += st.Id[d]
	}
	k.Ib = -(st.Vb + s.p.Rboard*st.Ib) / s.p.Lboard
	k.Vb = (st.Ib - st.Ip) / s.p.Cboard
	k.Ip = (st.Vb - st.Vp - s.p.Rpkg*st.Ip) / s.p.Lpkg
	k.Vp = (st.Ip - sumId) / s.p.Cpkg
}

// Step implements Network: advance one processor cycle during which
// domain d draws draws[d] amps, writing each domain's deviation (total
// IR drop subtracted) into dev[d].
func (s *MultiDomainSimulator) Step(draws, dev []float64) {
	nd := len(s.p.Domains)
	st, pr, k1, k2 := &s.state, &s.pred, &s.k1, &s.k2
	s.derivInto(st, draws, k1)

	pr.Ib = st.Ib + s.dt*k1.Ib
	pr.Vb = st.Vb + s.dt*k1.Vb
	pr.Ip = st.Ip + s.dt*k1.Ip
	pr.Vp = st.Vp + s.dt*k1.Vp
	for d := 0; d < nd; d++ {
		pr.Id[d] = st.Id[d] + s.dt*k1.Id[d]
		pr.Vd[d] = st.Vd[d] + s.dt*k1.Vd[d]
	}

	s.derivInto(pr, draws, k2)

	st.Ib += s.dt * 0.5 * (k1.Ib + k2.Ib)
	st.Vb += s.dt * 0.5 * (k1.Vb + k2.Vb)
	st.Ip += s.dt * 0.5 * (k1.Ip + k2.Ip)
	st.Vp += s.dt * 0.5 * (k1.Vp + k2.Vp)
	total := 0.0
	for d := 0; d < nd; d++ {
		st.Id[d] += s.dt * 0.5 * (k1.Id[d] + k2.Id[d])
		st.Vd[d] += s.dt * 0.5 * (k1.Vd[d] + k2.Vd[d])
		total += draws[d]
	}
	s.cycle++

	// IR-free deviation: the shared tiers drop (Rboard+Rpkg)·ΣI and each
	// bump branch drops Rbump·I_d, so a constant draw sits at zero.
	shared := (s.p.Rboard + s.p.Rpkg) * total
	for d := 0; d < nd; d++ {
		dev[d] = st.Vd[d] + shared + s.p.Domains[d].Rbump*draws[d]
	}
}
