package sim

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/power"
	"repro/internal/sensor"
)

// Machine is the technique-independent half of a simulation: the pipeline
// model, the power model, the supply network, and the current sensors,
// advanced together one cycle at a time. Step applies a throttle and a
// phantom request (whoever decides them — a batch kernel's leader lane,
// or a Technique via the reference Simulator) and returns the cycle's
// Observation.
//
// Every network is a circuit.Network with one or more supply domains; a
// lumped or two-stage supply is the one-domain case of the same loop.
// The per-cycle arithmetic on one domain is performed in the same order
// as the original scalar StepCycle, so results are bit-identical to it
// (pinned by the frozen reference loops in steprefs_test.go and by the
// kernel's differential harness).
type Machine struct {
	cfg  Config
	core *cpu.Core
	pwr  *power.Model
	net  circuit.Network
	sens *sensor.Current

	classAmps [cpu.NumClasses]float64
	// resolution caches the sensor quantisation step for the undelayed
	// fast path (sens is only instantiated when a reading delay makes
	// real history necessary).
	resolution float64

	// Per-domain state, one entry per supply domain: draws and devs are
	// the buffers handed to net.Step, dom each domain's margin and
	// running statistics.
	nd    int
	draws []float64
	devs  []float64
	dom   []domainState

	// Multi-domain state, populated only when the PDN exposes more than
	// one domain (nd > 1): per-domain cycle energies from StepDomains,
	// phantom split weights, the rail sensors, and the reused buffers
	// behind obs.PerDomain.
	sensorDomain int
	domJ         []float64
	domShare     []float64
	bank         *sensor.Bank
	domObs       DomainObservation

	act cpu.Activity // per-cycle activity buffer, reused to avoid copies
	// obs is the per-cycle observation buffer, reused likewise. Its
	// Activity and PerDomain pointers aim at act and domObs from
	// construction on; Step writes only the scalar fields.
	obs Observation

	phantomJ  float64
	violation uint64
	peakDev   float64
	sumAmps   float64
	minAmps   float64
	maxAmps   float64
	cycles    uint64
}

// domainState is one supply domain's noise margin (cached so the
// per-cycle violation check is a compare, not an interface call) and
// running statistics.
type domainState struct {
	margin     float64
	violations uint64
	peak       float64
	sumAmps    float64
}

// NewMachine builds the simulated system for the given configuration and
// instruction source.
func NewMachine(cfg Config, src cpu.Source) (*Machine, error) {
	if err := cfg.CPU.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := cfg.Power.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	pwr := power.New(cfg.Power, cfg.CPU)
	core := cpu.New(cfg.CPU, src)
	core.SetClassCurrentEstimates(pwr.ClassAmps())
	resolution := 1.0 // the paper's whole-amp sensors
	switch {
	case cfg.SensorResolutionAmps > 0:
		resolution = cfg.SensorResolutionAmps
	case cfg.SensorResolutionAmps < 0:
		resolution = 0 // exact
	}
	var sens *sensor.Current
	if cfg.SensorDelayCycles > 0 {
		sens = sensor.NewCurrentDelayed(cfg.SensorDelayCycles)
		sens.ResolutionAmps = resolution
	}

	m := &Machine{
		cfg:        cfg,
		core:       core,
		pwr:        pwr,
		sens:       sens,
		classAmps:  pwr.ClassAmps(),
		resolution: resolution,
		minAmps:    math.Inf(1),
		maxAmps:    math.Inf(-1),
	}
	if err := m.buildNetwork(); err != nil {
		return nil, err
	}
	m.obs.Activity = &m.act
	if m.nd > 1 {
		m.obs.PerDomain = &m.domObs
	}
	return m, nil
}

// buildNetwork constructs the machine's PDN (a nil Config.PDN resolves
// to the lumped Table 1 supply). A multi-domain network additionally
// splits the power model per-domain (from the domains' PowerUnits lists)
// and instantiates per-rail sensors.
func (m *Machine) buildNetwork() error {
	cfg := m.cfg
	var ncfg circuit.NetworkConfig
	if cfg.PDN != nil {
		ncfg = *cfg.PDN
	}
	ncfg, err := ncfg.Normalized()
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	i0 := []float64{m.pwr.IdleAmps()}
	if md := ncfg.MultiDomain; md != nil && len(md.Domains) > 1 {
		lists := make([][]string, len(md.Domains))
		for d, dp := range md.Domains {
			lists[d] = dp.PowerUnits
		}
		assign, err := power.AssignmentFromNames(lists)
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		m.pwr.EnableDomains(len(lists), assign)
		i0 = make([]float64, len(lists))
		for d := range i0 {
			i0[d] = m.pwr.DomainIdleAmps(d)
		}
	}
	// BuildNetwork validates the parameters before building.
	net, err := circuit.BuildNetwork(ncfg, i0)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	nd := net.Domains()
	if cfg.SensorDomain < 0 || cfg.SensorDomain > nd {
		return fmt.Errorf("sim: sensor domain %d out of range for a %d-domain PDN", cfg.SensorDomain, nd)
	}
	m.net = net
	m.nd = nd
	m.draws = make([]float64, nd)
	m.devs = make([]float64, nd)
	m.dom = make([]domainState, nd)
	for d := range m.dom {
		m.dom[d].margin = net.DomainInfo(d).NoiseMarginVolts
	}
	if nd > 1 {
		m.sensorDomain = cfg.SensorDomain
		m.domJ = make([]float64, nd)
		m.domShare = make([]float64, nd)
		for d := range m.domShare {
			m.domShare[d] = m.pwr.DomainShare(d)
		}
		m.bank = sensor.NewBank(nd, m.resolution, cfg.SensorDelayCycles)
		m.domObs = DomainObservation{
			SensedAmps:     make([]float64, nd),
			Amps:           make([]float64, nd),
			DeviationVolts: make([]float64, nd),
		}
	}
	return nil
}

// Fork returns a deep copy of the machine with a hard bit-identity
// contract: fork at any cycle, then step the original and the clone to
// completion with identical (throttle, phantom) sequences, and both
// produce identical per-cycle Observations (including the Activity
// buffer), trace-relevant values, and final Results. Every piece of
// mutable state is duplicated — core scheduler (ROB, wakeup lists,
// timing wheel, ready bitmap, fetch queue), instruction-source cursor
// (including generator RNG state), power model (spreading rings and
// accumulators), supply network, sensor history, and the machine's own
// statistics counters — so the two machines share nothing written after
// the fork. What is fixed at construction stays shared: the phantom
// split weights and the power model's per-unit deposit tables, so a
// fork costs the machine's live state, about ten kilobytes on the
// Table 1 core. The batch kernel uses this to resume diverged lanes
// from their observed prefix instead of re-running them from cycle zero;
// FuzzMachineFork and the kernel differential harness pin the contract.
//
// Fork fails when the instruction source cannot be forked (a source not
// implementing cpu.ForkableSource).
func (m *Machine) Fork() (*Machine, error) {
	core, err := m.core.Fork()
	if err != nil {
		return nil, fmt.Errorf("sim: fork: %w", err)
	}
	f := *m
	f.core = core
	f.pwr = m.pwr.Fork()
	f.net = m.net.Fork()
	if m.sens != nil {
		f.sens = m.sens.Fork()
	}
	f.draws = append([]float64(nil), m.draws...)
	f.devs = append([]float64(nil), m.devs...)
	f.dom = append([]domainState(nil), m.dom...)
	if m.nd > 1 {
		f.domJ = append([]float64(nil), m.domJ...)
		f.bank = m.bank.Fork()
		f.domObs = DomainObservation{
			SensedAmps:     append([]float64(nil), m.domObs.SensedAmps...),
			Amps:           append([]float64(nil), m.domObs.Amps...),
			DeviationVolts: append([]float64(nil), m.domObs.DeviationVolts...),
		}
	}
	// The observation buffer's Activity and PerDomain pointers must aim
	// at the clone's own buffers, not the original's.
	f.obs.Activity = &f.act
	if m.nd > 1 {
		f.obs.PerDomain = &f.domObs
	}
	return &f, nil
}

// Power exposes the power model (for its energy breakdown).
func (m *Machine) Power() *power.Model { return m.pwr }

// Done reports whether the instruction stream is exhausted and the
// pipeline has drained.
func (m *Machine) Done() bool { return m.core.Done() }

// Cycles returns the number of cycles stepped so far.
func (m *Machine) Cycles() uint64 { return m.cycles }

// CycleLimit returns the configured MaxCycles bound, or 2^62 when the
// configuration leaves it zero: no bound in practice, so such a run ends
// when its instruction stream drains.
func (m *Machine) CycleLimit() uint64 {
	if m.cfg.MaxCycles == 0 {
		return 1 << 62
	}
	return m.cfg.MaxCycles
}

// Step advances the whole system one clock cycle under the given throttle
// and phantom request and returns the cycle's Observation. The returned
// pointer aims at a buffer Step reuses every cycle: read it before the
// next Step, copy it to retain it.
//
// Each supply domain draws its share of the cycle's current (one domain
// draws all of it) and is checked against its own noise margin. The
// scalar Observation fields keep their aggregate meanings — TotalAmps is
// the summed draw, DeviationVolts the worst domain's deviation,
// SensedAmps the aggregate (or the SensorDomain rail's) reading — so
// domain-oblivious techniques work on any network; domain-aware ones
// read Observation.PerDomain, which multi-domain machines fill.
func (m *Machine) Step(throttle cpu.Throttle, ph Phantom) *Observation {
	act := &m.act
	m.core.StepInto(throttle, act)
	var coreJ float64
	if m.nd == 1 {
		coreJ = m.pwr.Step(act, 0)
	} else {
		coreJ = m.pwr.StepDomains(act, m.domJ)
	}
	coreAmps := m.pwr.CurrentAmps(coreJ)

	phantomAmps := 0.0
	switch {
	case ph.TargetAmps > 0 && coreAmps < ph.TargetAmps:
		phantomAmps = ph.TargetAmps - coreAmps
	case ph.FireAmps > 0:
		phantomAmps = ph.FireAmps
	}
	if phantomAmps > 0 {
		m.phantomJ += phantomAmps * m.cfg.Power.Vdd / m.cfg.Power.ClockHz
	}
	totalAmps := coreAmps + phantomAmps

	// Phantom current splits across domains by power-budget share.
	if m.nd == 1 {
		m.draws[0] = totalAmps
	} else {
		for d := range m.draws {
			m.draws[d] = m.pwr.CurrentAmps(m.domJ[d]) + phantomAmps*m.domShare[d]
		}
	}
	m.net.Step(m.draws, m.devs)

	// The worst domain's deviation carries the scalar field; violations
	// count cycles on which any domain leaves its margin, so the
	// aggregate Result means the same on every network.
	worst, worstAbs := 0.0, -1.0
	violated := false
	for d, dev := range m.devs {
		ds := &m.dom[d]
		a := math.Abs(dev)
		if a > ds.peak {
			ds.peak = a
		}
		if a > ds.margin {
			ds.violations++
			violated = true
		}
		if a > worstAbs {
			worstAbs, worst = a, dev
		}
		ds.sumAmps += m.draws[d]
	}
	if worstAbs > m.peakDev {
		m.peakDev = worstAbs
	}
	if violated {
		m.violation++
	}

	est := 0.0
	for cl := cpu.Class(0); cl < cpu.NumClasses; cl++ {
		if n := act.Issued[cl]; n > 0 {
			est += float64(n) * m.classAmps[cl]
		}
	}

	if m.bank != nil {
		for d, amps := range m.draws {
			m.domObs.SensedAmps[d] = m.bank.Read(d, amps)
			m.domObs.Amps[d] = amps
			m.domObs.DeviationVolts[d] = m.devs[d]
		}
	}
	var sensed float64
	switch {
	case m.sensorDomain > 0:
		sensed = m.domObs.SensedAmps[m.sensorDomain-1]
	case m.sens != nil:
		sensed = m.sens.Read(totalAmps)
	case m.resolution > 0:
		// Same quantisation arithmetic as sensor.Current.Read, inlined
		// for the undelayed sensor the paper's evaluation uses.
		sensed = math.Round(totalAmps/m.resolution) * m.resolution
	default:
		sensed = totalAmps
	}

	m.sumAmps += totalAmps
	if totalAmps < m.minAmps {
		m.minAmps = totalAmps
	}
	if totalAmps > m.maxAmps {
		m.maxAmps = totalAmps
	}
	obs := &m.obs
	obs.Cycle = m.cycles
	obs.SensedAmps = sensed
	obs.TotalAmps = totalAmps
	obs.DeviationVolts = worst
	obs.IssuedEstAmps = est
	m.cycles++
	return obs
}

// Network exposes the machine's power-delivery network.
func (m *Machine) Network() circuit.Network { return m.net }

// Domains returns the PDN's supply-domain count (one on lumped and
// two-stage machines).
func (m *Machine) Domains() int { return m.nd }

// DomainStat summarises one supply domain's run.
type DomainStat struct {
	// Name labels the domain (circuit.DomainInfo.Name).
	Name string
	// Violations counts cycles this domain left its noise margin.
	Violations uint64
	// PeakDeviationV is the domain's worst absolute deviation.
	PeakDeviationV float64
	// MeanAmps is the domain's average draw.
	MeanAmps float64
}

// DomainStats reports each supply domain's violation and current
// statistics; it returns nil on single-domain machines (the aggregate
// Result already tells the whole story there).
func (m *Machine) DomainStats() []DomainStat {
	if m.nd <= 1 {
		return nil
	}
	out := make([]DomainStat, m.nd)
	for d, ds := range m.dom {
		out[d] = DomainStat{
			Name:           m.net.DomainInfo(d).Name,
			Violations:     ds.violations,
			PeakDeviationV: ds.peak,
		}
		if m.cycles > 0 {
			out[d].MeanAmps = ds.sumAmps / float64(m.cycles)
		}
	}
	return out
}

// Result summarises the run so far under the given labels. The Tech
// accounting is left zero; callers that ran a technique fill it in (see
// TechStatsOf).
func (m *Machine) Result(appName, techName string) Result {
	res := Result{
		App:            appName,
		Technique:      techName,
		Cycles:         m.cycles,
		Instructions:   m.core.Committed(),
		IPC:            m.core.IPC(),
		EnergyJ:        m.pwr.TotalJoules() + m.phantomJ,
		PhantomJ:       m.phantomJ,
		Violations:     m.violation,
		PeakDeviationV: m.peakDev,
	}
	if m.cycles > 0 {
		res.ViolationFraction = float64(m.violation) / float64(m.cycles)
		res.MeanAmps = m.sumAmps / float64(m.cycles)
		res.MinAmps = m.minAmps
		res.MaxAmps = m.maxAmps
	}
	return res
}

// TechStatsOf returns the controller accounting a technique reports, or a
// zero TechStats for techniques without any (and for the nil base
// technique).
func TechStatsOf(t Technique) TechStats {
	if ts, ok := t.(techStatser); ok {
		return ts.TechStats()
	}
	return TechStats{}
}
