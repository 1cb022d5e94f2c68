// Package sim couples the pipeline model, the power model, the
// power-supply circuit, and an (optional) inductive-noise control
// technique into the per-cycle simulation loop of the paper's
// methodology (Section 4):
//
//	throttle → core cycle → activity → power/current → supply voltage
//	→ sensors → technique → next throttle
//
// Phantom operations requested by a technique (the second-level response
// of resonance tuning, the phantom-fire of [10], damping's make-up
// current) are added to the cycle's current and energy but perform no
// work. Noise-margin violations are counted from the simulated supply
// deviation each cycle.
//
// The package defines the contract a technique meets (Technique) but
// implements none: the controllers of internal/tuning and
// internal/baselines implement it themselves.
package sim

import (
	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/power"
)

// Phantom describes the phantom-operation current a technique wants this
// cycle. At most one of the fields is non-zero.
type Phantom struct {
	// TargetAmps, when positive, tops the core current up to this level
	// (resonance tuning's second-level response holds a medium level).
	TargetAmps float64
	// FireAmps, when positive, injects exactly this much extra current
	// (the high-voltage phantom-fire response of [10]).
	FireAmps float64
}

// Observation is everything a technique may see after a simulated cycle.
type Observation struct {
	// Cycle is the index of the cycle just simulated.
	Cycle uint64
	// SensedAmps is the core current as reported by the on-die current
	// sensor (whole-amp precision).
	SensedAmps float64
	// TotalAmps is the true core current including phantom operations.
	TotalAmps float64
	// DeviationVolts is the true supply deviation (IR drop removed).
	DeviationVolts float64
	// IssuedEstAmps is the summed a-priori current estimate of the
	// instructions issued this cycle (what damping accounts).
	IssuedEstAmps float64
	// Activity is the pipeline activity of the cycle. It points into a
	// buffer the simulator reuses every cycle: read it during Observe,
	// copy it to retain it.
	Activity *cpu.Activity
	// PerDomain carries the per-domain view of the cycle on machines
	// whose PDN exposes more than one supply domain; it is nil on
	// single-domain machines, which keeps Observation comparable with ==
	// there (the fork and batch differential harnesses rely on that).
	// Like Activity it points into a buffer reused every cycle.
	PerDomain *DomainObservation
}

// DomainObservation is the per-supply-domain slice of an Observation:
// index d describes domain d of the machine's PDN. The slices are
// buffers the machine reuses every cycle — read during Observe, copy to
// retain.
type DomainObservation struct {
	// SensedAmps is each domain's current as its rail sensor reports it.
	SensedAmps []float64
	// Amps is each domain's true draw including its phantom share.
	Amps []float64
	// DeviationVolts is each domain's true supply deviation.
	DeviationVolts []float64
}

// Technique is an inductive-noise control scheme plugged into the loop.
// The controllers implement it directly: tuning.Controller, DualBand and
// PerDomain, and the voltctl, damping, convctl and wavelet Controllers.
type Technique interface {
	// Name identifies the technique in reports.
	Name() string
	// Next returns the pipeline throttle and phantom request for the
	// coming cycle.
	Next() (cpu.Throttle, Phantom)
	// Observe delivers the cycle's outcomes so the technique can decide
	// its next response. The pointer aims at a buffer reused every
	// cycle: read during Observe, copy to retain.
	Observe(obs *Observation)
}

// Config assembles a simulation.
type Config struct {
	CPU   cpu.Config
	Power power.Config
	// PDN selects the power-delivery network (the lumped RLC of Figure
	// 1(b), the two-stage network of Section 2.2, the multi-domain
	// stack); nil means the lumped Table 1 supply. A multi-domain kind
	// splits the power model's current per-domain (by unit assignment),
	// senses each rail separately, and checks each domain against its
	// own noise margin.
	PDN *circuit.NetworkConfig
	// SensorDelayCycles delays the current sensor readings fed to the
	// technique (resonance tuning tolerates several cycles).
	SensorDelayCycles int
	// SensorResolutionAmps sets the current-sensor quantisation step;
	// zero means the paper's whole-amp sensors. Negative means exact
	// readings.
	SensorResolutionAmps float64
	// SensorDomain selects which supply domain the scalar SensedAmps
	// observation reports on a multi-domain PDN: zero (the default) is
	// the aggregate core current, d ≥ 1 is domain d-1's rail sensor.
	// Ignored on single-domain machines.
	SensorDomain int
	// MaxCycles bounds the simulation in cycles; zero means 2^62, no
	// bound in practice: the run ends when its instruction stream drains.
	MaxCycles uint64
}

// DefaultConfig returns the paper's evaluation system: the Table 1 core,
// power envelope, and (through the nil PDN) supply.
func DefaultConfig() Config {
	return Config{CPU: cpu.DefaultConfig(), Power: power.DefaultConfig()}
}

// Result summarises one simulation run.
type Result struct {
	App       string
	Technique string

	Cycles       uint64
	Instructions uint64
	IPC          float64

	// EnergyJ is total energy including phantom operations.
	EnergyJ float64
	// PhantomJ is the part of EnergyJ spent on phantom operations.
	PhantomJ float64

	Violations        uint64
	ViolationFraction float64
	PeakDeviationV    float64

	MeanAmps float64
	MinAmps  float64
	MaxAmps  float64

	// Tech aggregates the technique controller's cycle accounting so a
	// Result is self-contained even when replayed from a cache instead
	// of re-simulated (the controller instance is gone by then).
	Tech TechStats
}

// TechStats is the per-run controller accounting carried in a Result.
// The base machine leaves it zero.
type TechStats struct {
	// ControllerCycles is the number of cycles the controller observed.
	ControllerCycles uint64
	// FirstLevelCycles and SecondLevelCycles count cycles spent in
	// resonance tuning's two response tiers.
	FirstLevelCycles  uint64
	SecondLevelCycles uint64
	// ResponseCycles counts cycles any response was active (for [10]'s
	// voltage control and damping's constrained cycles; for tuning it
	// is the two tiers combined).
	ResponseCycles uint64
}

// techStatser is implemented by techniques that report TechStats.
type techStatser interface {
	TechStats() TechStats
}

// EnergyDelay returns the energy-delay product in joule-seconds, using
// the supply clock to convert cycles to seconds.
func (r Result) EnergyDelay(clockHz float64) float64 {
	return r.EnergyJ * float64(r.Cycles) / clockHz
}

// TracePoint is one cycle of a captured waveform (for Figures 3 and 4).
type TracePoint struct {
	Cycle          uint64
	TotalAmps      float64
	DeviationVolts float64
	EventCount     int
	ResponseLevel  int
}

// Simulator runs one application under one technique: a Machine plus
// the technique control loop (tech.Next → Machine.Step → tech.Observe)
// and optional per-cycle tracing. Nothing in the engine runs it: every
// run goes through the batch kernel in internal/engine/batchkernel,
// which drives Machines directly. The scalar loop here is kept frozen
// as the differential oracle the kernel is pinned against.
type Simulator struct {
	m    *Machine
	tech Technique

	trace   func(TracePoint)
	countFn func() int // technique's event count for tracing
	levelFn func() int
}

// New builds a simulator for the given instruction source and technique.
// tech may be nil for the base (uncontrolled) processor.
func New(cfg Config, src cpu.Source, tech Technique) (*Simulator, error) {
	m, err := NewMachine(cfg, src)
	if err != nil {
		return nil, err
	}
	return &Simulator{m: m, tech: tech}, nil
}

// SetTrace installs a per-cycle trace callback, plus optional functions
// reporting the technique's resonant event count and response level.
func (s *Simulator) SetTrace(f func(TracePoint), count func() int, level func() int) {
	s.trace = f
	s.countFn = count
	s.levelFn = level
}

// StepCycle advances the whole system one clock cycle.
func (s *Simulator) StepCycle() {
	throttle := cpu.Unlimited
	var ph Phantom
	if s.tech != nil {
		throttle, ph = s.tech.Next()
	}
	obs := s.m.Step(throttle, ph)
	if s.tech != nil {
		s.tech.Observe(obs)
	}
	if s.trace != nil {
		tp := TracePoint{Cycle: obs.Cycle, TotalAmps: obs.TotalAmps, DeviationVolts: obs.DeviationVolts}
		if s.countFn != nil {
			tp.EventCount = s.countFn()
		}
		if s.levelFn != nil {
			tp.ResponseLevel = s.levelFn()
		}
		s.trace(tp)
	}
}

// Run simulates until the instruction stream drains (or MaxCycles) and
// returns the result. appName and techName label the result.
func (s *Simulator) Run(appName, techName string) Result {
	maxCycles := s.m.CycleLimit()
	for !s.m.Done() && s.m.Cycles() < maxCycles {
		s.StepCycle()
	}
	res := s.m.Result(appName, techName)
	res.Tech = TechStatsOf(s.tech)
	return res
}
