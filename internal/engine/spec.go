// Package engine is the shared run-execution subsystem: every driver in
// the repo (the public resonance.Simulate, cmd/sweep, cmd/rtsim,
// cmd/experiments, and the internal/experiments runners) describes a run
// as a Spec and hands it to an Engine, which executes it through a
// bounded worker pool with context cancellation and serves repeated
// specs from a content-addressed result cache.
//
// Because the whole simulated system is a pure function of its
// configuration (see internal/sim's determinism tests), two Specs with
// equal canonical encodings always produce bit-identical Results; the
// cache and the pool are therefore invisible to callers except in wall
// time.
package engine

import (
	"fmt"
	"math"

	"repro/internal/baselines/convctl"
	"repro/internal/baselines/damping"
	"repro/internal/baselines/voltctl"
	"repro/internal/baselines/wavelet"
	"repro/internal/circuit"
	"repro/internal/engine/batchkernel"
	"repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// DefaultInstructions is the run length used when a Spec leaves
// Instructions zero.
const DefaultInstructions = 1_000_000

// TechniqueKind selects an inductive-noise control scheme. The set of
// valid kinds is the technique registry (see Kinds and Register in
// registry.go); each kind below is registered in this package's init.
type TechniqueKind string

// Available techniques.
const (
	// TechniqueNone runs the uncontrolled base processor.
	TechniqueNone TechniqueKind = "base"
	// TechniqueTuning is resonance tuning, the paper's contribution.
	TechniqueTuning TechniqueKind = "tuning"
	// TechniqueVoltageControl is the voltage-threshold scheme of [10].
	TechniqueVoltageControl TechniqueKind = "voltctl"
	// TechniqueDamping is pipeline damping [14].
	TechniqueDamping TechniqueKind = "damping"
	// TechniqueConvolution is the convolution-based predictor of [8].
	TechniqueConvolution TechniqueKind = "convctl"
	// TechniqueWavelet is the Haar-wavelet detector in the spirit of [11].
	TechniqueWavelet TechniqueKind = "wavelet"
	// TechniqueDualBand is Section 2.2's dual-band resonance tuning:
	// the medium-band controller plus a decimated low-band controller.
	TechniqueDualBand TechniqueKind = "dual-band"
	// TechniqueDomainTuning is per-domain resonance tuning over a
	// multi-domain PDN: one medium-band controller per supply domain,
	// each watching its own rail sensor.
	TechniqueDomainTuning TechniqueKind = "domain-tuning"
)

// Spec describes one deterministic simulation run: the application, the
// run length, the technique and its configuration, and the simulated
// system. It is the unit of caching — see Key.
type Spec struct {
	// App names a Table 2 application (see workload.Apps). When Workload
	// is non-nil App is only a label (defaulting to Workload.Name).
	App string
	// Instructions is the run length; zero means DefaultInstructions.
	Instructions uint64
	// Technique selects the control scheme; empty means TechniqueNone.
	Technique TechniqueKind

	// Workload overrides the Table 2 application lookup with explicit
	// synthetic-workload parameters when non-nil. Runners with bespoke
	// instruction streams (the low-frequency and scaling experiments)
	// use this to stay inside the cached engine path.
	Workload *workload.Params

	// System overrides the Table 1 system when non-nil.
	System *sim.Config
	// PDN selects a registered power-delivery-network model when
	// non-nil. It is sugar for System.PDN (and overrides it): during
	// normalization the section folds into the system configuration,
	// which is its single canonical home in the cache key. With neither
	// set the run simulates the lumped Table 1 supply, keyed exactly as
	// if that network were spelled out.
	PDN *circuit.NetworkConfig
	// Tuning overrides the paper's tuning configuration when non-nil
	// (only used with TechniqueTuning).
	Tuning *tuning.Config
	// VoltageControl overrides the default [10] configuration
	// (20 mV target, 10 mV noise, 5-cycle delay) when non-nil.
	VoltageControl *voltctl.Config
	// Damping overrides the default [14] configuration (50-cycle
	// window, δ = 16 A) when non-nil.
	Damping *DampingConfig
	// Convolution overrides the default [8] configuration when non-nil
	// (only used with TechniqueConvolution). A zero Supply defaults to
	// the spec's own simulated supply.
	Convolution *convctl.Config
	// Wavelet overrides the default [11]-style configuration when
	// non-nil (only used with TechniqueWavelet).
	Wavelet *wavelet.Config
	// DualBand overrides the derived dual-band configuration when
	// non-nil (only used with TechniqueDualBand).
	DualBand *DualBandConfig
	// DomainTuning overrides the derived per-domain tuning configuration
	// when non-nil (only used with TechniqueDomainTuning).
	DomainTuning *DomainTuningConfig

	// Trace, when non-nil, receives every cycle's waveform point. A
	// traced run always simulates — the callback's side effects cannot
	// be replayed from a cached Result — but its result is still stored
	// for later untraced consumers.
	Trace func(sim.TracePoint)
}

// DampingConfig aliases the [14] configuration for Spec construction.
type DampingConfig = damping.Config

// DualBandConfig configures Section 2.2's dual-band resonance tuning: a
// medium-band controller at core clock plus a low-band controller
// running on a decimated current stream (its cycle-denominated Detector
// and response fields are in decimated units).
type DualBandConfig struct {
	// Medium is the core-clock medium-band controller configuration.
	Medium tuning.Config
	// Low is the decimated low-band controller configuration.
	Low tuning.Config
	// DecimationFactor is how many core cycles one low-band sample
	// spans; zero means DefaultDualBandDecimation.
	DecimationFactor int
}

// DomainTuningConfig configures per-domain resonance tuning over a
// multi-domain PDN: one controller per supply domain, in domain order,
// each fed by its domain's rail sensor. The machine applies the
// strongest requested response to the shared pipeline.
type DomainTuningConfig struct {
	// Domains holds one controller configuration per PDN supply domain.
	Domains []tuning.Config
}

// DefaultDomainTuningConfig derives the per-domain tuning configuration
// for a PDN: the paper's Section 5.2 controller, with each domain's
// detector band centred on that domain's die-level resonance (±20%, the
// same band shape the dual-band low controller uses). A nil, non-multi-
// domain, or unusable PDN yields a single controller with the paper's
// Table 1 band, so default resolution — and therefore Key — stays total.
func DefaultDomainTuningConfig(pdn *circuit.NetworkConfig, initialResponseCycles int) DomainTuningConfig {
	base := DefaultTuningConfig(initialResponseCycles)
	if pdn == nil {
		return DomainTuningConfig{Domains: []tuning.Config{base}}
	}
	np, err := pdn.Normalized()
	if err != nil || np.Kind != circuit.NetworkMultiDomain || np.MultiDomain.Validate() != nil {
		return DomainTuningConfig{Domains: []tuning.Config{base}}
	}
	p := np.MultiDomain
	out := DomainTuningConfig{Domains: make([]tuning.Config, len(p.Domains))}
	for d := range p.Domains {
		c := base
		half := int(math.Round(p.ClockHz / p.Domains[d].ResonantFrequency() / 2))
		c.Detector.HalfPeriodLo = half * 8 / 10
		c.Detector.HalfPeriodHi = half * 12 / 10
		out.Domains[d] = c
	}
	return out
}

// DefaultTuningConfig returns the paper's evaluated resonance-tuning
// configuration (Section 5.2) with the given initial response time.
func DefaultTuningConfig(initialResponseCycles int) tuning.Config {
	supply := circuit.Table1()
	lo, hi := supply.ResonanceBandCycles().HalfPeriods()
	return tuning.Config{
		Detector: tuning.DetectorConfig{
			HalfPeriodLo:           lo,
			HalfPeriodHi:           hi,
			ThresholdAmps:          32,
			MaxRepetitionTolerance: 4,
		},
		InitialResponseThreshold: 2,
		SecondResponseThreshold:  3,
		InitialResponseCycles:    initialResponseCycles,
		SecondResponseCycles:     35,
		ReducedIssueWidth:        4,
		ReducedCachePorts:        1,
		PhantomTargetAmps:        70,
	}
}

// defaultVoltageControl is the [10] configuration evaluated throughout
// the repo when a Spec does not override it.
func defaultVoltageControl() voltctl.Config {
	return voltctl.Config{TargetThresholdVolts: 0.020, SensorNoiseVolts: 0.010, SensorDelayCycles: 5, Seed: 777}
}

// defaultDamping is the [14] configuration evaluated throughout the repo
// when a Spec does not override it.
func defaultDamping() damping.Config {
	return damping.Config{WindowCycles: 50, DeltaAmps: 16, Scale: 0.5}
}

// normalized resolves every default so that two Specs describing the
// same run — via zero values, via explicit defaults, or via distinct
// pointers to equal configurations — become structurally identical. The
// canonical encoding (and therefore the cache key) is computed from the
// normalized form, and Execute builds the simulation from it, which is
// what makes the cache sound. The selected technique's registry
// descriptor is returned alongside.
func (s Spec) normalized() (Spec, *Descriptor, error) {
	n := s
	if n.Instructions == 0 {
		n.Instructions = DefaultInstructions
	}
	if n.Technique == "" {
		n.Technique = TechniqueNone
	}
	if n.Workload != nil {
		w := *n.Workload
		n.Workload = &w
		if n.App == "" {
			n.App = w.Name
		}
	}
	cfg := sim.DefaultConfig()
	if n.System != nil {
		cfg = *n.System
	}
	// System.PDN is the network's single canonical home: a spec-level PDN
	// overrides the system's, and a nil one means the lumped Table 1
	// supply, so every spelling of one network encodes — and packs —
	// identically.
	if n.PDN != nil {
		cfg.PDN = n.PDN
		n.PDN = nil
	}
	var net circuit.NetworkConfig
	if cfg.PDN != nil {
		net = *cfg.PDN
	}
	// An unknown kind stays raw (privately copied) so Key stays total;
	// the error surfaces from Validate and Execute instead.
	if np, err := net.Normalized(); err == nil {
		net = np
	}
	cfg.PDN = &net
	n.System = &cfg

	desc, ok := lookupTechnique(n.Technique)
	if !ok {
		return Spec{}, nil, fmt.Errorf("engine: unknown technique %q (registered kinds: %v)", n.Technique, Kinds())
	}
	// Only the selected technique's configuration is semantically
	// meaningful; drop the rest so it cannot perturb the key, then let
	// the selected descriptor resolve its own section's defaults.
	clearSections(&n)
	if desc.Normalize != nil {
		desc.Normalize(&s, &n, envOf(&cfg))
	}
	return n, desc, nil
}

// Validate resolves the spec through the registry's Normalize path and
// checks everything Execute would reject before simulating — unknown
// technique kind, unusable technique section, unknown application, bad
// synthetic-workload parameters, unusable system configuration — without
// constructing a simulator. It is what a serving front-end runs on an
// incoming spec so configuration mistakes surface as client errors
// rather than failed runs.
func (s Spec) Validate() error {
	n, desc, err := s.normalized()
	if err != nil {
		return err
	}
	if _, err := n.workloadParams(); err != nil {
		return err
	}
	if err := n.System.PDN.Validate(); err != nil {
		return err
	}
	if nd := n.System.PDN.DomainCount(); n.System.SensorDomain < 0 || n.System.SensorDomain > nd {
		return fmt.Errorf("engine: sensor domain %d out of range for a %d-domain network", n.System.SensorDomain, nd)
	}
	if desc.Validate != nil {
		if err := desc.Validate(&n); err != nil {
			return err
		}
	}
	if err := n.System.CPU.Validate(); err != nil {
		return err
	}
	return n.System.Power.Validate()
}

// workloadParams resolves a normalized spec's instruction stream: the
// explicit synthetic workload when present, the named Table 2
// application's otherwise.
func (s *Spec) workloadParams() (workload.Params, error) {
	if s.Workload != nil {
		return *s.Workload, s.Workload.Validate()
	}
	app, err := workload.ByName(s.App)
	if err != nil {
		return workload.Params{}, err
	}
	return app.Params, nil
}

// Execute builds and runs the simulation described by spec on the
// calling goroutine, bypassing any cache. Like every engine run it is a
// one-lane group of the lockstep kernel (see simulate); the spec's
// technique descriptor (see registry.go) validates the resolved
// configuration and constructs the adapter.
func Execute(spec Spec) (sim.Result, error) {
	res, errs, _ := simulate([]Spec{spec})
	return res[0], errs[0]
}

// Prepared is a spec resolved for simulation on its own machine — the
// construction path Execute takes — for callers that must read machine
// state the Result does not carry (the power model's energy breakdown,
// the network's noise margins), before or after the run.
type Prepared struct {
	job
	m *sim.Machine
}

// Prepare resolves spec and builds its machine without running it.
func Prepare(spec Spec) (*Prepared, error) {
	j, err := prepare(spec)
	if err != nil {
		return nil, err
	}
	m, err := j.machine()
	if err != nil {
		return nil, err
	}
	return &Prepared{job: j, m: m}, nil
}

// Machine returns the simulated system the run steps.
func (p *Prepared) Machine() *sim.Machine { return p.m }

// Run simulates the prepared spec to completion; call it once.
func (p *Prepared) Run() (sim.Result, error) {
	outs, _ := batchkernel.Run(p.m, p.n.App, []batchkernel.Lane{p.lane})
	return outs[0].Result, outs[0].Err
}

// buildTechnique validates a normalized spec's technique section and
// constructs the adapter with the system's envelope. tech is nil for
// TechniqueNone.
func buildTechnique(n *Spec, desc *Descriptor) (sim.Technique, TraceHooks, error) {
	// The technique constructors panic on unusable configurations;
	// validate here so a bad grid point surfaces as an error naming it.
	if desc.Validate != nil {
		if err := desc.Validate(n); err != nil {
			return nil, TraceHooks{}, err
		}
	}
	if desc.Build == nil {
		return nil, TraceHooks{}, nil
	}
	tech, hooks := desc.Build(n, envOf(n.System))
	return tech, hooks, nil
}

// BuildTechnique resolves spec's technique section exactly as Execute
// does — registry defaulting, validation, the system's envelope — and
// returns the constructed adapter without running a simulation. It
// serves drivers that feed the simulator from an external instruction
// source (e.g. a recorded trace) and so cannot go through Execute. A nil
// Technique means the base machine.
func BuildTechnique(spec Spec) (sim.Technique, TraceHooks, error) {
	n, desc, err := spec.normalized()
	if err != nil {
		return nil, TraceHooks{}, err
	}
	return buildTechnique(&n, desc)
}
