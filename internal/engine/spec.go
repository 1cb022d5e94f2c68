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
	"sync"

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

// TechniqueKind selects an inductive-noise control scheme. The valid
// kinds are the entries of the techniques table in registry.go (see
// Kinds), one for each constant below.
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
// system. It is the unit of caching — see Key — and, through its JSON
// tags, the repo's one serialized spec schema: the HTTP server's
// request body and the sharded-sweep grid manifest both speak it, so a
// manifest entry could be replayed against the service verbatim.
// Zero-valued fields resolve to the same defaults every driver uses
// (Table 1 system, DefaultInstructions, base technique), so a decoded
// spec has the same content address as the spec it was encoded from.
type Spec struct {
	// App names a Table 2 application (see workload.Apps). When Workload
	// is non-nil App is only a label (defaulting to Workload.Name).
	App string `json:"app,omitempty"`
	// Instructions is the run length; zero means DefaultInstructions.
	Instructions uint64 `json:"instructions,omitempty"`
	// Technique selects the control scheme; empty means TechniqueNone.
	Technique TechniqueKind `json:"technique,omitempty"`

	// Workload overrides the Table 2 application lookup with explicit
	// synthetic-workload parameters when non-nil. Runners with bespoke
	// instruction streams (the low-frequency and scaling experiments)
	// use this to stay inside the cached engine path.
	Workload *workload.Params `json:"workload,omitempty"`

	// System overrides the Table 1 system when non-nil.
	System *sim.Config `json:"system,omitempty"`
	// PDN selects the power-delivery-network model when non-nil. It is
	// sugar for System.PDN (and overrides it): during normalization the
	// section folds into the system configuration, which is its single
	// canonical home in the cache key. With neither set the run
	// simulates the lumped Table 1 supply, keyed exactly as if that
	// network were spelled out.
	PDN *circuit.NetworkConfig `json:"pdn,omitempty"`
	// Tuning overrides the paper's tuning configuration when non-nil
	// (only used with TechniqueTuning).
	Tuning *tuning.Config `json:"tuning,omitempty"`
	// VoltageControl overrides the default [10] configuration
	// (20 mV target, 10 mV noise, 5-cycle delay) when non-nil.
	VoltageControl *voltctl.Config `json:"voltage_control,omitempty"`
	// Damping overrides the default [14] configuration (50-cycle
	// window, δ = 16 A) when non-nil.
	Damping *damping.Config `json:"damping,omitempty"`
	// Convolution overrides the default [8] configuration when non-nil
	// (only used with TechniqueConvolution). A zero Supply defaults to
	// the spec's own simulated supply.
	Convolution *convctl.Config `json:"convolution,omitempty"`
	// Wavelet overrides the default [11]-style configuration when
	// non-nil (only used with TechniqueWavelet).
	Wavelet *wavelet.Config `json:"wavelet,omitempty"`
	// DualBand overrides the derived dual-band configuration when
	// non-nil (only used with TechniqueDualBand).
	DualBand *DualBandConfig `json:"dual_band,omitempty"`
	// DomainTuning overrides the derived per-domain tuning configuration
	// when non-nil (only used with TechniqueDomainTuning).
	DomainTuning *DomainTuningConfig `json:"domain_tuning,omitempty"`
}

// WireSpec returns s: a Spec is plain data, so it is its own wire form.
// It is kept only because perfbench calls it.
func WireSpec(s Spec) Spec { return s }

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
	return DomainTuningConfig{Domains: appendDefaultDomains(nil, pdn, initialResponseCycles)}
}

// appendDefaultDomains appends DefaultDomainTuningConfig's per-domain
// controller list to dst, so normalization can derive it into its
// holder's storage.
func appendDefaultDomains(dst []tuning.Config, pdn *circuit.NetworkConfig, initialResponseCycles int) []tuning.Config {
	base := DefaultTuningConfig(initialResponseCycles)
	if pdn == nil {
		return append(dst, base)
	}
	var sections circuit.NetworkSections
	np, err := pdn.NormalizedIn(&sections)
	if err != nil || np.Kind != circuit.NetworkMultiDomain || np.MultiDomain.Validate() != nil {
		return append(dst, base)
	}
	p := np.MultiDomain
	for d := range p.Domains {
		c := base
		half := int(math.Round(p.ClockHz / p.Domains[d].ResonantFrequency() / 2))
		c.Detector.HalfPeriodLo = half * 8 / 10
		c.Detector.HalfPeriodHi = half * 12 / 10
		dst = append(dst, c)
	}
	return dst
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

// resolved holds a normalized spec and every value its pointers point
// to, so the one normalization (resolve) fills one holder instead of
// copying the system, the network and its section, the workload and the
// technique section to the heap one by one. Normalize stores the
// selected technique's section in the field of its type. A caller that
// keeps the normalized spec keeps its holder (prepare and BuildTechnique
// allocate one); one that only hashes or validates it borrows a holder
// from resolvedPool and puts it back before it returns (see
// borrowResolved).
type resolved struct {
	// n is the normalized spec. Its pointers point into the holder, and
	// so does one slice, the domain-tuning controller list (domains);
	// its other slices do not: a multi-domain network's domains, for
	// one, are the caller's or the shared default's, and a wavelet
	// section's default scales are the wavelet package's.
	n Spec
	// desc is n's technique descriptor.
	desc *Descriptor
	// orig is the spec as the caller gave it, which Normalize reads the
	// technique's section from.
	orig Spec

	workload workload.Params
	system   sim.Config
	network  circuit.NetworkConfig
	sections circuit.NetworkSections

	tuning       tuning.Config
	voltctl      voltctl.Config
	damping      damping.Config
	convolution  convctl.Config
	wavelet      wavelet.Config
	dualBand     DualBandConfig
	domainTuning DomainTuningConfig
	// domains is the storage of domainTuning's controller list, reused
	// by every normalization the holder serves.
	domains []tuning.Config
}

// resolvedPool lends holders to the callers that do not keep the
// normalized spec. A holder is kept on the heap either way — Normalize's
// function value and the pointers into it move it there — so borrowing
// one is what makes keying allocation-free.
var resolvedPool = sync.Pool{New: func() any { return new(resolved) }}

// borrowResolved resolves s in a pooled holder. The caller puts it back
// (resolvedPool.Put) before it returns, and keeps nothing pointing into
// it. On an error the holder is already back in the pool.
func borrowResolved(s *Spec) (*resolved, error) {
	r := resolvedPool.Get().(*resolved)
	if err := r.resolve(s); err != nil {
		resolvedPool.Put(r)
		return nil, err
	}
	return r, nil
}

// resolve resolves every default of s into r so that two Specs
// describing the same run — via zero values, via explicit defaults, or
// via distinct pointers to equal configurations — become structurally
// identical in r.n. The canonical encoding (and therefore the cache key)
// is computed from the normalized form, and Execute builds the
// simulation from it, which is what makes the cache sound. It is the
// one normalization every Spec operation shares; it writes every part of
// r that r.n points to.
func (r *resolved) resolve(s *Spec) error {
	r.orig, r.n = *s, *s
	n := &r.n
	if n.Instructions == 0 {
		n.Instructions = DefaultInstructions
	}
	if n.Technique == "" {
		n.Technique = TechniqueNone
	}
	if n.Workload != nil {
		r.workload = *n.Workload
		n.Workload = &r.workload
		if n.App == "" {
			n.App = r.workload.Name
		}
	}
	r.system = sim.DefaultConfig()
	if n.System != nil {
		r.system = *n.System
	}
	// System.PDN is the network's single canonical home: a spec-level PDN
	// overrides the system's, and a nil one means the lumped Table 1
	// supply, so every spelling of one network encodes — and packs —
	// identically.
	if n.PDN != nil {
		r.system.PDN = n.PDN
		n.PDN = nil
	}
	r.network = circuit.NetworkConfig{}
	if r.system.PDN != nil {
		r.network = *r.system.PDN
	}
	// An unknown kind stays raw (privately copied) so Key stays total;
	// the error surfaces from Validate and Execute instead.
	if np, err := r.network.NormalizedIn(&r.sections); err == nil {
		r.network = np
	}
	r.system.PDN = &r.network
	n.System = &r.system

	desc, ok := lookupTechnique(n.Technique)
	if !ok {
		return fmt.Errorf("engine: unknown technique %q (registered kinds: %v)", n.Technique, Kinds())
	}
	r.desc = desc
	// Only the selected technique's configuration is semantically
	// meaningful; drop the rest so it cannot perturb the key, then let
	// the selected descriptor resolve its own section's defaults.
	clearSections(n)
	if desc.Normalize != nil {
		desc.Normalize(r, envOf(&r.system))
	}
	return nil
}

// Validate resolves the spec through the technique table's Normalize
// path and checks everything Execute would reject before simulating —
// unknown technique kind, unusable technique section, unknown
// application, bad synthetic-workload parameters, unusable system
// configuration — without constructing a simulator. It is what a
// serving front-end runs on an incoming spec so configuration mistakes
// surface as client errors rather than failed runs.
func (s Spec) Validate() error {
	r, err := borrowResolved(&s)
	if err != nil {
		return err
	}
	_, err = r.n.validate(r.desc)
	resolvedPool.Put(r)
	return err
}

// ValidKey is Validate followed by Key from one normalization: the
// spec's content address, or the error Validate would report. A serving
// front-end that checks each incoming spec and reports its key calls
// this once instead of resolving the spec's defaults twice.
func (s Spec) ValidKey() (Key, error) {
	r, err := borrowResolved(&s)
	if err != nil {
		return Key{}, err
	}
	defer resolvedPool.Put(r)
	if _, err := r.n.validate(r.desc); err != nil {
		return Key{}, err
	}
	return r.n.key()
}

// validate is Validate on a normalized spec and its descriptor. It
// returns the spec's instruction-stream parameters, which it resolves
// on the way.
func (n *Spec) validate(desc *Descriptor) (workload.Params, error) {
	params, err := n.workloadParams()
	if err != nil {
		return params, err
	}
	if err := n.System.PDN.Validate(); err != nil {
		return params, err
	}
	if nd := n.System.PDN.DomainCount(); n.System.SensorDomain < 0 || n.System.SensorDomain > nd {
		return params, fmt.Errorf("engine: sensor domain %d out of range for a %d-domain network", n.System.SensorDomain, nd)
	}
	if desc.Validate != nil {
		if err := desc.Validate(n); err != nil {
			return params, err
		}
	}
	if err := n.System.CPU.Validate(); err != nil {
		return params, err
	}
	return params, n.System.Power.Validate()
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
// configuration and constructs the controller.
func Execute(spec Spec) (sim.Result, error) {
	res, errs, _ := simulate([]Spec{spec})
	return res[0], errs[0]
}

// Prepared is a spec resolved for simulation on its own machine — the
// construction path Execute takes — for callers that need more than the
// Result: machine or technique state the Result does not carry (the
// power model's energy breakdown, the network's noise margins,
// per-domain controller statistics), before or after the run, or the
// run's per-cycle waveform. It never touches a result cache.
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

// Technique returns the technique the run steps; nil for the base machine.
func (p *Prepared) Technique() sim.Technique { return p.lane.Tech }

// Run simulates the prepared spec to completion; call it once. trace,
// when non-nil, receives every cycle's waveform point, with the
// technique's resonant event count and response level where it has
// them; a nil trace runs untraced.
func (p *Prepared) Run(trace func(sim.TracePoint)) (sim.Result, error) {
	lane := p.lane
	if trace != nil {
		lane.Trace, lane.EventCount, lane.Level = trace, p.hooks.EventCount, p.hooks.Level
	}
	outs, _ := batchkernel.Run(p.m, p.n.App, []batchkernel.Lane{lane})
	return outs[0].Result, outs[0].Err
}

// BuildTechnique resolves spec's technique section exactly as Execute
// does — registry defaulting, validation, the system's envelope — and
// returns the constructed controller, with its trace hooks, without
// running a simulation. It
// serves drivers that feed the simulator from an external instruction
// source (e.g. a recorded trace) and so cannot go through Execute. A nil
// Technique means the base machine.
func BuildTechnique(spec Spec) (sim.Technique, TraceHooks, error) {
	r := new(resolved)
	if err := r.resolve(&spec); err != nil {
		return nil, TraceHooks{}, err
	}
	// The technique constructors panic on unusable configurations;
	// validate the section so a bad configuration surfaces as an error.
	if r.desc.Validate != nil {
		if err := r.desc.Validate(&r.n); err != nil {
			return nil, TraceHooks{}, err
		}
	}
	if r.desc.Build == nil {
		return nil, TraceHooks{}, nil
	}
	tech, hooks := r.desc.Build(&r.n, envOf(r.n.System))
	return tech, hooks, nil
}
