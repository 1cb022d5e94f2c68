// Technique registry: the single place a control scheme is wired into
// the engine. A technique registers one Descriptor — its kind string,
// config defaulting, validation, canonical key encoding, and constructor
// (plus trace hooks) — and every Spec operation (normalization, Key,
// Execute) walks the registry instead of switching on the kind. Adding a
// technique is one Register call and one Spec section field, not three
// parallel switch edits.
package engine

import (
	"fmt"
	"math"

	"repro/internal/baselines/convctl"
	"repro/internal/baselines/wavelet"
	"repro/internal/circuit"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/tuning"
)

// Env carries the electrical-envelope quantities technique descriptors
// may need, derived from the resolved system configuration by the power
// model's own arithmetic (see envOf). Normalize and Build see the same
// values.
type Env struct {
	// MidAmps is the midpoint current level (power.Model.MidAmps), the
	// default target of resonance tuning's second-level response.
	MidAmps float64
	// PhantomFireAmps is the extra current of phantom-firing the caches
	// and functional units (power.Model.PhantomFireAmps), the
	// high-voltage response of [10] and [8].
	PhantomFireAmps float64
}

// envOf derives a system's Env without building a power model: plain
// arithmetic, so it is total even over configurations the machine would
// reject (which keeps Key total).
func envOf(sys *sim.Config) Env {
	return Env{MidAmps: power.MidAmps(sys.Power), PhantomFireAmps: power.PhantomFireAmps(sys.Power, sys.CPU)}
}

// TraceHooks are the optional per-cycle introspection functions a
// technique exposes to waveform traces (sim.TracePoint's EventCount and
// ResponseLevel columns). Either or both may be nil.
type TraceHooks struct {
	EventCount func() int
	Level      func() int
}

// Descriptor is one registered technique kind. All functions except
// Validate operate on normalized specs; a descriptor with a config
// section must provide Clear, Normalize, and Section so the section
// participates in default resolution and the canonical encoding.
type Descriptor struct {
	// Kind is the technique's spec identifier (Spec.Technique).
	Kind TechniqueKind
	// Clear removes the technique's config section from a spec. During
	// normalization every registered descriptor's Clear runs, so only
	// the selected technique's section survives into the cache key.
	Clear func(n *Spec)
	// Normalize resolves the technique's defaults: it reads the
	// caller's section from orig (nil means all defaults) and writes
	// the fully resolved section into n.
	Normalize func(orig, n *Spec, env Env)
	// Validate checks the resolved section; nil means always valid.
	// Execute reports its error instead of letting a constructor panic.
	Validate func(n *Spec) error
	// Section returns the resolved config section (a possibly-nil
	// pointer) for the canonical encoding; nil means the technique has
	// no section (the base machine).
	Section func(n *Spec) any
	// Build constructs the simulation adapter and its trace hooks from
	// the resolved section; nil means the uncontrolled base machine.
	Build func(n *Spec, env Env) (sim.Technique, TraceHooks)
}

var (
	registry      = map[TechniqueKind]*Descriptor{}
	registryOrder []*Descriptor
)

// Register adds a technique descriptor. It panics on duplicate or
// inconsistent registrations (registration happens at init time; a bad
// descriptor is a programming error, not a runtime condition). The
// registration order is part of the canonical encoding, so techniques
// must be registered deterministically (from a single init).
func Register(d Descriptor) {
	if d.Kind == "" {
		panic("engine.Register: empty technique kind")
	}
	if _, dup := registry[d.Kind]; dup {
		panic(fmt.Sprintf("engine.Register: duplicate technique %q", d.Kind))
	}
	if d.Section != nil && (d.Clear == nil || d.Normalize == nil) {
		panic(fmt.Sprintf("engine.Register: technique %q has a config section but no Clear/Normalize", d.Kind))
	}
	dd := d
	registry[d.Kind] = &dd
	registryOrder = append(registryOrder, &dd)
}

// Kinds returns every registered technique kind in registration order
// (base first, then the paper's technique, then the related-work
// baselines).
func Kinds() []TechniqueKind {
	out := make([]TechniqueKind, len(registryOrder))
	for i, d := range registryOrder {
		out[i] = d.Kind
	}
	return out
}

// lookupTechnique resolves a kind to its descriptor.
func lookupTechnique(kind TechniqueKind) (*Descriptor, bool) {
	d, ok := registry[kind]
	return d, ok
}

// clearSections runs every descriptor's Clear so that only the selected
// technique's configuration can reach the canonical encoding.
func clearSections(n *Spec) {
	for _, d := range registryOrder {
		if d.Clear != nil {
			d.Clear(n)
		}
	}
}

func init() {
	// The uncontrolled base processor: no section, no constructor.
	Register(Descriptor{Kind: TechniqueNone})

	// Resonance tuning, the paper's contribution (Section 3).
	Register(Descriptor{
		Kind:  TechniqueTuning,
		Clear: func(n *Spec) { n.Tuning = nil },
		Normalize: func(orig, n *Spec, env Env) {
			tc := DefaultTuningConfig(100)
			if orig.Tuning != nil {
				tc = *orig.Tuning
			}
			if tc.PhantomTargetAmps == 0 {
				// The paper's second-level response holds the mid
				// current level of the configured envelope.
				tc.PhantomTargetAmps = env.MidAmps
			}
			n.Tuning = &tc
		},
		Validate: func(n *Spec) error { return n.Tuning.Validate() },
		Section:  func(n *Spec) any { return n.Tuning },
		Build: func(n *Spec, env Env) (sim.Technique, TraceHooks) {
			rt := sim.NewResonanceTuning(*n.Tuning)
			return rt, TraceHooks{EventCount: rt.EventCount, Level: rt.Level}
		},
	})

	// The voltage-threshold scheme of [10].
	Register(Descriptor{
		Kind:  TechniqueVoltageControl,
		Clear: func(n *Spec) { n.VoltageControl = nil },
		Normalize: func(orig, n *Spec, env Env) {
			vc := defaultVoltageControl()
			if orig.VoltageControl != nil {
				vc = *orig.VoltageControl
			}
			n.VoltageControl = &vc
		},
		Validate: func(n *Spec) error { return n.VoltageControl.Validate() },
		Section:  func(n *Spec) any { return n.VoltageControl },
		Build: func(n *Spec, env Env) (sim.Technique, TraceHooks) {
			v := sim.NewVoltageControl(*n.VoltageControl, env.PhantomFireAmps)
			return v, TraceHooks{Level: v.Level}
		},
	})

	// Pipeline damping [14].
	Register(Descriptor{
		Kind:  TechniqueDamping,
		Clear: func(n *Spec) { n.Damping = nil },
		Normalize: func(orig, n *Spec, env Env) {
			dc := defaultDamping()
			if orig.Damping != nil {
				dc = *orig.Damping
			}
			n.Damping = &dc
		},
		Validate: func(n *Spec) error { return n.Damping.Validate() },
		Section:  func(n *Spec) any { return n.Damping },
		Build: func(n *Spec, env Env) (sim.Technique, TraceHooks) {
			return sim.NewDamping(*n.Damping), TraceHooks{}
		},
	})

	// Convolution-based prediction [8]: the supply defaults to the
	// spec's own simulated supply, so the impulse response driving the
	// prediction matches the network being simulated.
	Register(Descriptor{
		Kind:  TechniqueConvolution,
		Clear: func(n *Spec) { n.Convolution = nil },
		Normalize: func(orig, n *Spec, env Env) {
			var cc convctl.Config
			if orig.Convolution != nil {
				cc = *orig.Convolution
			}
			if cc.Supply == (circuit.Params{}) {
				cc.Supply = convolutionSupply(n.System)
			}
			// Resolve threshold/horizon/taps so explicit defaults and
			// implied ones share one cache key; an unusable config is
			// kept raw and surfaces from Validate at Execute time.
			if resolved, err := cc.WithDefaults(); err == nil {
				cc = resolved
			}
			n.Convolution = &cc
		},
		Validate: func(n *Spec) error { return n.Convolution.Validate() },
		Section:  func(n *Spec) any { return n.Convolution },
		Build: func(n *Spec, env Env) (sim.Technique, TraceHooks) {
			return sim.NewConvolutionControl(*n.Convolution, env.PhantomFireAmps), TraceHooks{}
		},
	})

	// Haar-wavelet detector in the spirit of [11].
	Register(Descriptor{
		Kind:  TechniqueWavelet,
		Clear: func(n *Spec) { n.Wavelet = nil },
		Normalize: func(orig, n *Spec, env Env) {
			var wc wavelet.Config
			if orig.Wavelet != nil {
				wc = *orig.Wavelet
			}
			if resolved, err := wc.WithDefaults(); err == nil {
				wc = resolved
			}
			n.Wavelet = &wc
		},
		Validate: func(n *Spec) error { return n.Wavelet.Validate() },
		Section:  func(n *Spec) any { return n.Wavelet },
		Build: func(n *Spec, env Env) (sim.Technique, TraceHooks) {
			return sim.NewWaveletControl(*n.Wavelet), TraceHooks{}
		},
	})

	// Dual-band resonance tuning (Section 2.2): medium-band controller
	// at core clock plus a decimated low-band controller.
	Register(Descriptor{
		Kind:  TechniqueDualBand,
		Clear: func(n *Spec) { n.DualBand = nil },
		Normalize: func(orig, n *Spec, env Env) {
			var db DualBandConfig
			if orig.DualBand != nil {
				db = *orig.DualBand
			} else {
				db = DefaultDualBandConfig(dualBandSupply(n.System))
			}
			if db.DecimationFactor == 0 {
				db.DecimationFactor = DefaultDualBandDecimation
			}
			if db.Medium == (tuning.Config{}) {
				db.Medium = DefaultTuningConfig(100)
			}
			if db.Low == (tuning.Config{}) {
				db.Low = DefaultDualBandConfig(dualBandSupply(n.System)).Low
			}
			if db.Medium.PhantomTargetAmps == 0 {
				db.Medium.PhantomTargetAmps = env.MidAmps
			}
			if db.Low.PhantomTargetAmps == 0 {
				db.Low.PhantomTargetAmps = env.MidAmps
			}
			n.DualBand = &db
		},
		Validate: func(n *Spec) error {
			if n.DualBand.DecimationFactor < 1 {
				return fmt.Errorf("engine: dual-band decimation factor must be ≥ 1 (got %d)", n.DualBand.DecimationFactor)
			}
			if err := n.DualBand.Medium.Validate(); err != nil {
				return fmt.Errorf("engine: dual-band medium config: %w", err)
			}
			if err := n.DualBand.Low.Validate(); err != nil {
				return fmt.Errorf("engine: dual-band low config: %w", err)
			}
			return nil
		},
		Section: func(n *Spec) any { return n.DualBand },
		Build: func(n *Spec, env Env) (sim.Technique, TraceHooks) {
			return sim.NewDualBandTuning(n.DualBand.Medium, n.DualBand.Low, n.DualBand.DecimationFactor), TraceHooks{}
		},
	})

	// Per-domain resonance tuning over a multi-domain PDN: one
	// medium-band controller per supply domain, each watching its own
	// rail sensor, with the strongest response applied to the pipeline.
	Register(Descriptor{
		Kind:  TechniqueDomainTuning,
		Clear: func(n *Spec) { n.DomainTuning = nil },
		Normalize: func(orig, n *Spec, env Env) {
			var dt DomainTuningConfig
			if orig.DomainTuning != nil {
				dt = *orig.DomainTuning
				dt.Domains = append([]tuning.Config(nil), dt.Domains...)
			} else {
				dt = DefaultDomainTuningConfig(n.System.PDN, 100)
			}
			for d := range dt.Domains {
				if dt.Domains[d].PhantomTargetAmps == 0 {
					// The second-level response holds the aggregate mid
					// current level (phantom targets are expressed in
					// aggregate core amps on every machine).
					dt.Domains[d].PhantomTargetAmps = env.MidAmps
				}
			}
			n.DomainTuning = &dt
		},
		Validate: func(n *Spec) error {
			nd := n.System.PDN.DomainCount()
			if len(n.DomainTuning.Domains) != nd {
				return fmt.Errorf("engine: domain-tuning has %d controller configs for a %d-domain network", len(n.DomainTuning.Domains), nd)
			}
			for d := range n.DomainTuning.Domains {
				if err := n.DomainTuning.Domains[d].Validate(); err != nil {
					return fmt.Errorf("engine: domain-tuning domain %d: %w", d, err)
				}
			}
			return nil
		},
		Section: func(n *Spec) any { return n.DomainTuning },
		Build: func(n *Spec, env Env) (sim.Technique, TraceHooks) {
			dt := sim.NewPerDomainTuning(n.DomainTuning.Domains)
			return dt, TraceHooks{EventCount: dt.EventCount, Level: dt.Level}
		},
	})
}

// convolutionSupply picks the lumped supply the convolution predictor's
// impulse response defaults to: the spec's own network when it is the
// lumped kind, Table 1 otherwise (the fallback keeps default resolution,
// and therefore Key, total).
func convolutionSupply(sys *sim.Config) circuit.Params {
	if sys.PDN.Kind == circuit.NetworkLumped && sys.PDN.Lumped != nil {
		return *sys.PDN.Lumped
	}
	return circuit.Table1()
}

// DefaultDualBandDecimation is the low-band sensor's decimation factor
// when a DualBandConfig leaves it zero: one low-band sample per 25 core
// cycles, the ratio the lowfreq experiment evaluates.
const DefaultDualBandDecimation = 25

// dualBandSupply picks the two-stage network dual-band defaults derive
// from: the spec's own network when it is a usable two-stage one, the
// Table 1 two-stage extension otherwise. (The fallback keeps default
// resolution — and therefore Key — total even over junk systems.)
func dualBandSupply(sys *sim.Config) circuit.TwoStageParams {
	if sys.PDN.Kind == circuit.NetworkTwoStage && sys.PDN.TwoStage != nil && sys.PDN.TwoStage.Validate() == nil {
		return *sys.PDN.TwoStage
	}
	return circuit.Table1TwoStage()
}

// DefaultDualBandConfig derives the Section 2.2 dual-band configuration
// for a two-stage supply: the paper's medium-band configuration plus a
// low-band controller running on a 25:1 decimated current stream, its
// detector band centred on the low resonance (in decimated units) and
// its threshold scaled to the lower low-band peak impedance
// (margin / |Z_low|). This is exactly the configuration the lowfreq
// experiment evaluates.
func DefaultDualBandConfig(supply circuit.TwoStageParams) DualBandConfig {
	lowPeriod := supply.ClockHz / supply.LowStage().ResonantFrequency()
	lowPeak, _ := supply.Peaks()
	lowHalfDecimated := int(math.Round(lowPeriod / 2 / DefaultDualBandDecimation))
	lowThreshold := math.Floor(supply.NoiseMarginVolts() / lowPeak.Ohms)
	return DualBandConfig{
		Medium: DefaultTuningConfig(100),
		Low: tuning.Config{
			Detector: tuning.DetectorConfig{
				HalfPeriodLo:           lowHalfDecimated * 8 / 10,
				HalfPeriodHi:           lowHalfDecimated * 12 / 10,
				ThresholdAmps:          lowThreshold,
				MaxRepetitionTolerance: 4,
			},
			InitialResponseThreshold: 2,
			SecondResponseThreshold:  3,
			InitialResponseCycles:    100, // decimated units
			SecondResponseCycles:     35,
			ReducedIssueWidth:        4,
			ReducedCachePorts:        1,
			PhantomTargetAmps:        70,
		},
		DecimationFactor: DefaultDualBandDecimation,
	}
}
