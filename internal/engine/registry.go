// Technique table: the single place a control scheme is wired into the
// engine. Each technique is one Descriptor — its kind string, config
// defaulting, validation, and constructor (plus trace hooks) — in the
// static techniques table, and every Spec operation (normalization,
// Validate, Execute) reads the table instead of switching on the kind.
// Adding a technique is one table entry plus one Spec section field,
// which the canonical encoding picks up by reflection and clearSections
// must drop.
package engine

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"unsafe"

	"repro/internal/baselines/convctl"
	"repro/internal/baselines/damping"
	"repro/internal/baselines/voltctl"
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

// Descriptor is one technique kind's entry in the techniques table. All
// functions except Validate operate on normalized specs.
type Descriptor struct {
	// Kind is the technique's spec identifier (Spec.Technique).
	Kind TechniqueKind
	// Normalize resolves the technique's defaults: it reads the
	// caller's section from r.orig (nil means all defaults), stores the
	// fully resolved section in r's field of its type and points r.n's
	// section at it; nil means no section.
	Normalize func(r *resolved, env Env)
	// Validate checks the resolved section; nil means always valid.
	// Execute reports its error instead of letting a constructor panic.
	Validate func(n *Spec) error
	// Build constructs the technique's controller, which is the
	// sim.Technique itself, and its trace hooks from the resolved
	// section; nil means the uncontrolled base machine.
	Build func(n *Spec, env Env) (sim.Technique, TraceHooks)
}

// Kinds returns every technique kind in table order (base first, then
// the paper's technique, then the related-work baselines).
func Kinds() []TechniqueKind {
	out := make([]TechniqueKind, len(techniques))
	for i, d := range techniques {
		out[i] = d.Kind
	}
	return out
}

// lookupTechnique resolves a kind to its descriptor.
func lookupTechnique(kind TechniqueKind) (*Descriptor, bool) {
	for i := range techniques {
		if techniques[i].Kind == kind {
			return &techniques[i], true
		}
	}
	return nil, false
}

// clearSections drops every technique section so that only the selected
// technique's configuration, which its Normalize writes back, can reach
// the canonical encoding.
func clearSections(n *Spec) {
	n.Tuning, n.VoltageControl, n.Damping, n.Convolution, n.Wavelet, n.DualBand, n.DomainTuning = nil, nil, nil, nil, nil, nil, nil
}

// techniques is the table of technique kinds, in Kinds order.
var techniques = []Descriptor{
	// The uncontrolled base processor: no section, no constructor.
	{Kind: TechniqueNone},

	// Resonance tuning, the paper's contribution (Section 3).
	{
		Kind: TechniqueTuning,
		Normalize: func(r *resolved, env Env) {
			tc := &r.tuning
			*tc = DefaultTuningConfig(100)
			if r.orig.Tuning != nil {
				*tc = *r.orig.Tuning
			}
			if tc.PhantomTargetAmps == 0 {
				// The paper's second-level response holds the mid
				// current level of the configured envelope.
				tc.PhantomTargetAmps = env.MidAmps
			}
			r.n.Tuning = tc
		},
		Validate: func(n *Spec) error { return n.Tuning.Validate() },
		Build: func(n *Spec, env Env) (sim.Technique, TraceHooks) {
			c := tuning.NewController(*n.Tuning)
			return c, TraceHooks{EventCount: c.EventCount, Level: c.Level}
		},
	},

	// The voltage-threshold scheme of [10].
	{
		Kind: TechniqueVoltageControl,
		Normalize: func(r *resolved, env Env) {
			r.voltctl = defaultVoltageControl()
			if r.orig.VoltageControl != nil {
				r.voltctl = *r.orig.VoltageControl
			}
			r.n.VoltageControl = &r.voltctl
		},
		Validate: func(n *Spec) error { return n.VoltageControl.Validate() },
		Build: func(n *Spec, env Env) (sim.Technique, TraceHooks) {
			c := voltctl.New(*n.VoltageControl, env.PhantomFireAmps)
			return c, TraceHooks{Level: c.Level}
		},
	},

	// Pipeline damping [14].
	{
		Kind: TechniqueDamping,
		Normalize: func(r *resolved, env Env) {
			r.damping = defaultDamping()
			if r.orig.Damping != nil {
				r.damping = *r.orig.Damping
			}
			r.n.Damping = &r.damping
		},
		Validate: func(n *Spec) error { return n.Damping.Validate() },
		Build: func(n *Spec, env Env) (sim.Technique, TraceHooks) {
			return damping.New(*n.Damping), TraceHooks{}
		},
	},

	// Convolution-based prediction [8]: the supply defaults to the
	// spec's own simulated supply, so the impulse response driving the
	// prediction matches the network being simulated.
	{
		Kind: TechniqueConvolution,
		Normalize: func(r *resolved, env Env) {
			var cc convctl.Config
			if r.orig.Convolution != nil {
				cc = *r.orig.Convolution
			}
			if cc.Supply == (circuit.Params{}) {
				cc.Supply = convolutionSupply(r.n.System)
			}
			r.convolution = convolutionDefaults.get(cc)
			r.n.Convolution = &r.convolution
		},
		Validate: func(n *Spec) error { return n.Convolution.Validate() },
		Build: func(n *Spec, env Env) (sim.Technique, TraceHooks) {
			return convctl.New(*n.Convolution, env.PhantomFireAmps), TraceHooks{}
		},
	},

	// Haar-wavelet detector in the spirit of [11].
	{
		Kind: TechniqueWavelet,
		Normalize: func(r *resolved, env Env) {
			var wc wavelet.Config
			if r.orig.Wavelet != nil {
				wc = *r.orig.Wavelet
			}
			if resolved, err := wc.WithDefaults(); err == nil {
				wc = resolved
			}
			r.wavelet = wc
			r.n.Wavelet = &r.wavelet
		},
		Validate: func(n *Spec) error { return n.Wavelet.Validate() },
		Build: func(n *Spec, env Env) (sim.Technique, TraceHooks) {
			return wavelet.New(*n.Wavelet), TraceHooks{}
		},
	},

	// Dual-band resonance tuning (Section 2.2): medium-band controller
	// at core clock plus a decimated low-band controller.
	{
		Kind: TechniqueDualBand,
		Normalize: func(r *resolved, env Env) {
			db := &r.dualBand
			if r.orig.DualBand != nil {
				*db = *r.orig.DualBand
			} else {
				*db = dualBandDefaults.get(dualBandSupply(r.n.System))
			}
			if db.DecimationFactor == 0 {
				db.DecimationFactor = DefaultDualBandDecimation
			}
			if db.Medium == (tuning.Config{}) {
				db.Medium = DefaultTuningConfig(100)
			}
			if db.Low == (tuning.Config{}) {
				db.Low = dualBandDefaults.get(dualBandSupply(r.n.System)).Low
			}
			if db.Medium.PhantomTargetAmps == 0 {
				db.Medium.PhantomTargetAmps = env.MidAmps
			}
			if db.Low.PhantomTargetAmps == 0 {
				db.Low.PhantomTargetAmps = env.MidAmps
			}
			r.n.DualBand = db
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
		Build: func(n *Spec, env Env) (sim.Technique, TraceHooks) {
			return tuning.NewDualBand(n.DualBand.Medium, n.DualBand.Low, n.DualBand.DecimationFactor), TraceHooks{}
		},
	},

	// Per-domain resonance tuning over a multi-domain PDN: one
	// medium-band controller per supply domain, each watching its own
	// rail sensor, with the strongest response applied to the pipeline.
	{
		Kind: TechniqueDomainTuning,
		Normalize: func(r *resolved, env Env) {
			dt := &r.domainTuning
			if r.orig.DomainTuning != nil {
				*dt = *r.orig.DomainTuning
				dt.Domains = append(r.domains[:0], dt.Domains...)
			} else {
				*dt = DomainTuningConfig{Domains: appendDefaultDomains(r.domains[:0], r.n.System.PDN, 100)}
			}
			r.domains = dt.Domains
			for d := range dt.Domains {
				if dt.Domains[d].PhantomTargetAmps == 0 {
					// The second-level response holds the aggregate mid
					// current level (phantom targets are expressed in
					// aggregate core amps on every machine).
					dt.Domains[d].PhantomTargetAmps = env.MidAmps
				}
			}
			r.n.DomainTuning = dt
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
		Build: func(n *Spec, env Env) (sim.Technique, TraceHooks) {
			t := tuning.NewPerDomain(n.DomainTuning.Domains)
			return t, TraceHooks{EventCount: t.EventCount, Level: t.Level}
		},
	},
}

// derivedCap bounds each derivedTable. A process sees few distinct
// inputs (specs on one network that leave the section to its defaults
// share one), so a full table means a stream of ever-new supplies or
// sections, each paying its own derivation as it would without a table.
const derivedCap = 64

// derivedTable memoizes a pure, expensive default derivation — the
// convolution predictor's tap count simulates an impulse response,
// DefaultDualBandConfig runs two impedance sweeps — that every Key and
// Validate of a spec relying on it would otherwise repeat. Entries are
// keyed by the canonical encoding of the derivation's input, its exact
// float bits, so −0 and +0 or two NaN payloads never share an entry and
// a lookup returns exactly what a direct call would: like a sync.Pool,
// the package-level tables are invisible to callers. A full table drops
// an arbitrary entry to make room. The derived values hold no pointers,
// so a returned copy is the caller's own.
type derivedTable[In, Out any] struct {
	derive func(In) Out
	enc    *encoder // In's canonical encoder
	mu     sync.Mutex
	m      map[string]Out
}

// newDerivedTable compiles In's canonical encoder for a table over
// derive.
func newDerivedTable[In, Out any](derive func(In) Out) derivedTable[In, Out] {
	return derivedTable[In, Out]{derive: derive, enc: compileEncoder(reflect.TypeFor[In](), -1)}
}

func (t *derivedTable[In, Out]) get(in In) Out {
	var buf [canonicalSize]byte
	b := t.enc.encode(buf[:0], unsafe.Pointer(&in))
	t.mu.Lock()
	out, ok := t.m[string(b)]
	t.mu.Unlock()
	if ok {
		return out
	}
	out = t.derive(in)
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[string]Out, derivedCap)
	}
	if len(t.m) >= derivedCap {
		for old := range t.m {
			delete(t.m, old)
			break
		}
	}
	t.m[string(b)] = out
	t.mu.Unlock()
	return out
}

var (
	// convolutionDefaults resolves threshold, horizon and taps so explicit
	// defaults and implied ones share one cache key; an unusable config
	// is kept raw and surfaces from Validate at Execute time.
	convolutionDefaults = newDerivedTable(func(cc convctl.Config) convctl.Config {
		if resolved, err := cc.WithDefaults(); err == nil {
			return resolved
		}
		return cc
	})
	dualBandDefaults = newDerivedTable(DefaultDualBandConfig)
)

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
