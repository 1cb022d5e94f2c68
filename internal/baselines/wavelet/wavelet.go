// Package wavelet implements a Haar-wavelet-based di/dt detector in the
// spirit of reference [11] (Joseph, Hu & Martonosi, HPCA 2004), which the
// paper's related-work section offers as an alternative to resonance
// tuning's repetition counting: analyse the current history at dyadic
// time scales and react when the detail coefficients at the scales
// overlapping the resonance band grow large repeatedly.
//
// A Haar detail coefficient at scale s is (sum of the last s samples)
// minus (sum of the s samples before those) — structurally the same
// quarter-period comparison resonance tuning performs, but restricted to
// power-of-two windows. For the Table 1 band (half-periods 42-60 cycles)
// the relevant scales are 32 and 64; the mismatch between dyadic scales
// and the actual band is the price of the wavelet framing, and the
// repo's extra-baselines experiment quantifies it.
//
// Controller is the technique the simulation loop runs (sim.Technique):
// it observes the cycle's sensed core current and requests no phantom
// current.
package wavelet

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// Config parameterises the detector/controller.
type Config struct {
	// Scales are the Haar scales (window lengths, powers of two) to
	// monitor; nil means {32, 64}.
	Scales []int
	// ThresholdAmpCycles is the detail-coefficient magnitude that marks
	// an event, per scale unit: the trigger at scale s is
	// ThresholdAmpCycles·s (matching resonance tuning's M·T/8 scaling
	// with M = 4·ThresholdAmpCycles... the constant is calibrated the
	// same way). Zero means 8 (i.e. M = 32 A with the paper scaling).
	ThresholdAmpCycles float64
	// Repetitions is how many alternating-sign events at the same scale
	// must chain before responding; zero means 2.
	Repetitions int
	// ResponseCycles is how long the response (half issue width, one
	// port) holds; zero means 100.
	ResponseCycles int
}

// WithDefaults returns the configuration with every zero field resolved
// to its default (the form New actually runs), or an error when the
// configuration is unusable. It is what the engine's technique registry
// normalizes and validates specs with.
func (c Config) WithDefaults() (Config, error) { return c.withDefaults() }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	_, err := c.withDefaults()
	return err
}

// defaultScales is what a nil Scales resolves to. Every resolved
// configuration shares it, so nothing may write it.
var defaultScales = []int{32, 64}

func (c Config) withDefaults() (Config, error) {
	if c.Scales == nil {
		c.Scales = defaultScales
	}
	for _, s := range c.Scales {
		if s < 2 || s&(s-1) != 0 {
			return c, fmt.Errorf("wavelet: scale %d is not a power of two ≥ 2", s)
		}
	}
	if c.ThresholdAmpCycles == 0 {
		c.ThresholdAmpCycles = 8
	}
	if c.ThresholdAmpCycles <= 0 {
		return c, fmt.Errorf("wavelet: threshold must be positive (got %g)", c.ThresholdAmpCycles)
	}
	if c.Repetitions == 0 {
		c.Repetitions = 2
	}
	if c.Repetitions < 1 {
		return c, fmt.Errorf("wavelet: repetitions must be ≥ 1 (got %d)", c.Repetitions)
	}
	if c.ResponseCycles == 0 {
		c.ResponseCycles = 100
	}
	if c.ResponseCycles < 1 {
		return c, fmt.Errorf("wavelet: response cycles must be ≥ 1 (got %d)", c.ResponseCycles)
	}
	return c, nil
}

// Stats accumulates behaviour.
type Stats struct {
	Cycles         uint64
	Events         uint64
	ResponseCycles uint64
	Responses      uint64
}

// ResponseFraction returns the fraction of cycles spent responding.
func (s Stats) ResponseFraction() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ResponseCycles) / float64(s.Cycles)
}

// scaleState tracks event chaining at one Haar scale.
type scaleState struct {
	scale     int
	threshold float64
	// lastSign and lastEventCycle implement alternating-sign chaining:
	// a new event of opposite sign one scale-length after the previous
	// one extends the chain.
	lastSign       int
	lastEventCycle uint64
	chain          int
	inEvent        bool // suppress duplicate counting within a crossing
}

// Controller is the wavelet-based detect-and-respond mechanism. As a
// sim.Technique, Observe steps it on the cycle's sensed current and Next
// applies the throttle Step chose last.
type Controller struct {
	cfg  Config
	next cpu.Throttle

	cum    []float64 // cumulative-sum ring
	total  float64
	cycle  uint64
	warmup int

	scales []scaleState

	respondUntil uint64
	stats        Stats
}

// New returns a controller. It panics on an invalid configuration.
func New(cfg Config) *Controller {
	resolved, err := cfg.withDefaults()
	if err != nil {
		panic(fmt.Sprintf("wavelet.New: %v", err))
	}
	maxScale := 0
	states := make([]scaleState, len(resolved.Scales))
	for i, s := range resolved.Scales {
		if s > maxScale {
			maxScale = s
		}
		states[i] = scaleState{scale: s, threshold: resolved.ThresholdAmpCycles * float64(s)}
	}
	return &Controller{
		cfg:    resolved,
		next:   cpu.Unlimited,
		cum:    make([]float64, 2*maxScale+2),
		scales: states,
	}
}

// Config returns the resolved configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// detail computes the Haar detail coefficient at the given scale for the
// current cycle.
func (c *Controller) detail(scale int) float64 {
	n := len(c.cum)
	at := func(back int) float64 {
		return c.cum[((int(c.cycle%uint64(n))-back)%n+n)%n]
	}
	recent := at(0) - at(scale)
	prior := at(scale) - at(2*scale)
	return recent - prior
}

// Step consumes one cycle of sensed core current and returns the
// throttle for the next cycle.
func (c *Controller) Step(sensedAmps float64) cpu.Throttle {
	c.total += sensedAmps
	c.cum[c.cycle%uint64(len(c.cum))] = c.total

	maxScale := c.scales[len(c.scales)-1].scale
	if c.warmup < 2*maxScale {
		c.warmup++
	} else {
		for i := range c.scales {
			c.observeScale(&c.scales[i])
		}
	}

	c.stats.Cycles++
	c.next = cpu.Unlimited
	if c.cycle < c.respondUntil {
		c.stats.ResponseCycles++
		c.next = cpu.Throttle{IssueWidth: 4, CachePorts: 1, IssueCurrentBudget: -1}
	}
	c.cycle++
	return c.next
}

// Name implements sim.Technique.
func (c *Controller) Name() string { return "wavelet-control" }

// Next implements sim.Technique.
func (c *Controller) Next() (cpu.Throttle, sim.Phantom) { return c.next, sim.Phantom{} }

// Observe implements sim.Technique.
func (c *Controller) Observe(obs *sim.Observation) { c.Step(obs.SensedAmps) }

// observeScale updates one scale's chain state and triggers the response
// when the chain reaches the configured repetitions.
func (c *Controller) observeScale(st *scaleState) {
	d := c.detail(st.scale)
	sign := 0
	switch {
	case d > st.threshold:
		sign = 1
	case d < -st.threshold:
		sign = -1
	}
	if sign == 0 {
		st.inEvent = false
		return
	}
	if st.inEvent && sign == st.lastSign {
		return // same crossing
	}
	st.inEvent = true
	c.stats.Events++

	// Chain if the sign alternates and the previous event is roughly a
	// scale-length ago (between s/2 and 2s cycles).
	gap := c.cycle - st.lastEventCycle
	if st.lastSign != 0 && sign != st.lastSign &&
		gap >= uint64(st.scale/2) && gap <= uint64(2*st.scale) {
		st.chain++
	} else {
		st.chain = 1
	}
	st.lastSign = sign
	st.lastEventCycle = c.cycle

	if st.chain >= c.cfg.Repetitions {
		until := c.cycle + uint64(c.cfg.ResponseCycles)
		if until > c.respondUntil {
			if c.cycle >= c.respondUntil {
				c.stats.Responses++
			}
			c.respondUntil = until
		}
		st.chain = 0
	}
}
