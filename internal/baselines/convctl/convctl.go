// Package convctl implements the convolution-based di/dt controller of
// reference [8] (Grochowski, Ayers & Tiwari, HPCA 2002) that the paper
// critiques in Sections 1 and 6: convolve the recent processor-current
// history with the power-supply's voltage impulse response to predict the
// supply deviation a few cycles ahead, and throttle or phantom-fire when
// the prediction crosses a threshold.
//
// The scheme's conceptual appeal is an exact model-based prediction; the
// paper's critique is practical: it needs an accurate a-priori current
// estimate and a full convolution every cycle (hundreds of multiply-
// accumulates at resonance-period time scales), which is hard to build in
// hardware. In simulation the convolution is merely expensive, so this
// package exists to reproduce the comparison, with the impulse response
// derived from the same simulated supply the rest of the repo uses.
//
// Controller is the technique the simulation loop runs (sim.Technique):
// it observes the cycle's true core current, and its phantom-fire
// response injects the current New is given.
package convctl

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Config parameterises the controller.
type Config struct {
	// Supply is the power-distribution network whose impulse response
	// drives the prediction.
	Supply circuit.Params
	// Taps is the impulse-response length in cycles; zero derives it
	// from the supply (enough periods for the response to decay below
	// 1% of its peak).
	Taps int
	// ThresholdVolts is the predicted-deviation magnitude that triggers
	// a response; zero means 60% of the noise margin.
	ThresholdVolts float64
	// Horizon is how many cycles ahead the prediction looks; zero
	// means 4 (the scheme must act before the deviation materialises).
	Horizon int
	// EstimateErrorAmps models [8]'s real weakness: the convolution
	// consumes a-priori current *estimates*, not measurements, and
	// instruction-based estimates miss cache and gating behaviour by
	// whole amps. Each recorded variation carries an additive uniform
	// error of ±this many amps. Zero means perfect estimates.
	EstimateErrorAmps float64
	// Seed seeds the estimate-error generator.
	Seed uint64
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

// withDefaults resolves zero fields.
func (c Config) withDefaults() (Config, error) {
	if err := c.Supply.Validate(); err != nil {
		return c, err
	}
	if !c.Supply.Underdamped() {
		return c, fmt.Errorf("convctl: overdamped supply needs no control")
	}
	if c.ThresholdVolts == 0 {
		c.ThresholdVolts = 0.6 * c.Supply.NoiseMarginVolts()
	}
	if c.ThresholdVolts <= 0 {
		return c, fmt.Errorf("convctl: threshold must be positive (got %g)", c.ThresholdVolts)
	}
	if c.Horizon == 0 {
		c.Horizon = 4
	}
	if c.Horizon < 1 {
		return c, fmt.Errorf("convctl: horizon must be ≥ 1 (got %d)", c.Horizon)
	}
	if c.Taps == 0 {
		taps, err := deriveTaps(c.Supply)
		if err != nil {
			return c, err
		}
		c.Taps = taps
	}
	if c.Taps < 8 {
		return c, fmt.Errorf("convctl: too few taps (%d)", c.Taps)
	}
	if c.EstimateErrorAmps < 0 {
		return c, fmt.Errorf("convctl: estimate error must be ≥ 0 (got %g)", c.EstimateErrorAmps)
	}
	return c, nil
}

// maxImpulseCycles bounds the impulse response deriveTaps simulates,
// eight resonant periods of the supply (about 800 cycles for Table 1).
// A clock many orders of magnitude above the resonance would otherwise
// ask for gigabytes, or for a length past the int range.
const maxImpulseCycles = 1 << 20

// deriveTaps finds how many cycles the deviation impulse response needs
// before it decays below 1% of its peak.
func deriveTaps(p circuit.Params) (int, error) {
	n := 8 * p.ResonantPeriodCycles()
	if !(n >= 1 && n <= maxImpulseCycles) {
		return 0, fmt.Errorf("convctl: deriving taps needs an impulse response of %g cycles, outside [1, %d]", n, maxImpulseCycles)
	}
	h := ImpulseResponse(p, int(n))
	peak := 0.0
	for _, v := range h {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	last := len(h)
	for last > 8 {
		if math.Abs(h[last-1]) > peak/100 {
			break
		}
		last--
	}
	return last, nil
}

// ImpulseResponse simulates the supply's reported-deviation response to a
// one-amp, one-cycle current pulse on top of a steady bias. By linearity
// (see the circuit package's superposition tests), the deviation under
// any current waveform is the convolution of this response with the
// waveform's variation around the bias.
func ImpulseResponse(p circuit.Params, n int) []float64 {
	bias := (p.IMax + p.IMin) / 2
	sim := circuit.NewSimulator(p, bias)
	h := make([]float64, n)
	h[0] = sim.Step(bias + 1)
	for k := 1; k < n; k++ {
		h[k] = sim.Step(bias)
	}
	return h
}

// Response is the control decision for the next cycle.
type Response struct {
	// Throttle stalls fetch and issue when the predicted deviation
	// undershoots the threshold.
	Throttle cpu.Throttle
	// PhantomFire requests burning current when the prediction
	// overshoots.
	PhantomFire bool
	// InResponse reports whether either action is active.
	InResponse bool
	// PredictedVolts is the deviation predicted Horizon cycles ahead.
	PredictedVolts float64
}

// Stats accumulates controller behaviour.
type Stats struct {
	Cycles         uint64
	ResponseCycles uint64
	LowResponses   uint64
	HighResponses  uint64
	// WorstAbsError tracks |predicted − actual| for the prediction made
	// Horizon cycles earlier, a measure of how good the model-based
	// prediction is.
	WorstAbsError float64
}

// ResponseFraction returns the fraction of cycles spent responding.
func (s Stats) ResponseFraction() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ResponseCycles) / float64(s.Cycles)
}

// Controller predicts the supply deviation by rolling convolution and
// reacts when the prediction crosses the threshold. As a sim.Technique,
// Observe steps it on the cycle's current and deviation and Next applies
// the response Step chose last.
type Controller struct {
	cfg      Config
	h        []float64 // impulse response, h[0] most recent
	bias     float64
	fireAmps float64
	next     Response

	hist []float64 // current-variation history ring, most recent at pos
	pos  int
	n    int

	pendingPred []float64 // predictions awaiting their actual, ring
	pendingPos  int

	errRng *rng.Source

	stats Stats
}

// New returns a controller; fireAmps is the phantom-fire current
// (power.PhantomFireAmps), injected on cycles the overshoot response
// holds. It panics on an invalid configuration, mirroring the other
// technique constructors.
func New(cfg Config, fireAmps float64) *Controller {
	resolved, err := cfg.withDefaults()
	if err != nil {
		panic(fmt.Sprintf("convctl.New: %v", err))
	}
	return &Controller{
		cfg:         resolved,
		h:           ImpulseResponse(resolved.Supply, resolved.Taps),
		bias:        (resolved.Supply.IMax + resolved.Supply.IMin) / 2,
		fireAmps:    fireAmps,
		next:        Response{Throttle: cpu.Unlimited},
		hist:        make([]float64, resolved.Taps),
		pendingPred: make([]float64, resolved.Horizon),
		errRng:      rng.New(resolved.Seed),
	}
}

// Config returns the resolved configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// predict convolves the history with the impulse response, assuming the
// current holds at its latest value for the prediction horizon.
func (c *Controller) predict() float64 {
	// Deviation at t+Horizon = Σ_k h[k] · Δi(t+Horizon-k). For k <
	// Horizon the future variation is assumed equal to the latest
	// sample; beyond that the recorded history applies.
	latest := c.hist[c.pos]
	v := 0.0
	for k := 0; k < c.cfg.Horizon && k < len(c.h); k++ {
		v += c.h[k] * latest
	}
	// rest[j] weighs the sample j cycles older than the latest: the
	// ring walked from pos down to its start, then from its end down.
	rest := c.h[min(c.cfg.Horizon, len(c.h)):]
	n := min(len(rest), c.pos+1)
	for j, hk := range rest[:n] {
		v += hk * c.hist[c.pos-j]
	}
	top := len(c.hist) - 1
	for j, hk := range rest[n:] {
		v += hk * c.hist[top-j]
	}
	return v
}

// Step consumes the cycle's actual core current and true deviation
// (used only for prediction-accuracy accounting) and returns the
// response for the next cycle.
func (c *Controller) Step(coreAmps, trueDeviation float64) Response {
	variation := coreAmps - c.bias
	if e := c.cfg.EstimateErrorAmps; e > 0 {
		variation += (2*c.errRng.Float64() - 1) * e
	}
	c.pos = (c.pos + 1) % len(c.hist)
	c.hist[c.pos] = variation
	if c.n < len(c.hist) {
		c.n++
	}

	pred := c.predict()

	// Prediction-accuracy bookkeeping: compare the prediction made
	// Horizon cycles ago with today's truth.
	old := c.pendingPred[c.pendingPos]
	c.pendingPred[c.pendingPos] = pred
	c.pendingPos = (c.pendingPos + 1) % len(c.pendingPred)
	if c.stats.Cycles >= uint64(len(c.pendingPred)+len(c.hist)) {
		if e := math.Abs(old - trueDeviation); e > c.stats.WorstAbsError {
			c.stats.WorstAbsError = e
		}
	}

	c.stats.Cycles++
	switch {
	case c.n < len(c.hist):
		// History still filling: no reliable prediction yet.
		c.next = Response{Throttle: cpu.Unlimited, PredictedVolts: pred}
	case pred < -c.cfg.ThresholdVolts:
		c.stats.ResponseCycles++
		c.stats.LowResponses++
		c.next = Response{
			Throttle:       cpu.Throttle{StallIssue: true, StallFetch: true, IssueCurrentBudget: -1},
			InResponse:     true,
			PredictedVolts: pred,
		}
	case pred > c.cfg.ThresholdVolts:
		c.stats.ResponseCycles++
		c.stats.HighResponses++
		c.next = Response{
			Throttle:       cpu.Unlimited,
			PhantomFire:    true,
			InResponse:     true,
			PredictedVolts: pred,
		}
	default:
		c.next = Response{Throttle: cpu.Unlimited, PredictedVolts: pred}
	}
	return c.next
}

// Name implements sim.Technique.
func (c *Controller) Name() string { return "convolution-control" }

// Next implements sim.Technique.
func (c *Controller) Next() (cpu.Throttle, sim.Phantom) {
	var ph sim.Phantom
	if c.next.PhantomFire {
		ph.FireAmps = c.fireAmps
	}
	return c.next.Throttle, ph
}

// Observe implements sim.Technique.
func (c *Controller) Observe(obs *sim.Observation) { c.Step(obs.TotalAmps, obs.DeviationVolts) }
