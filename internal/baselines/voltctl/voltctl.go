// Package voltctl implements the inductive-noise control technique of
// reference [10] (Joseph, Brooks & Martonosi, HPCA 2003) as the paper's
// Section 5.3.1 evaluates it: a supply-voltage sensor with a detection
// threshold, optional peak-to-peak sensor noise and sensing/actuation
// delay, and an immediate two-sided response — stall fetch and issue when
// the voltage swings low, phantom-fire the L1 caches and functional units
// when it swings high.
//
// Because the scheme reacts to every threshold crossing, it also reacts
// to harmless off-band variations and to ringing echoes of past events;
// the paper's central critique is that those false alarms, plus the need
// for fast fine-grained sensors, make the technique expensive. The noise
// and delay parameters reproduce the Table 4 sweep.
//
// Controller is the technique the simulation loop runs (sim.Technique):
// it senses the cycle's supply deviation, and its phantom-fire response
// injects the current New is given.
package voltctl

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/sensor"
	"repro/internal/sim"
)

// Config parameterises the technique.
type Config struct {
	// TargetThresholdVolts is the designed detection threshold (half of
	// [10]'s "safe window"; 20-30 mV in Table 4).
	TargetThresholdVolts float64
	// SensorNoiseVolts is the peak-to-peak sensor noise (0-15 mV).
	SensorNoiseVolts float64
	// SensorDelayCycles is the sensing/actuation delay (0-5 cycles).
	SensorDelayCycles int
	// Seed seeds the deterministic sensor-noise generator.
	Seed uint64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.TargetThresholdVolts <= 0:
		return fmt.Errorf("voltctl: target threshold must be positive (got %g)", c.TargetThresholdVolts)
	case c.SensorNoiseVolts < 0:
		return fmt.Errorf("voltctl: sensor noise must be ≥ 0 (got %g)", c.SensorNoiseVolts)
	case c.SensorDelayCycles < 0:
		return fmt.Errorf("voltctl: sensor delay must be ≥ 0 (got %d)", c.SensorDelayCycles)
	}
	return nil
}

// ActualThresholdVolts returns the usable threshold once sensor noise is
// subtracted (Table 4's third column).
func (c Config) ActualThresholdVolts() float64 {
	return sensor.EffectiveThreshold(c.TargetThresholdVolts, c.SensorNoiseVolts)
}

// Response is the control decision for the next cycle.
type Response struct {
	// Throttle stalls fetch and issue when the supply voltage sagged
	// below the threshold.
	Throttle cpu.Throttle
	// PhantomFire requests firing idle units to burn current when the
	// voltage overshot above the threshold.
	PhantomFire bool
	// InResponse reports whether either response is active.
	InResponse bool
}

// Stats accumulates behaviour for the Table 4 columns.
type Stats struct {
	Cycles         uint64
	ResponseCycles uint64
	LowResponses   uint64 // cycles stalling (voltage low)
	HighResponses  uint64 // cycles phantom-firing (voltage high)
}

// ResponseFraction returns the fraction of cycles spent responding.
func (s Stats) ResponseFraction() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ResponseCycles) / float64(s.Cycles)
}

// Controller drives the technique; feed it the true supply deviation once
// per cycle. As a sim.Technique, Observe steps it on the cycle's
// deviation and Next applies the response Step chose last.
type Controller struct {
	cfg      Config
	sens     *sensor.Voltage
	fireAmps float64
	next     Response
	stats    Stats
}

// New returns a controller; fireAmps is the current of phantom-firing
// the caches and functional units (power.PhantomFireAmps), injected on
// cycles the high-voltage response holds. It panics on an invalid
// configuration.
func New(cfg Config, fireAmps float64) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("voltctl.New: %v", err))
	}
	return &Controller{
		cfg:      cfg,
		sens:     sensor.NewVoltage(cfg.SensorNoiseVolts, cfg.SensorDelayCycles, cfg.Seed),
		fireAmps: fireAmps,
		next:     Response{Throttle: cpu.Unlimited},
	}
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// Step consumes the cycle's true supply deviation (volts) and returns the
// response to apply next cycle.
func (c *Controller) Step(trueDeviationVolts float64) Response {
	sensed := c.sens.Read(trueDeviationVolts)
	thr := c.cfg.ActualThresholdVolts()
	c.stats.Cycles++
	switch {
	case sensed < -thr:
		c.stats.ResponseCycles++
		c.stats.LowResponses++
		c.next = Response{
			Throttle:   cpu.Throttle{StallIssue: true, StallFetch: true, IssueCurrentBudget: -1},
			InResponse: true,
		}
	case sensed > thr:
		c.stats.ResponseCycles++
		c.stats.HighResponses++
		c.next = Response{
			Throttle:    cpu.Unlimited,
			PhantomFire: true,
			InResponse:  true,
		}
	default:
		c.next = Response{Throttle: cpu.Unlimited}
	}
	return c.next
}

// Name implements sim.Technique.
func (c *Controller) Name() string { return "voltage-control" }

// Next implements sim.Technique.
func (c *Controller) Next() (cpu.Throttle, sim.Phantom) {
	var ph sim.Phantom
	if c.next.PhantomFire {
		ph.FireAmps = c.fireAmps
	}
	return c.next.Throttle, ph
}

// Observe implements sim.Technique.
func (c *Controller) Observe(obs *sim.Observation) { c.Step(obs.DeviationVolts) }

// TechStats reports the cycle accounting a sim.Result carries (the
// Table 4 columns).
func (c *Controller) TechStats() sim.TechStats {
	return sim.TechStats{ControllerCycles: c.stats.Cycles, ResponseCycles: c.stats.ResponseCycles}
}

// Level reports 1 while responding (for traces).
func (c *Controller) Level() int {
	if c.next.InResponse {
		return 1
	}
	return 0
}
