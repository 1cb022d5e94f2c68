package tuning

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/sim"
)

// Config parameterises the full resonance-tuning mechanism: the detector
// plus the two-tier response of Section 3.2.
type Config struct {
	Detector DetectorConfig

	// InitialResponseThreshold is the resonant event count at which the
	// first-level response engages (2 in the paper's evaluation).
	InitialResponseThreshold int
	// SecondResponseThreshold is the count at which the second-level
	// response engages; it must stay below the maximum repetition
	// tolerance to guarantee no violation (3 in the paper).
	SecondResponseThreshold int

	// InitialResponseCycles is how long the first-level response holds
	// (the paper sweeps 75–200).
	InitialResponseCycles int
	// SecondResponseCycles is how long the second-level response holds;
	// it is sized from the supply's damping rate so the event count
	// decays by one (35 in the paper).
	SecondResponseCycles int

	// ReducedIssueWidth and ReducedCachePorts define the first-level
	// response (8→4 and 2→1 in the paper).
	ReducedIssueWidth int
	ReducedCachePorts int

	// ResponseDelayCycles models the lag between detection and the
	// response taking effect (Section 5.2 evaluates 5 cycles).
	ResponseDelayCycles int

	// PhantomTargetAmps is the medium current level the second-level
	// response holds with phantom operations.
	PhantomTargetAmps float64
}

// FromSupply assembles the paper's default tuning configuration for a
// supply and its calibration: initial response threshold 2, second-level
// threshold one below the repetition tolerance, first-level response of
// half issue width and one cache port for initialCycles, and a
// second-level hold derived from the damping rate (with a few cycles of
// engineering margin, as the paper rounds 32 up to 35).
func FromSupply(p circuit.Params, cal circuit.Calibration, cc cpu.Config, initialCycles int, phantomTarget float64) Config {
	det := DetectorFromSupply(p, cal)
	second := cal.MaxRepetitionTolerance - 1
	initial := second - 1
	if initial < 1 {
		initial = 1
	}
	return Config{
		Detector:                 det,
		InitialResponseThreshold: initial,
		SecondResponseThreshold:  second,
		InitialResponseCycles:    initialCycles,
		SecondResponseCycles:     circuit.DissipationCycles(p, cal.MaxRepetitionTolerance) + 3,
		ReducedIssueWidth:        cc.IssueWidth / 2,
		ReducedCachePorts:        cc.CachePorts / 2,
		PhantomTargetAmps:        phantomTarget,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Detector.Validate(); err != nil {
		return err
	}
	switch {
	case c.InitialResponseThreshold < 1:
		return fmt.Errorf("tuning: initial response threshold must be ≥ 1 (got %d)", c.InitialResponseThreshold)
	case c.SecondResponseThreshold <= c.InitialResponseThreshold:
		return fmt.Errorf("tuning: second threshold (%d) must exceed initial (%d)",
			c.SecondResponseThreshold, c.InitialResponseThreshold)
	case c.SecondResponseThreshold >= c.Detector.MaxRepetitionTolerance+1:
		return fmt.Errorf("tuning: second threshold (%d) must stay below violation count (%d)",
			c.SecondResponseThreshold, c.Detector.MaxRepetitionTolerance+1)
	case c.InitialResponseCycles <= 0 || c.SecondResponseCycles <= 0:
		return fmt.Errorf("tuning: response times must be positive (%d, %d)",
			c.InitialResponseCycles, c.SecondResponseCycles)
	case c.ReducedIssueWidth < 1 || c.ReducedCachePorts < 1:
		return fmt.Errorf("tuning: reduced widths must be ≥ 1 (%d, %d)",
			c.ReducedIssueWidth, c.ReducedCachePorts)
	case c.ResponseDelayCycles < 0:
		return fmt.Errorf("tuning: response delay must be ≥ 0 (got %d)", c.ResponseDelayCycles)
	case c.PhantomTargetAmps < 0:
		return fmt.Errorf("tuning: phantom target must be ≥ 0 (got %g)", c.PhantomTargetAmps)
	}
	return nil
}

// Level identifies the active response tier.
type Level int

// Response levels.
const (
	LevelNone   Level = 0
	LevelFirst  Level = 1
	LevelSecond Level = 2
)

// Response is the controller's output for the next cycle.
type Response struct {
	Level Level
	// Throttle is the pipeline control to apply.
	Throttle cpu.Throttle
	// PhantomTargetAmps, when positive, asks the simulator to top up
	// the core current to this level with phantom operations.
	PhantomTargetAmps float64
}

// Stats accumulates controller behaviour for the Table 3 columns.
type Stats struct {
	Cycles            uint64
	FirstLevelCycles  uint64
	SecondLevelCycles uint64
	FirstLevelFires   uint64
	SecondLevelFires  uint64
	EventsDetected    uint64
}

// FirstLevelFraction returns the fraction of cycles spent in first-level
// response.
func (s Stats) FirstLevelFraction() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.FirstLevelCycles) / float64(s.Cycles)
}

// SecondLevelFraction returns the fraction of cycles spent in
// second-level response.
func (s Stats) SecondLevelFraction() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.SecondLevelCycles) / float64(s.Cycles)
}

// Controller drives resonance tuning: it consumes one sensed current
// sample per cycle and produces the throttle for the next cycle. It is
// the resonance-tuning technique of the simulation loop itself
// (sim.Technique): Observe steps it on the cycle's sensed current, and
// Next applies the response Step chose last.
type Controller struct {
	cfg Config
	det *Detector

	cycle       uint64
	level1Until uint64
	level2Until uint64
	pendingL1At uint64 // scheduled engagement cycles (response delay)
	pendingL2At uint64
	pendingL1   bool
	pendingL2   bool
	stats       Stats

	// The three possible responses, precomputed from cfg so Step's hot
	// path picks one instead of rebuilding a struct every cycle, and the
	// one Step chose last (respNone, no throttle and no phantom current,
	// before the first cycle).
	respNone, respL1, respL2 Response
	next                     *Response
}

// NewController returns a controller for the given configuration. It
// panics if the configuration is invalid.
func NewController(cfg Config) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("tuning.NewController: %v", err))
	}
	c := &Controller{
		cfg:      cfg,
		det:      NewDetector(cfg.Detector),
		respNone: Response{Level: LevelNone, Throttle: cpu.Unlimited},
		respL1: Response{
			Level: LevelFirst,
			Throttle: cpu.Throttle{
				IssueWidth:         cfg.ReducedIssueWidth,
				CachePorts:         cfg.ReducedCachePorts,
				IssueCurrentBudget: -1,
			},
		},
		respL2: Response{
			Level:             LevelSecond,
			Throttle:          cpu.Throttle{StallIssue: true, IssueCurrentBudget: -1},
			PhantomTargetAmps: cfg.PhantomTargetAmps,
		},
	}
	c.next = &c.respNone
	return c
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns the accumulated statistics.
func (c *Controller) Stats() Stats {
	s := c.stats
	s.EventsDetected = c.det.EventsDetected()
	return s
}

// Step consumes the sensed core current for the cycle just simulated and
// returns the response to apply next cycle. The response is one of the
// controller's own, fixed when NewController built them: callers read it
// and must not modify it.
func (c *Controller) Step(sensedAmps float64) *Response {
	ev, found := c.det.Step(sensedAmps)
	if found {
		// Keep the earliest scheduled engagement: later events must not
		// postpone a response already in flight.
		switch {
		case ev.Count >= c.cfg.SecondResponseThreshold:
			if !c.pendingL2 {
				c.pendingL2 = true
				c.pendingL2At = c.cycle + uint64(c.cfg.ResponseDelayCycles)
			}
		case ev.Count >= c.cfg.InitialResponseThreshold:
			if !c.pendingL1 {
				c.pendingL1 = true
				c.pendingL1At = c.cycle + uint64(c.cfg.ResponseDelayCycles)
			}
		}
	}
	if c.pendingL2 && c.cycle >= c.pendingL2At {
		c.pendingL2 = false
		c.level2Until = c.cycle + uint64(c.cfg.SecondResponseCycles)
		c.stats.SecondLevelFires++
	}
	if c.pendingL1 && c.cycle >= c.pendingL1At {
		c.pendingL1 = false
		c.level1Until = c.cycle + uint64(c.cfg.InitialResponseCycles)
		c.stats.FirstLevelFires++
	}

	resp := &c.respNone
	switch {
	case c.cycle < c.level2Until:
		resp = &c.respL2
		c.stats.SecondLevelCycles++
	case c.cycle < c.level1Until:
		resp = &c.respL1
		c.stats.FirstLevelCycles++
	}
	c.stats.Cycles++
	c.cycle++
	c.next = resp
	return resp
}

// Name implements sim.Technique.
func (c *Controller) Name() string { return "resonance-tuning" }

// Next implements sim.Technique: the response Step chose last applies to
// the coming cycle.
func (c *Controller) Next() (cpu.Throttle, sim.Phantom) {
	return c.next.Throttle, sim.Phantom{TargetAmps: c.next.PhantomTargetAmps}
}

// Observe implements sim.Technique: the controller steps on the cycle's
// sensed core current.
func (c *Controller) Observe(obs *sim.Observation) { c.Step(obs.SensedAmps) }

// TechStats reports the cycle accounting a sim.Result carries (the
// Table 3 columns).
func (c *Controller) TechStats() sim.TechStats {
	return sim.TechStats{
		ControllerCycles:  c.stats.Cycles,
		FirstLevelCycles:  c.stats.FirstLevelCycles,
		SecondLevelCycles: c.stats.SecondLevelCycles,
		ResponseCycles:    c.stats.FirstLevelCycles + c.stats.SecondLevelCycles,
	}
}

// EventCount returns the current resonant event count (for traces).
func (c *Controller) EventCount() int { return c.det.CountNow() }

// Level returns the active response level (for traces).
func (c *Controller) Level() int { return int(c.next.Level) }
