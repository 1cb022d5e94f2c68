// Package damping implements pipeline damping (reference [14], Powell &
// Vijaykumar, ISCA 2003) as the paper's Section 5.3.2 evaluates it: the
// "always-on" frontend variant that bounds, using a-priori per-class
// current estimates, how much the current issued in one damping window
// (half a resonant period) may differ from the previous window.
//
// Each cycle the controller publishes an issue-current budget; the core
// issues instructions only while their summed estimated current fits. If
// the window would undershoot the previous one by more than δ even after
// issuing everything available, phantom operations make up the deficit,
// because letting the current collapse is itself a resonant variation.
//
// δ is expressed as an allowed peak-to-peak current variation in amps
// (the paper sets it relative to the resonant current variation
// threshold: 1×, 0.5×, 0.25×). Internally the window-sum bound is
// δ·W·Scale amp-cycles for a W-cycle window.
//
// Controller is the technique the simulation loop runs (sim.Technique).
// The make-up current Account computes for one cycle is injected on the
// following cycle, mirroring the one-cycle actuation lag of a real
// implementation, although the window ring records it in the cycle that
// computed it.
package damping

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// Config parameterises pipeline damping.
type Config struct {
	// WindowCycles is the damping window, half the resonant period
	// (50 cycles for the Table 1 supply).
	WindowCycles int
	// DeltaAmps is the allowed worst-case current variation (peak to
	// peak) over a resonant period.
	DeltaAmps float64
	// Scale converts DeltaAmps into the window-sum bound
	// DeltaAmps·WindowCycles·Scale. The physical square-wave equivalence
	// is Scale = 1 (a p-p swing of δ sustained across adjacent
	// half-period windows changes their sums by δ·W); smaller scales
	// damp harder. Zero means 1.
	Scale float64
	// LowerScale optionally loosens the undershoot (phantom make-up)
	// bound relative to Scale. Reference [14]'s frontend damping meters
	// instruction issue tightly but lets current fall at the pipeline's
	// natural drain rate, phantom-firing only on extreme collapses, so
	// its energy overhead is small. Zero means use Scale for both
	// sides.
	LowerScale float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.WindowCycles < 2:
		return fmt.Errorf("damping: window must be at least 2 cycles (got %d)", c.WindowCycles)
	case c.DeltaAmps <= 0:
		return fmt.Errorf("damping: delta must be positive (got %g)", c.DeltaAmps)
	case c.Scale < 0:
		return fmt.Errorf("damping: scale must be ≥ 0 (got %g)", c.Scale)
	case c.LowerScale < 0:
		return fmt.Errorf("damping: lower scale must be ≥ 0 (got %g)", c.LowerScale)
	}
	return nil
}

// boundAmpCycles returns the upper (issue) window-sum bound in amp-cycles.
func (c Config) boundAmpCycles() float64 {
	s := c.Scale
	if s == 0 {
		s = 1
	}
	return c.DeltaAmps * float64(c.WindowCycles) * s
}

// lowerBoundAmpCycles returns the undershoot bound in amp-cycles.
func (c Config) lowerBoundAmpCycles() float64 {
	s := c.LowerScale
	if s == 0 {
		return c.boundAmpCycles()
	}
	return c.DeltaAmps * float64(c.WindowCycles) * s
}

// Stats accumulates behaviour for the Table 5 analysis.
type Stats struct {
	Cycles          uint64
	ConstrainedCyc  uint64  // cycles whose budget bound below the machine's appetite is finite
	PhantomCycles   uint64  // cycles that needed phantom make-up current
	PhantomAmpTotal float64 // total phantom amps injected
}

// Controller implements the damping window accounting. Use Budget before
// the core's cycle to obtain the issue-current cap, then Account after it
// with the estimated current actually issued; as a sim.Technique, Next
// and Observe do exactly that.
type Controller struct {
	cfg        Config
	bound      float64
	lowerBound float64

	// ring holds the per-cycle issued-current estimates (including
	// phantom make-up) for the last 2·W cycles.
	ring   []float64
	pos    int
	filled int

	recentSum float64 // last W-1 entries plus nothing for this cycle yet
	priorSum  float64 // the W entries before those

	// pendingAmps is the make-up current Observe accounted last, which
	// Next injects on the following cycle.
	pendingAmps float64

	stats Stats
}

// New returns a damping controller. It panics on invalid configuration.
func New(cfg Config) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("damping.New: %v", err))
	}
	return &Controller{
		cfg:        cfg,
		bound:      cfg.boundAmpCycles(),
		lowerBound: cfg.lowerBoundAmpCycles(),
		ring:       make([]float64, 2*cfg.WindowCycles),
	}
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// bounds returns the allowed range for this cycle's issued-current
// estimate so that the window ending this cycle stays within ±bound of
// the adjacent previous window:
//
//	cur  = (recentSum − crossing) + est   (cycles t−W+1 … t)
//	prev = (priorSum − oldest) + crossing (cycles t−2W+1 … t−W)
func (c *Controller) bounds() (lo, hi float64) {
	w := c.cfg.WindowCycles
	oldest := c.ring[c.pos]
	crossing := c.ring[(c.pos+w)%len(c.ring)]
	prev := c.priorSum - oldest + crossing
	partial := c.recentSum - crossing
	return prev - c.lowerBound - partial, prev + c.bound - partial
}

// Budget returns the issue-current budget (amps) for the coming cycle and
// whether the budget is in force. During the initial 2·W warm-up cycles
// there is no previous window to compare against and issue is
// unconstrained.
func (c *Controller) Budget() (amps float64, limited bool) {
	if c.unconstrained() {
		return 0, false
	}
	_, hi := c.bounds()
	if hi < 0 {
		hi = 0
	}
	return hi, true
}

// unconstrained reports whether the controller is still warming up.
func (c *Controller) unconstrained() bool { return c.filled < 2*c.cfg.WindowCycles }

// Account records the estimated current actually issued this cycle and
// returns the phantom amps required to keep the window from undershooting
// the previous window by more than the bound.
func (c *Controller) Account(issuedEstAmps float64) (phantomAmps float64) {
	c.stats.Cycles++
	if !c.unconstrained() {
		lo, hi := c.bounds()
		if issuedEstAmps < lo {
			phantomAmps = lo - issuedEstAmps
			c.stats.PhantomCycles++
			c.stats.PhantomAmpTotal += phantomAmps
		}
		if hi < issuedEstAmps+phantomAmps+1e-12 {
			c.stats.ConstrainedCyc++
		}
	}
	c.push(issuedEstAmps + phantomAmps)
	return phantomAmps
}

// Name implements sim.Technique.
func (c *Controller) Name() string { return "pipeline-damping" }

// Next implements sim.Technique: the coming cycle's issue-current budget,
// plus the make-up current accounted on the cycle before.
func (c *Controller) Next() (cpu.Throttle, sim.Phantom) {
	th := cpu.Unlimited
	if amps, limited := c.Budget(); limited {
		th.IssueCurrentBudget = amps
	}
	ph := sim.Phantom{FireAmps: c.pendingAmps}
	c.pendingAmps = 0
	return th, ph
}

// Observe implements sim.Technique: it accounts the cycle's issued-current
// estimate and keeps the make-up current for the next cycle.
func (c *Controller) Observe(obs *sim.Observation) {
	c.pendingAmps = c.Account(obs.IssuedEstAmps)
}

// TechStats reports the cycle accounting a sim.Result carries (the
// Table 5 analysis).
func (c *Controller) TechStats() sim.TechStats {
	return sim.TechStats{ControllerCycles: c.stats.Cycles, ResponseCycles: c.stats.ConstrainedCyc}
}

// push advances the two rolling window sums with this cycle's estimate.
func (c *Controller) push(est float64) {
	w := c.cfg.WindowCycles
	n := 2 * w
	// The entry leaving the "prior" window entirely.
	oldest := c.ring[c.pos]
	// The entry crossing from "recent" into "prior" is w slots back.
	crossing := c.ring[(c.pos+w)%n]

	c.ring[c.pos] = est
	c.pos = (c.pos + 1) % n
	if c.filled < n {
		c.filled++
	}

	c.recentSum += est - crossing
	c.priorSum += crossing - oldest
}
