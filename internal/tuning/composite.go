package tuning

import (
	"repro/internal/cpu"
	"repro/internal/sim"
)

// DualBand applies resonance tuning to both resonances of a two-stage
// supply (Section 2.2): the medium-frequency controller runs at core
// clock, and the low-frequency controller runs on a decimated current
// stream — a slow averaging sensor feeding the same detector hardware at
// a coarser timebase, with response durations scaled back to processor
// cycles by the same factor. It implements sim.Technique.
type DualBand struct {
	medium *Controller
	low    *Controller
	factor int

	acc     float64
	n       int
	lowLeft int // processor cycles the current low response still covers
}

// NewDualBand builds the two controllers. medium runs per cycle; low is
// expressed in decimated units (its response times are multiplied by
// factor when applied to the pipeline).
func NewDualBand(medium, low Config, factor int) *DualBand {
	if factor < 1 {
		panic("tuning.NewDualBand: factor must be ≥ 1")
	}
	return &DualBand{medium: NewController(medium), low: NewController(low), factor: factor}
}

// Name implements sim.Technique.
func (t *DualBand) Name() string { return "dual-band-tuning" }

// Next implements sim.Technique: the stronger of the two bands'
// responses applies.
func (t *DualBand) Next() (cpu.Throttle, sim.Phantom) {
	r := t.medium.next
	if t.lowLeft > 0 && t.low.next.Level > r.Level {
		r = t.low.next
	}
	return r.Throttle, sim.Phantom{TargetAmps: r.PhantomTargetAmps}
}

// Observe implements sim.Technique.
func (t *DualBand) Observe(obs *sim.Observation) {
	t.medium.Step(obs.SensedAmps)
	t.acc += obs.SensedAmps
	t.n++
	if t.lowLeft > 0 {
		t.lowLeft--
	}
	if t.n >= t.factor {
		if t.low.Step(t.acc/float64(t.n)).Level != LevelNone {
			t.lowLeft = t.factor
		}
		t.acc, t.n = 0, 0
	}
}

// MediumStats returns the medium-band controller's statistics.
func (t *DualBand) MediumStats() Stats { return t.medium.Stats() }

// LowStats returns the low-band controller's statistics (cycle counts in
// decimated units).
func (t *DualBand) LowStats() Stats { return t.low.Stats() }

// PerDomain applies resonance tuning independently per supply domain of
// a multi-domain PDN: one controller per domain, each fed its own rail's
// sensed current, so a resonating domain is detected and answered even
// when the aggregate current looks calm (and vice versa — in-phase
// domains exciting the shared package tier raise every rail's swing,
// which each domain's detector sees in its own band). The pipeline is
// shared, so the strongest domain response drives the throttle and
// phantom request each cycle. It implements sim.Technique.
//
// Per-domain PhantomTargetAmps are expressed in aggregate core amps (the
// machine splits phantom current across domains by budget share), so the
// usual mid-level target works unchanged.
type PerDomain struct {
	ctrls []*Controller
}

// NewPerDomain builds one controller per domain configuration (at least
// one).
func NewPerDomain(cfgs []Config) *PerDomain {
	if len(cfgs) == 0 {
		panic("tuning.NewPerDomain: need at least one domain configuration")
	}
	t := &PerDomain{ctrls: make([]*Controller, len(cfgs))}
	for d, cfg := range cfgs {
		t.ctrls[d] = NewController(cfg)
	}
	return t
}

// Name implements sim.Technique.
func (t *PerDomain) Name() string { return "per-domain-tuning" }

// strongest returns the response of the domain with the highest level
// (the lowest-numbered such domain on a tie).
func (t *PerDomain) strongest() *Response {
	r := t.ctrls[0].next
	for _, c := range t.ctrls[1:] {
		if c.next.Level > r.Level {
			r = c.next
		}
	}
	return r
}

// Next implements sim.Technique: the strongest domain's response
// applies.
func (t *PerDomain) Next() (cpu.Throttle, sim.Phantom) {
	r := t.strongest()
	return r.Throttle, sim.Phantom{TargetAmps: r.PhantomTargetAmps}
}

// Observe implements sim.Technique: each controller sees its own
// domain's sensed current. On a single-domain machine (no PerDomain
// view) every controller falls back to the aggregate sensed current.
func (t *PerDomain) Observe(obs *sim.Observation) {
	for d, c := range t.ctrls {
		amps := obs.SensedAmps
		if pd := obs.PerDomain; pd != nil && d < len(pd.SensedAmps) {
			amps = pd.SensedAmps[d]
		}
		c.Step(amps)
	}
}

// DomainStats returns each domain controller's statistics.
func (t *PerDomain) DomainStats() []Stats {
	out := make([]Stats, len(t.ctrls))
	for d, c := range t.ctrls {
		out[d] = c.Stats()
	}
	return out
}

// TechStats reports the cycle accounting a sim.Result carries: controller
// cycles are per machine cycle (every controller observes each cycle
// exactly once), response cycles sum over domains so concurrent
// per-domain responses are visible in the aggregate.
func (t *PerDomain) TechStats() sim.TechStats {
	st := sim.TechStats{ControllerCycles: t.ctrls[0].stats.Cycles}
	for _, c := range t.ctrls {
		st.FirstLevelCycles += c.stats.FirstLevelCycles
		st.SecondLevelCycles += c.stats.SecondLevelCycles
	}
	st.ResponseCycles = st.FirstLevelCycles + st.SecondLevelCycles
	return st
}

// EventCount returns the summed resonant event count (for traces).
func (t *PerDomain) EventCount() int {
	n := 0
	for _, c := range t.ctrls {
		n += c.det.CountNow()
	}
	return n
}

// Level returns the strongest active response level (for traces).
func (t *PerDomain) Level() int { return int(t.strongest().Level) }
