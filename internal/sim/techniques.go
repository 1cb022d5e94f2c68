package sim

import (
	"repro/internal/baselines/convctl"
	"repro/internal/baselines/damping"
	"repro/internal/baselines/voltctl"
	"repro/internal/baselines/wavelet"
	"repro/internal/cpu"
	"repro/internal/tuning"
)

// ResonanceTuning adapts the tuning controller (the paper's contribution)
// to the simulation loop: it senses core current and applies the
// two-tier response.
type ResonanceTuning struct {
	ctrl *tuning.Controller
	next *tuning.Response // the controller's latest response
}

// NewResonanceTuning returns the technique for the given configuration.
func NewResonanceTuning(cfg tuning.Config) *ResonanceTuning {
	return &ResonanceTuning{
		ctrl: tuning.NewController(cfg),
		next: &idleResponse,
	}
}

// idleResponse is what a tuning technique applies before its controller
// has observed a cycle. Like the controller's responses, it is only read.
var idleResponse = tuning.Response{Throttle: cpu.Unlimited}

// Name implements Technique.
func (t *ResonanceTuning) Name() string { return "resonance-tuning" }

// Next implements Technique.
func (t *ResonanceTuning) Next() (cpu.Throttle, Phantom) {
	return t.next.Throttle, Phantom{TargetAmps: t.next.PhantomTargetAmps}
}

// Observe implements Technique.
func (t *ResonanceTuning) Observe(obs *Observation) {
	t.next = t.ctrl.Step(obs.SensedAmps)
}

// Stats returns the controller statistics (Table 3 columns).
func (t *ResonanceTuning) Stats() tuning.Stats { return t.ctrl.Stats() }

// TechStats implements the Result accounting hook.
func (t *ResonanceTuning) TechStats() TechStats {
	st := t.ctrl.Stats()
	return TechStats{
		ControllerCycles:  st.Cycles,
		FirstLevelCycles:  st.FirstLevelCycles,
		SecondLevelCycles: st.SecondLevelCycles,
		ResponseCycles:    st.FirstLevelCycles + st.SecondLevelCycles,
	}
}

// EventCount returns the current resonant event count (for traces).
func (t *ResonanceTuning) EventCount() int { return t.ctrl.Detector().CountNow() }

// Level returns the active response level (for traces).
func (t *ResonanceTuning) Level() int { return int(t.next.Level) }

// VoltageControl adapts the technique of [10]: voltage-threshold sensing
// with stall / phantom-fire responses.
type VoltageControl struct {
	ctrl     *voltctl.Controller
	fireAmps float64
	next     voltctl.Response
}

// NewVoltageControl returns the technique; fireAmps is the current of
// phantom-firing the caches and functional units (power.PhantomFireAmps).
func NewVoltageControl(cfg voltctl.Config, fireAmps float64) *VoltageControl {
	return &VoltageControl{
		ctrl:     voltctl.New(cfg),
		fireAmps: fireAmps,
		next:     voltctl.Response{Throttle: cpu.Unlimited},
	}
}

// Name implements Technique.
func (t *VoltageControl) Name() string { return "voltage-control" }

// Next implements Technique.
func (t *VoltageControl) Next() (cpu.Throttle, Phantom) {
	var ph Phantom
	if t.next.PhantomFire {
		ph.FireAmps = t.fireAmps
	}
	return t.next.Throttle, ph
}

// Observe implements Technique.
func (t *VoltageControl) Observe(obs *Observation) {
	t.next = t.ctrl.Step(obs.DeviationVolts)
}

// Stats returns the controller statistics (Table 4 columns).
func (t *VoltageControl) Stats() voltctl.Stats { return t.ctrl.Stats() }

// TechStats implements the Result accounting hook.
func (t *VoltageControl) TechStats() TechStats {
	st := t.ctrl.Stats()
	return TechStats{ControllerCycles: st.Cycles, ResponseCycles: st.ResponseCycles}
}

// Level reports 1 while responding (for traces).
func (t *VoltageControl) Level() int {
	if t.next.InResponse {
		return 1
	}
	return 0
}

// Damping adapts pipeline damping [14]: a per-cycle issue-current budget
// derived from a-priori class estimates, with phantom make-up current
// when the window undershoots. The make-up current computed for a cycle
// is injected on the following cycle, mirroring the one-cycle actuation
// lag of a real implementation.
type Damping struct {
	ctrl        *damping.Controller
	pendingAmps float64
}

// NewDamping returns the technique for the given configuration.
func NewDamping(cfg damping.Config) *Damping {
	return &Damping{ctrl: damping.New(cfg)}
}

// Name implements Technique.
func (t *Damping) Name() string { return "pipeline-damping" }

// Next implements Technique.
func (t *Damping) Next() (cpu.Throttle, Phantom) {
	th := cpu.Unlimited
	if amps, limited := t.ctrl.Budget(); limited {
		th.IssueCurrentBudget = amps
	}
	ph := Phantom{FireAmps: t.pendingAmps}
	t.pendingAmps = 0
	return th, ph
}

// Observe implements Technique.
func (t *Damping) Observe(obs *Observation) {
	t.pendingAmps = t.ctrl.Account(obs.IssuedEstAmps)
}

// Stats returns the controller statistics (Table 5 analysis).
func (t *Damping) Stats() damping.Stats { return t.ctrl.Stats() }

// TechStats implements the Result accounting hook.
func (t *Damping) TechStats() TechStats {
	st := t.ctrl.Stats()
	return TechStats{ControllerCycles: st.Cycles, ResponseCycles: st.ConstrainedCyc}
}

// ConvolutionControl adapts the convolution-prediction technique of [8]:
// predict the supply deviation by convolving the current history with the
// supply's impulse response, and stall or phantom-fire on threatening
// predictions.
type ConvolutionControl struct {
	ctrl     *convctl.Controller
	fireAmps float64
	next     convctl.Response
}

// NewConvolutionControl returns the technique; fireAmps is the
// phantom-fire current (power.PhantomFireAmps).
func NewConvolutionControl(cfg convctl.Config, fireAmps float64) *ConvolutionControl {
	return &ConvolutionControl{
		ctrl:     convctl.New(cfg),
		fireAmps: fireAmps,
		next:     convctl.Response{Throttle: cpu.Unlimited},
	}
}

// Name implements Technique.
func (t *ConvolutionControl) Name() string { return "convolution-control" }

// Next implements Technique.
func (t *ConvolutionControl) Next() (cpu.Throttle, Phantom) {
	var ph Phantom
	if t.next.PhantomFire {
		ph.FireAmps = t.fireAmps
	}
	return t.next.Throttle, ph
}

// Observe implements Technique.
func (t *ConvolutionControl) Observe(obs *Observation) {
	t.next = t.ctrl.Step(obs.TotalAmps, obs.DeviationVolts)
}

// Stats returns the controller statistics.
func (t *ConvolutionControl) Stats() convctl.Stats { return t.ctrl.Stats() }

// WaveletControl adapts the Haar-wavelet detector in the spirit of [11]:
// dyadic-scale detail coefficients of the sensed current trigger a
// half-width response on repeated alternating events.
type WaveletControl struct {
	ctrl *wavelet.Controller
	next cpu.Throttle
}

// NewWaveletControl returns the technique.
func NewWaveletControl(cfg wavelet.Config) *WaveletControl {
	return &WaveletControl{ctrl: wavelet.New(cfg), next: cpu.Unlimited}
}

// Name implements Technique.
func (t *WaveletControl) Name() string { return "wavelet-control" }

// Next implements Technique.
func (t *WaveletControl) Next() (cpu.Throttle, Phantom) { return t.next, Phantom{} }

// Observe implements Technique.
func (t *WaveletControl) Observe(obs *Observation) {
	t.next = t.ctrl.Step(obs.SensedAmps)
}

// Stats returns the controller statistics.
func (t *WaveletControl) Stats() wavelet.Stats { return t.ctrl.Stats() }

// DualBandTuning applies resonance tuning to both resonances of a
// two-stage supply (Section 2.2): the medium-frequency controller runs at
// core clock, and the low-frequency controller runs on a decimated
// current stream — a slow averaging sensor feeding the same detector
// hardware at a coarser timebase, with response durations scaled back to
// processor cycles by the same factor.
type DualBandTuning struct {
	medium *tuning.Controller
	low    *tuning.Controller
	factor int

	acc     float64
	n       int
	nextMed *tuning.Response
	nextLow *tuning.Response
	lowLeft int // processor cycles the current low response still covers
}

// NewDualBandTuning builds the two controllers. mediumCfg runs per cycle;
// lowCfg is expressed in decimated units (its response times are
// multiplied by factor when applied to the pipeline).
func NewDualBandTuning(mediumCfg, lowCfg tuning.Config, factor int) *DualBandTuning {
	if factor < 1 {
		panic("sim.NewDualBandTuning: factor must be ≥ 1")
	}
	return &DualBandTuning{
		medium:  tuning.NewController(mediumCfg),
		low:     tuning.NewController(lowCfg),
		factor:  factor,
		nextMed: &idleResponse,
		nextLow: &idleResponse,
	}
}

// Name implements Technique.
func (t *DualBandTuning) Name() string { return "dual-band-tuning" }

// Next implements Technique: the stronger of the two bands' responses
// applies.
func (t *DualBandTuning) Next() (cpu.Throttle, Phantom) {
	r := t.nextMed
	if t.lowLeft > 0 && t.nextLow.Level > r.Level {
		r = t.nextLow
	}
	return r.Throttle, Phantom{TargetAmps: r.PhantomTargetAmps}
}

// Observe implements Technique.
func (t *DualBandTuning) Observe(obs *Observation) {
	t.nextMed = t.medium.Step(obs.SensedAmps)
	t.acc += obs.SensedAmps
	t.n++
	if t.lowLeft > 0 {
		t.lowLeft--
	}
	if t.n >= t.factor {
		t.nextLow = t.low.Step(t.acc / float64(t.n))
		t.acc, t.n = 0, 0
		if t.nextLow.Level != tuning.LevelNone {
			t.lowLeft = t.factor
		}
	}
}

// MediumStats and LowStats expose the two controllers' statistics.
func (t *DualBandTuning) MediumStats() tuning.Stats { return t.medium.Stats() }

// LowStats returns the low-band controller's statistics (cycle counts in
// decimated units).
func (t *DualBandTuning) LowStats() tuning.Stats { return t.low.Stats() }

// PerDomainTuning applies resonance tuning independently per supply
// domain of a multi-domain PDN: one controller per domain, each fed its
// own rail's sensed current, so a resonating domain is detected and
// answered even when the aggregate current looks calm (and vice versa —
// in-phase domains exciting the shared package tier raise every rail's
// swing, which each domain's detector sees in its own band). The
// pipeline is shared, so the strongest domain response drives the
// throttle and phantom request each cycle.
//
// Per-domain PhantomTargetAmps are expressed in aggregate core amps (the
// machine splits phantom current across domains by budget share), so the
// usual mid-level target works unchanged.
type PerDomainTuning struct {
	ctrls []*tuning.Controller
	next  []*tuning.Response
}

// NewPerDomainTuning builds one controller per domain configuration (at
// least one).
func NewPerDomainTuning(cfgs []tuning.Config) *PerDomainTuning {
	if len(cfgs) == 0 {
		panic("sim.NewPerDomainTuning: need at least one domain configuration")
	}
	t := &PerDomainTuning{
		ctrls: make([]*tuning.Controller, len(cfgs)),
		next:  make([]*tuning.Response, len(cfgs)),
	}
	for d, cfg := range cfgs {
		t.ctrls[d] = tuning.NewController(cfg)
		t.next[d] = &idleResponse
	}
	return t
}

// Name implements Technique.
func (t *PerDomainTuning) Name() string { return "per-domain-tuning" }

// Next implements Technique: the strongest domain's response applies.
func (t *PerDomainTuning) Next() (cpu.Throttle, Phantom) {
	r := t.next[0]
	for _, n := range t.next[1:] {
		if n.Level > r.Level {
			r = n
		}
	}
	return r.Throttle, Phantom{TargetAmps: r.PhantomTargetAmps}
}

// Observe implements Technique: each controller sees its own domain's
// sensed current. On a single-domain machine (no PerDomain view) every
// controller falls back to the aggregate sensed current.
func (t *PerDomainTuning) Observe(obs *Observation) {
	if pd := obs.PerDomain; pd != nil {
		for d := range t.ctrls {
			amps := obs.SensedAmps
			if d < len(pd.SensedAmps) {
				amps = pd.SensedAmps[d]
			}
			t.next[d] = t.ctrls[d].Step(amps)
		}
		return
	}
	for d := range t.ctrls {
		t.next[d] = t.ctrls[d].Step(obs.SensedAmps)
	}
}

// DomainStats returns each domain controller's statistics.
func (t *PerDomainTuning) DomainStats() []tuning.Stats {
	out := make([]tuning.Stats, len(t.ctrls))
	for d, c := range t.ctrls {
		out[d] = c.Stats()
	}
	return out
}

// TechStats implements the Result accounting hook: controller cycles are
// per machine cycle (every controller observes each cycle exactly once),
// response cycles sum over domains so concurrent per-domain responses
// are visible in the aggregate.
func (t *PerDomainTuning) TechStats() TechStats {
	st := TechStats{ControllerCycles: t.ctrls[0].Stats().Cycles}
	for _, c := range t.ctrls {
		s := c.Stats()
		st.FirstLevelCycles += s.FirstLevelCycles
		st.SecondLevelCycles += s.SecondLevelCycles
	}
	st.ResponseCycles = st.FirstLevelCycles + st.SecondLevelCycles
	return st
}

// EventCount returns the summed resonant event count (for traces).
func (t *PerDomainTuning) EventCount() int {
	n := 0
	for _, c := range t.ctrls {
		n += c.Detector().CountNow()
	}
	return n
}

// Level returns the strongest active response level (for traces).
func (t *PerDomainTuning) Level() int {
	lv := tuning.LevelNone
	for _, n := range t.next {
		if n.Level > lv {
			lv = n.Level
		}
	}
	return int(lv)
}
