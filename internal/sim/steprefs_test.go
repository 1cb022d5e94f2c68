package sim

// Frozen reference loops for Machine.Step. Before the single- and
// multi-domain loops were folded into one, Step ran the single-domain
// arithmetic inline and handed multi-domain machines to a separate
// stepMulti. Both are kept here verbatim — except that they read the
// per-domain margins and statistics from Machine.dom — so the folded
// loop is pinned cycle by cycle against the exact operation order the
// goldens were produced with.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// refStep is the pre-fold Machine.Step.
func (m *Machine) refStep(throttle cpu.Throttle, ph Phantom) *Observation {
	if m.nd > 1 {
		return m.refStepMulti(throttle, ph)
	}
	act := &m.act
	m.core.StepInto(throttle, act)
	coreJ := m.pwr.Step(act, 0)
	coreAmps := m.pwr.CurrentAmps(coreJ)

	phantomAmps := 0.0
	switch {
	case ph.TargetAmps > 0 && coreAmps < ph.TargetAmps:
		phantomAmps = ph.TargetAmps - coreAmps
	case ph.FireAmps > 0:
		phantomAmps = ph.FireAmps
	}
	if phantomAmps > 0 {
		m.phantomJ += phantomAmps * m.cfg.Power.Vdd / m.cfg.Power.ClockHz
	}
	totalAmps := coreAmps + phantomAmps

	m.draws[0] = totalAmps
	m.net.Step(m.draws, m.devs)
	dev := m.devs[0]
	a := dev
	if a < 0 {
		a = -a
	}
	if a > m.peakDev {
		m.peakDev = a
	}
	if a > m.dom[0].margin {
		m.violation++
	}

	est := 0.0
	for cl := cpu.Class(0); cl < cpu.NumClasses; cl++ {
		if n := act.Issued[cl]; n > 0 {
			est += float64(n) * m.classAmps[cl]
		}
	}
	var sensed float64
	switch {
	case m.sens != nil:
		sensed = m.sens.Read(totalAmps)
	case m.resolution > 0:
		sensed = math.Round(totalAmps/m.resolution) * m.resolution
	default:
		sensed = totalAmps
	}

	m.sumAmps += totalAmps
	if totalAmps < m.minAmps {
		m.minAmps = totalAmps
	}
	if totalAmps > m.maxAmps {
		m.maxAmps = totalAmps
	}
	m.obs = Observation{
		Cycle:          m.cycles,
		SensedAmps:     sensed,
		TotalAmps:      totalAmps,
		DeviationVolts: dev,
		IssuedEstAmps:  est,
		Activity:       act,
	}
	m.cycles++
	return &m.obs
}

// refStepMulti is the pre-fold stepMulti.
func (m *Machine) refStepMulti(throttle cpu.Throttle, ph Phantom) *Observation {
	act := &m.act
	m.core.StepInto(throttle, act)
	coreJ := m.pwr.StepDomains(act, m.domJ)
	coreAmps := m.pwr.CurrentAmps(coreJ)

	phantomAmps := 0.0
	switch {
	case ph.TargetAmps > 0 && coreAmps < ph.TargetAmps:
		phantomAmps = ph.TargetAmps - coreAmps
	case ph.FireAmps > 0:
		phantomAmps = ph.FireAmps
	}
	if phantomAmps > 0 {
		m.phantomJ += phantomAmps * m.cfg.Power.Vdd / m.cfg.Power.ClockHz
	}
	totalAmps := coreAmps + phantomAmps

	for d := 0; d < m.nd; d++ {
		m.draws[d] = m.pwr.CurrentAmps(m.domJ[d]) + phantomAmps*m.domShare[d]
	}
	m.net.Step(m.draws, m.devs)

	worst, worstAbs := 0.0, -1.0
	anyViolation := false
	for d := 0; d < m.nd; d++ {
		dev := m.devs[d]
		a := math.Abs(dev)
		if a > m.dom[d].peak {
			m.dom[d].peak = a
		}
		if a > m.dom[d].margin {
			m.dom[d].violations++
			anyViolation = true
		}
		if a > worstAbs {
			worstAbs, worst = a, dev
		}
	}
	if worstAbs > m.peakDev {
		m.peakDev = worstAbs
	}
	if anyViolation {
		m.violation++
	}

	est := 0.0
	for cl := cpu.Class(0); cl < cpu.NumClasses; cl++ {
		if n := act.Issued[cl]; n > 0 {
			est += float64(n) * m.classAmps[cl]
		}
	}

	for d := 0; d < m.nd; d++ {
		m.domObs.SensedAmps[d] = m.bank.Read(d, m.draws[d])
		m.domObs.Amps[d] = m.draws[d]
		m.domObs.DeviationVolts[d] = m.devs[d]
		m.dom[d].sumAmps += m.draws[d]
	}
	var sensed float64
	switch {
	case m.sensorDomain > 0:
		sensed = m.domObs.SensedAmps[m.sensorDomain-1]
	case m.sens != nil:
		sensed = m.sens.Read(totalAmps)
	case m.resolution > 0:
		sensed = math.Round(totalAmps/m.resolution) * m.resolution
	default:
		sensed = totalAmps
	}

	m.sumAmps += totalAmps
	if totalAmps < m.minAmps {
		m.minAmps = totalAmps
	}
	if totalAmps > m.maxAmps {
		m.maxAmps = totalAmps
	}
	m.obs = Observation{
		Cycle:          m.cycles,
		SensedAmps:     sensed,
		TotalAmps:      totalAmps,
		DeviationVolts: worst,
		IssuedEstAmps:  est,
		Activity:       act,
		PerDomain:      &m.domObs,
	}
	m.cycles++
	return &m.obs
}

// scriptedControl cycles a machine through every control shape a
// technique can request — unthrottled, throttled with a phantom top-up
// target, a phantom fire, and a harder throttle — in 97-cycle phases.
func scriptedControl(cycle uint64) (cpu.Throttle, Phantom) {
	switch (cycle / 97) % 4 {
	case 0:
		return cpu.Unlimited, Phantom{}
	case 1:
		return cpu.Throttle{IssueWidth: 4, CachePorts: 1, IssueCurrentBudget: -1}, Phantom{TargetAmps: 70}
	case 2:
		return cpu.Unlimited, Phantom{FireAmps: 20}
	default:
		return cpu.Throttle{IssueWidth: 2, CachePorts: 1, IssueCurrentBudget: -1}, Phantom{}
	}
}

// stepSnapshot is one cycle's Observation with its reused buffers
// flattened into value copies.
type stepSnapshot struct {
	obs    Observation
	act    cpu.Activity
	domain string
}

func snapshot(obs *Observation) stepSnapshot {
	s := stepSnapshot{obs: *obs, act: *obs.Activity}
	s.obs.Activity = nil
	if obs.PerDomain != nil {
		s.domain = fmt.Sprint(*obs.PerDomain)
		s.obs.PerDomain = nil
	}
	return s
}

// TestFoldedStepMatchesFrozenLoops steps each machine shape once through
// the folded Step and once through the frozen pre-fold loop under the
// same control script, requiring bit-identical observations every cycle
// and identical Results and per-domain statistics at the end.
func TestFoldedStepMatchesFrozenLoops(t *testing.T) {
	lumped := DefaultConfig()
	twoStage := DefaultConfig()
	twoStage.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkTwoStage}
	twoStage.SensorDelayCycles = 2
	quantized := DefaultConfig()
	quantized.SensorResolutionAmps = 2
	multi := DefaultConfig()
	multi.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain}
	multiRail := multi
	multiRail.SensorDomain = 2
	multiRail.SensorDelayCycles = 3

	app, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	const insts = 6000
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"lumped", lumped},
		{"twostage-delay2", twoStage},
		{"quantized", quantized},
		{"multidomain-aggregate", multi},
		{"multidomain-rail2-delay3", multiRail},
	} {
		t.Run(c.name, func(t *testing.T) {
			folded, err := NewMachine(c.cfg, workload.NewGenerator(app.Params, insts))
			if err != nil {
				t.Fatal(err)
			}
			frozen, err := NewMachine(c.cfg, workload.NewGenerator(app.Params, insts))
			if err != nil {
				t.Fatal(err)
			}
			for !folded.Done() {
				th, ph := scriptedControl(folded.Cycles())
				got := snapshot(folded.Step(th, ph))
				want := snapshot(frozen.refStep(th, ph))
				if got != want {
					t.Fatalf("cycle %d: folded %+v != frozen %+v", want.obs.Cycle, got, want)
				}
			}
			if !frozen.Done() {
				t.Fatal("frozen machine still running after the folded one drained")
			}
			if g, w := folded.Result("swim", "script"), frozen.Result("swim", "script"); g != w {
				t.Errorf("result: folded %+v != frozen %+v", g, w)
			}
			if g, w := fmt.Sprint(folded.DomainStats()), fmt.Sprint(frozen.DomainStats()); g != w {
				t.Errorf("domain stats: folded %s != frozen %s", g, w)
			}
		})
	}
}
