package circuit

import (
	"math"
	"testing"
)

// closedFormStep returns the analytic noise deviation t seconds after the
// processor current steps from i0 to i1, starting from DC steady state.
// For the underdamped circuit the deviation is
//
//	x(t) = e^{-αt}(A cos ω_d t + B sin ω_d t)
//
// with A = R·ΔI, B = (−ΔI/C + αA)/ω_d.
func closedFormStep(p Params, deltaI, t float64) float64 {
	alpha := p.DampingRateNepers()
	w0 := 2 * math.Pi * p.ResonantFrequency()
	wd := math.Sqrt(w0*w0 - alpha*alpha)
	a := p.R * deltaI
	b := (-deltaI/p.C + alpha*a) / wd
	return math.Exp(-alpha*t) * (a*math.Cos(wd*t) + b*math.Sin(wd*t))
}

func TestSteadyStateConstantCurrentNoDeviation(t *testing.T) {
	p := Table1()
	for _, level := range []float64{p.IMin, (p.IMin + p.IMax) / 2, p.IMax} {
		sim := NewSimulator(p, level)
		for c := 0; c < 1000; c++ {
			dev := sim.Step(level)
			if math.Abs(dev) > 1e-9 {
				t.Fatalf("constant %g A: deviation %g V at cycle %d, want ~0", level, dev, c)
			}
		}
	}
}

func TestHeunMatchesClosedFormStepResponse(t *testing.T) {
	p := Table1()
	const i0, i1 = 50.0, 80.0
	sim := NewSimulator(p, i0)
	dt := 1 / p.ClockHz
	worst := 0.0
	for c := 1; c <= 3000; c++ {
		got := sim.Step(i1)
		want := closedFormStep(p, i1-i0, float64(c)*dt)
		if e := math.Abs(got - want); e > worst {
			worst = e
		}
	}
	// Peak deviation for a 30 A step is ~32 mV; demand <1% of that.
	if worst > 0.3e-3 {
		t.Errorf("Heun worst error vs closed form = %g V, want < 0.3 mV", worst)
	}
}

func TestResonantStimulusBuildsUpAndDissipates(t *testing.T) {
	p := Table1()
	mid := (p.IMax + p.IMin) / 2
	period := int(math.Round(p.ResonantPeriodCycles()))
	sim := NewSimulator(p, mid)
	w := Square{Mid: mid, Amplitude: 34, PeriodCycles: period, Start: 0, End: 8 * period}

	peakEarly, peakLate := 0.0, 0.0
	for c := 0; c < 8*period; c++ {
		d := math.Abs(sim.Step(w.At(c)))
		if c < period && d > peakEarly {
			peakEarly = d
		}
		if c >= 6*period && d > peakLate {
			peakLate = d
		}
	}
	if peakLate <= peakEarly {
		t.Errorf("resonant buildup missing: early peak %g V, late peak %g V", peakEarly, peakLate)
	}

	// After the stimulus stops, the deviation must decay at roughly the
	// damping rate (~66%/period for Table 1).
	peakAt := func(fromCycle int) float64 {
		peak := 0.0
		for c := 0; c < period; c++ {
			if d := math.Abs(sim.Step(mid)); d > peak {
				peak = d
			}
		}
		_ = fromCycle
		return peak
	}
	p1 := peakAt(0)
	p2 := peakAt(period)
	ratio := p2 / p1
	expected := 1 - p.DissipationPerPeriod() // ≈ 0.34
	if math.Abs(ratio-expected) > 0.08 {
		t.Errorf("dissipation ratio/period = %g, want ≈ %g", ratio, expected)
	}
}

func TestOffBandStimulusAbsorbed(t *testing.T) {
	p := Table1()
	mid := (p.IMax + p.IMin) / 2
	// Same 34 A amplitude as the resonant test, but at twice the
	// resonant frequency: the supply absorbs it (paper Section 1).
	periodIn := int(math.Round(p.ResonantPeriodCycles()))
	periodOut := periodIn / 2

	peak := func(period int) float64 {
		sim := NewSimulator(p, mid)
		w := Square{Mid: mid, Amplitude: 34, PeriodCycles: period}
		pk := 0.0
		for c := 0; c < 20*periodIn; c++ {
			if d := math.Abs(sim.Step(w.At(c))); d > pk {
				pk = d
			}
		}
		return pk
	}
	in, out := peak(periodIn), peak(periodOut)
	// The onset step still rings the resonant mode briefly, so the
	// off-band peak is not tiny, but it must stay clearly below the
	// in-band buildup and inside the noise margin.
	if out > in*0.65 {
		t.Errorf("off-band stimulus not absorbed: in-band peak %g V, off-band peak %g V", in, out)
	}
	if in <= p.NoiseMarginVolts() {
		t.Errorf("in-band 34 A stimulus should violate the 50 mV margin, peaked at %g V", in)
	}
	if out > p.NoiseMarginVolts() {
		t.Errorf("off-band 34 A stimulus should stay inside the margin, peaked at %g V", out)
	}
}

func TestRunStatistics(t *testing.T) {
	p := Table1()
	mid := (p.IMax + p.IMin) / 2
	period := int(math.Round(p.ResonantPeriodCycles()))
	w := Square{Mid: mid, Amplitude: 40, PeriodCycles: period}
	sim := NewSimulator(p, mid)
	res := sim.Run(Samples(w, 10*period))
	if len(res.Deviations) != 10*period {
		t.Fatalf("Deviations length %d, want %d", len(res.Deviations), 10*period)
	}
	if res.Violations == 0 {
		t.Error("40 A resonant stimulus should produce violations")
	}
	if res.PeakDeviation <= p.NoiseMarginVolts() {
		t.Errorf("peak deviation %g should exceed margin", res.PeakDeviation)
	}
	count := 0
	margin := p.NoiseMarginVolts()
	for _, d := range res.Deviations {
		if math.Abs(d) > margin {
			count++
		}
	}
	if count != res.Violations {
		t.Errorf("violation count %d disagrees with deviations %d", res.Violations, count)
	}
}

func TestResetRestoresSteadyState(t *testing.T) {
	p := Table1()
	sim := NewSimulator(p, 50)
	for c := 0; c < 500; c++ {
		sim.Step(50 + 30*float64(c%2)) // thrash the state
	}
	sim.Reset(70)
	if sim.Cycle() != 0 {
		t.Errorf("cycle after Reset = %d, want 0", sim.Cycle())
	}
	if dev := sim.Step(70); math.Abs(dev) > 1e-9 {
		t.Errorf("deviation after Reset at steady current = %g, want ~0", dev)
	}
	st := sim.State()
	if math.Abs(st.IL-70) > 1e-6 {
		t.Errorf("inductor current after reset = %g, want 70", st.IL)
	}
}

// rk4Reference integrates the Figure 1(b) circuit with classical
// Runge–Kutta at substeps steps per processor cycle, holding each cycle's
// current for the whole cycle exactly as Simulator.Step does, and
// returns the per-cycle deviation (IR drop removed). It starts from the
// DC steady state for current i0. At 1000 substeps its truncation error
// is far below Heun's, so it stands in for the exact solution of the
// cycle-held circuit.
func rk4Reference(p Params, i0 float64, current []float64, substeps int) []float64 {
	h := 1 / p.ClockHz / float64(substeps)
	v, il := -p.R*i0, i0
	f := func(v, il, icpu float64) (float64, float64) {
		return (il - icpu) / p.C, -(v + p.R*il) / p.L
	}
	devs := make([]float64, len(current))
	for c, icpu := range current {
		for k := 0; k < substeps; k++ {
			k1v, k1i := f(v, il, icpu)
			k2v, k2i := f(v+h/2*k1v, il+h/2*k1i, icpu)
			k3v, k3i := f(v+h/2*k2v, il+h/2*k2i, icpu)
			k4v, k4i := f(v+h*k3v, il+h*k3i, icpu)
			v += h / 6 * (k1v + 2*k2v + 2*k3v + k4v)
			il += h / 6 * (k1i + 2*k2i + 2*k3i + k4i)
		}
		devs[c] = v + p.R*icpu
	}
	return devs
}

// TestFigure3HeunAgainstRK4Reference pins what the per-cycle Heun step
// does to the Figure 3 stimulus (a square wave at the resonant period
// from cycle 100 to 500 on the Table 1 supply), against rk4Reference fed
// the same cycle-held current: Heun's peak deviation is slightly lower
// than the reference's, by the same 0.0009 at every amplitude, and the
// first noise-margin violation falls on the same cycle. So integration
// error does not explain why fig3 drives 32.5 A where the paper drives
// 34 A.
func TestFigure3HeunAgainstRK4Reference(t *testing.T) {
	p := Table1()
	mid := (p.IMax + p.IMin) / 2
	period := int(math.Round(p.ResonantPeriodCycles()))
	margin := p.NoiseMarginVolts()
	firstViolation := func(devs []float64) int {
		for c, d := range devs {
			if math.Abs(d) > margin {
				return c
			}
		}
		return -1
	}
	peak := func(devs []float64) float64 {
		m := 0.0
		for _, d := range devs {
			m = math.Max(m, math.Abs(d))
		}
		return m
	}
	wantFirst := map[float64]int{32.5: 323, 34: 274}
	for _, amp := range []float64{30, 32, 32.5, 34, 36} {
		w := Square{Mid: mid, Amplitude: amp, PeriodCycles: period, Start: 100, End: 500}
		current := Samples(w, 1000)
		heun := NewSimulator(p, mid).Run(current).Deviations
		ref := rk4Reference(p, mid, current, 1000)
		r := peak(heun) / peak(ref)
		t.Logf("%g A: Heun/reference peak deviation %.6f, first violation at cycle %d", amp, r, firstViolation(heun))
		if r <= 0.999 || r >= 1 {
			t.Errorf("%g A: Heun/reference peak deviation %.6f, want within (0.999, 1)", amp, r)
		}
		if want, ok := wantFirst[amp]; ok {
			h, r := firstViolation(heun), firstViolation(ref)
			if h != want || r != want {
				t.Errorf("%g A: first violation at cycle %d (Heun) and %d (reference), want both %d", amp, h, r, want)
			}
		}
	}
}
