package convctl

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/rng"
)

func defaultConfig() Config { return Config{Supply: circuit.Table1()} }

func TestImpulseResponseShape(t *testing.T) {
	p := circuit.Table1()
	h := ImpulseResponse(p, 400)
	// The response to a 1 A pulse rings at the resonant period and
	// decays.
	peakEarly, peakLate := 0.0, 0.0
	for k, v := range h {
		a := math.Abs(v)
		if k < 100 && a > peakEarly {
			peakEarly = a
		}
		if k >= 300 && a > peakLate {
			peakLate = a
		}
	}
	if peakEarly == 0 {
		t.Fatal("no early response")
	}
	if peakLate >= peakEarly/5 {
		t.Errorf("response not decaying: early %g, late %g", peakEarly, peakLate)
	}
	// Sign alternation at roughly the resonant half-period.
	signFlips := 0
	prev := 0.0
	for _, v := range h[:200] {
		if v*prev < 0 {
			signFlips++
		}
		if v != 0 {
			prev = v
		}
	}
	if signFlips < 2 {
		t.Errorf("response rang through only %d sign flips in 2 periods", signFlips)
	}
}

func TestDefaultsResolved(t *testing.T) {
	c := New(defaultConfig())
	cfg := c.Config()
	if cfg.Taps < 100 || cfg.Taps > 2000 {
		t.Errorf("derived taps %d implausible", cfg.Taps)
	}
	if cfg.Horizon != 4 {
		t.Errorf("default horizon %d", cfg.Horizon)
	}
	if math.Abs(cfg.ThresholdVolts-0.03) > 1e-12 {
		t.Errorf("default threshold %g, want 0.030", cfg.ThresholdVolts)
	}
}

func TestPredictionTracksResonantBuildup(t *testing.T) {
	// Drive the controller and the real circuit with the same resonant
	// waveform; the convolution prediction must stay close to the
	// actual deviation once history fills.
	p := circuit.Table1()
	ctl := New(Config{Supply: p, Horizon: 1})
	sim := circuit.NewSimulator(p, 70)
	w := circuit.Square{Mid: 70, Amplitude: 20, PeriodCycles: 100}

	var prevPred float64
	worst, sum := 0.0, 0.0
	n := 0
	for c := 0; c < 3000; c++ {
		i := w.At(c)
		dev := sim.Step(i)
		if c > ctl.Config().Taps+10 {
			// prevPred was the prediction for this cycle.
			e := math.Abs(prevPred - dev)
			if e > worst {
				worst = e
			}
			sum += e
			n++
		}
		r := ctl.Step(i, dev)
		prevPred = r.PredictedVolts
	}
	// A 20 A resonant square reaches ~±35 mV. The prediction cannot
	// foresee the square's transitions (a ±20 A jump costs |h[0]|·20 ≈
	// 7 mV for exactly one cycle), but away from transitions it must
	// track within a millivolt or two on average.
	if worst > 0.010 {
		t.Errorf("worst 1-cycle prediction error %.4f V", worst)
	}
	if mean := sum / float64(n); mean > 0.0015 {
		t.Errorf("mean 1-cycle prediction error %.5f V", mean)
	}
}

func TestRespondsToThreateningWaveform(t *testing.T) {
	p := circuit.Table1()
	ctl := New(Config{Supply: p})
	sim := circuit.NewSimulator(p, 70)
	w := circuit.Square{Mid: 70, Amplitude: 40, PeriodCycles: 100}
	responses := 0
	for c := 0; c < 4000; c++ {
		i := w.At(c)
		dev := sim.Step(i)
		if r := ctl.Step(i, dev); r.InResponse {
			responses++
		}
	}
	if responses == 0 {
		t.Error("no response to a 40 A resonant square")
	}
	st := ctl.Stats()
	if st.LowResponses == 0 || st.HighResponses == 0 {
		t.Errorf("one-sided responses: low %d, high %d", st.LowResponses, st.HighResponses)
	}
	if st.ResponseFraction() <= 0 {
		t.Error("stats fraction empty")
	}
}

func TestQuietCurrentNoResponse(t *testing.T) {
	ctl := New(defaultConfig())
	for c := 0; c < 3000; c++ {
		if r := ctl.Step(70, 0); r.InResponse {
			t.Fatalf("cycle %d: responded to constant current", c)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Supply: circuit.Table1(), ThresholdVolts: -1},
		{Supply: circuit.Table1(), Horizon: -2},
		{Supply: circuit.Table1(), Taps: 3},
		{Supply: circuit.Table1(), EstimateErrorAmps: -1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad config %d accepted", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestStatsZeroValue(t *testing.T) {
	var s Stats
	if s.ResponseFraction() != 0 {
		t.Error("zero stats fraction")
	}
}

func TestEstimateErrorDegradesPrediction(t *testing.T) {
	p := circuit.Table1()
	run := func(errAmps float64) float64 {
		ctl := New(Config{Supply: p, EstimateErrorAmps: errAmps, Seed: 5})
		sim := circuit.NewSimulator(p, 70)
		w := circuit.Square{Mid: 70, Amplitude: 20, PeriodCycles: 100}
		for c := 0; c < 4000; c++ {
			i := w.At(c)
			ctl.Step(i, sim.Step(i))
		}
		return ctl.Stats().WorstAbsError
	}
	perfect, noisy := run(0), run(10)
	if noisy <= perfect {
		t.Errorf("estimate error did not degrade prediction: %g vs %g", noisy, perfect)
	}
}

// refPredict is a frozen copy of predict's original history walk, which
// located every tap's sample with a modulo; it is the oracle for the
// two-run walk that replaced it.
func refPredict(c *Controller) float64 {
	latest := c.hist[c.pos]
	v := 0.0
	for k := 0; k < c.cfg.Horizon && k < len(c.h); k++ {
		v += c.h[k] * latest
	}
	for k := c.cfg.Horizon; k < len(c.h); k++ {
		idx := (c.pos - (k - c.cfg.Horizon) + len(c.hist)*8) % len(c.hist)
		v += c.h[k] * c.hist[idx]
	}
	return v
}

// TestPredictMatchesModularWalk: the two-run history walk sums the same
// products in the same order as the modular walk, so every prediction is
// bit-identical — at every ring position, for short, default and
// whole-ring horizons.
func TestPredictMatchesModularWalk(t *testing.T) {
	taps := New(defaultConfig()).Config().Taps
	for _, horizon := range []int{1, 4, taps - 1} {
		cfg := defaultConfig()
		cfg.Horizon = horizon
		cfg.EstimateErrorAmps = 3
		c := New(cfg)
		r := rng.New(uint64(horizon))
		var first, last bool
		for cyc := 0; cyc < 100_000; cyc++ {
			c.Step(35+70*r.Float64(), 0)
			if got, want := c.predict(), refPredict(c); got != want {
				t.Fatalf("horizon %d, cycle %d, pos %d: predict = %v, modular walk = %v",
					horizon, cyc, c.pos, got, want)
			}
			first = first || c.pos == 0
			last = last || c.pos == len(c.hist)-1
		}
		if !first || !last {
			t.Fatalf("horizon %d: ring ends not visited (pos 0: %v, pos len-1: %v)", horizon, first, last)
		}
	}
}
