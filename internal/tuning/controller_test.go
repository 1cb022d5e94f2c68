package tuning

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/cpu"
)

// table1Controller returns the paper's evaluated configuration: initial
// response threshold 2, second-level threshold 3, first-level response
// 8→4 issue / 2→1 ports for 100 cycles, second-level 35 cycles at a
// 70 A phantom target.
func table1Controller() Config {
	return Config{
		Detector:                 table1Detector(),
		InitialResponseThreshold: 2,
		SecondResponseThreshold:  3,
		InitialResponseCycles:    100,
		SecondResponseCycles:     35,
		ReducedIssueWidth:        4,
		ReducedCachePorts:        1,
		PhantomTargetAmps:        70,
	}
}

// driveController feeds the waveform for n cycles and returns the
// responses observed each cycle.
func driveController(c *Controller, w circuit.Waveform, n int) []Response {
	out := make([]Response, n)
	for i := 0; i < n; i++ {
		out[i] = *c.Step(w.At(i))
	}
	return out
}

func levelSeen(rs []Response, l Level) bool {
	for _, r := range rs {
		if r.Level == l {
			return true
		}
	}
	return false
}

func TestControllerEscalatesOnSustainedResonance(t *testing.T) {
	c := NewController(table1Controller())
	w := circuit.Square{Mid: 70, Amplitude: 40, PeriodCycles: 100, Start: 150}
	rs := driveController(c, w, 1000)
	if !levelSeen(rs, LevelFirst) {
		t.Error("first-level response never engaged")
	}
	if !levelSeen(rs, LevelSecond) {
		t.Error("second-level response never engaged under sustained resonance")
	}
	st := c.Stats()
	if st.FirstLevelFires == 0 || st.SecondLevelFires == 0 {
		t.Errorf("fires: first=%d second=%d, want both > 0", st.FirstLevelFires, st.SecondLevelFires)
	}
	if st.Cycles != 1000 {
		t.Errorf("stats cycles = %d, want 1000", st.Cycles)
	}
}

func TestSecondLevelStallsAndHoldsPhantom(t *testing.T) {
	c := NewController(table1Controller())
	w := circuit.Square{Mid: 70, Amplitude: 40, PeriodCycles: 100, Start: 150}
	rs := driveController(c, w, 1000)
	for i, r := range rs {
		switch r.Level {
		case LevelSecond:
			if !r.Throttle.StallIssue {
				t.Fatalf("cycle %d: second level without issue stall", i)
			}
			if r.PhantomTargetAmps != 70 {
				t.Fatalf("cycle %d: phantom target %g, want 70", i, r.PhantomTargetAmps)
			}
		case LevelFirst:
			if r.Throttle.IssueWidth != 4 || r.Throttle.CachePorts != 1 {
				t.Fatalf("cycle %d: first level throttle %+v", i, r.Throttle)
			}
			if r.PhantomTargetAmps != 0 {
				t.Fatalf("cycle %d: first level should not phantom", i)
			}
		case LevelNone:
			if r.Throttle.StallIssue || r.Throttle.IssueWidth != 0 {
				t.Fatalf("cycle %d: idle response carries throttle %+v", i, r.Throttle)
			}
		}
	}
}

func TestControllerIgnoresIsolatedTransition(t *testing.T) {
	c := NewController(table1Controller())
	w := circuit.WaveformFunc(func(cy int) float64 {
		if cy == 400 {
			return 90
		}
		if cy > 400 {
			return 50
		}
		return 90
	})
	rs := driveController(c, w, 1200)
	if levelSeen(rs, LevelFirst) || levelSeen(rs, LevelSecond) {
		t.Error("controller responded to an isolated transition (count 1)")
	}
}

func TestControllerQuiescesAfterStimulus(t *testing.T) {
	c := NewController(table1Controller())
	w := circuit.Square{Mid: 70, Amplitude: 40, PeriodCycles: 100, Start: 100, End: 600}
	driveController(c, w, 600)
	// Long quiet tail: responses must expire.
	tail := driveController(c, circuit.Constant(70), 2000)
	quiet := tail[500:]
	if levelSeen(quiet, LevelFirst) || levelSeen(quiet, LevelSecond) {
		t.Error("response still active long after variations stopped")
	}
}

func TestResponseDelayPostponesEngagement(t *testing.T) {
	base := table1Controller()
	delayed := base
	delayed.ResponseDelayCycles = 5

	w := circuit.Square{Mid: 70, Amplitude: 40, PeriodCycles: 100, Start: 150}
	firstEngage := func(cfg Config) int {
		c := NewController(cfg)
		rs := driveController(c, w, 1500)
		for i, r := range rs {
			if r.Level != LevelNone {
				return i
			}
		}
		return -1
	}
	a, b := firstEngage(base), firstEngage(delayed)
	if a < 0 || b < 0 {
		t.Fatalf("responses never engaged: base=%d delayed=%d", a, b)
	}
	if b != a+5 {
		t.Errorf("delayed engagement at %d, base at %d, want +5", b, a)
	}
}

func TestStatsFractions(t *testing.T) {
	var s Stats
	if s.FirstLevelFraction() != 0 || s.SecondLevelFraction() != 0 {
		t.Error("zero stats should have zero fractions")
	}
	s = Stats{Cycles: 100, FirstLevelCycles: 25, SecondLevelCycles: 5}
	if s.FirstLevelFraction() != 0.25 || s.SecondLevelFraction() != 0.05 {
		t.Errorf("fractions %g/%g, want 0.25/0.05", s.FirstLevelFraction(), s.SecondLevelFraction())
	}
}

func TestConfigValidateRejectsBadControllers(t *testing.T) {
	mutate := []func(*Config){
		func(c *Config) { c.InitialResponseThreshold = 0 },
		func(c *Config) { c.SecondResponseThreshold = c.InitialResponseThreshold },
		func(c *Config) { c.SecondResponseThreshold = c.Detector.MaxRepetitionTolerance + 1 },
		func(c *Config) { c.InitialResponseCycles = 0 },
		func(c *Config) { c.SecondResponseCycles = 0 },
		func(c *Config) { c.ReducedIssueWidth = 0 },
		func(c *Config) { c.ReducedCachePorts = 0 },
		func(c *Config) { c.ResponseDelayCycles = -1 },
		func(c *Config) { c.PhantomTargetAmps = -1 },
		func(c *Config) { c.Detector.ThresholdAmps = 0 },
	}
	for i, m := range mutate {
		cfg := table1Controller()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := table1Controller().Validate(); err != nil {
		t.Errorf("good controller config rejected: %v", err)
	}
}

func TestNewControllerPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewController(Config{})
}

func TestFromSupplyDefaults(t *testing.T) {
	p := circuit.Table1()
	cal := circuit.Calibration{ThresholdAmps: 32, MaxRepetitionTolerance: 4, BandEdgeToleranceAmps: 44}
	cfg := FromSupply(p, cal, cpu.DefaultConfig(), 100, 70)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("FromSupply config invalid: %v", err)
	}
	if cfg.InitialResponseThreshold != 2 || cfg.SecondResponseThreshold != 3 {
		t.Errorf("thresholds %d/%d, want 2/3", cfg.InitialResponseThreshold, cfg.SecondResponseThreshold)
	}
	if cfg.ReducedIssueWidth != 4 || cfg.ReducedCachePorts != 1 {
		t.Errorf("reduced widths %d/%d, want 4/1", cfg.ReducedIssueWidth, cfg.ReducedCachePorts)
	}
	// The paper holds the second level 35 cycles; the derived value is
	// the dissipation time plus margin, in the same range.
	if cfg.SecondResponseCycles < 20 || cfg.SecondResponseCycles > 45 {
		t.Errorf("second response %d cycles, want ≈ 29-35", cfg.SecondResponseCycles)
	}
}
