package voltctl

import (
	"math"
	"testing"
)

func cleanConfig() Config {
	return Config{TargetThresholdVolts: 0.030}
}

func TestLowVoltageStallsFetchAndIssue(t *testing.T) {
	c := New(cleanConfig(), 0)
	r := c.Step(-0.040)
	if !r.InResponse {
		t.Fatal("no response to -40 mV with 30 mV threshold")
	}
	if !r.Throttle.StallIssue || !r.Throttle.StallFetch {
		t.Errorf("low-voltage response throttle %+v, want fetch+issue stall", r.Throttle)
	}
	if r.PhantomFire {
		t.Error("low-voltage response should not phantom fire")
	}
}

func TestHighVoltagePhantomFires(t *testing.T) {
	c := New(cleanConfig(), 0)
	r := c.Step(+0.040)
	if !r.InResponse || !r.PhantomFire {
		t.Fatalf("high-voltage response %+v, want phantom fire", r)
	}
	if r.Throttle.StallIssue || r.Throttle.StallFetch {
		t.Error("high-voltage response should not stall")
	}
}

func TestInsideWindowNoResponse(t *testing.T) {
	c := New(cleanConfig(), 0)
	for _, v := range []float64{0, 0.029, -0.029, 0.010} {
		if r := c.Step(v); r.InResponse {
			t.Errorf("responded to %g V inside the 30 mV window", v)
		}
	}
}

func TestActualThresholdAccountsForNoise(t *testing.T) {
	c := Config{TargetThresholdVolts: 0.030, SensorNoiseVolts: 0.015}
	if got := c.ActualThresholdVolts(); math.Abs(got-0.0225) > 1e-12 {
		t.Errorf("actual threshold %g, want 0.0225", got)
	}
}

func TestNoiseCausesFalseAlarms(t *testing.T) {
	// With 15 mV of noise and a 22.5 mV actual threshold, a true
	// deviation of 20 mV (harmless at the 30 mV target) sometimes
	// crosses.
	c := New(Config{TargetThresholdVolts: 0.030, SensorNoiseVolts: 0.015, Seed: 3}, 0)
	fired := 0
	for i := 0; i < 10_000; i++ {
		if r := c.Step(0.020); r.InResponse {
			fired++
		}
	}
	if fired == 0 {
		t.Error("noisy sensor never false-alarmed on a 20 mV deviation")
	}
	if got := c.Stats().ResponseFraction(); got == 0 {
		t.Errorf("response fraction %g, want > 0", got)
	}
}

func TestDelayPostponesResponse(t *testing.T) {
	c := New(Config{TargetThresholdVolts: 0.030, SensorDelayCycles: 3}, 0)
	// Three quiet cycles prime the delay line.
	for i := 0; i < 3; i++ {
		if r := c.Step(0); r.InResponse {
			t.Fatal("responded during quiet warm-up")
		}
	}
	// A deep sag appears now but is seen 3 cycles later.
	if r := c.Step(-0.040); r.InResponse {
		t.Fatal("zero-delay response from a 3-cycle-delayed sensor")
	}
	c.Step(0)
	c.Step(0)
	if r := c.Step(0); !r.InResponse {
		t.Error("sag never surfaced after the sensor delay")
	}
}

func TestStatsCounters(t *testing.T) {
	c := New(cleanConfig(), 0)
	c.Step(-0.040)
	c.Step(+0.040)
	c.Step(0)
	s := c.Stats()
	if s.Cycles != 3 || s.ResponseCycles != 2 || s.LowResponses != 1 || s.HighResponses != 1 {
		t.Errorf("stats %+v, want 3 cycles, 2 responses split 1/1", s)
	}
	if math.Abs(s.ResponseFraction()-2.0/3) > 1e-12 {
		t.Errorf("response fraction %g, want 2/3", s.ResponseFraction())
	}
	var zero Stats
	if zero.ResponseFraction() != 0 {
		t.Error("zero stats fraction should be 0")
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{TargetThresholdVolts: 0},
		{TargetThresholdVolts: -0.01},
		{TargetThresholdVolts: 0.03, SensorNoiseVolts: -1},
		{TargetThresholdVolts: 0.03, SensorDelayCycles: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := cleanConfig().Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{}, 0)
}
