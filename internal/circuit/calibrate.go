package circuit

import (
	"errors"
	"fmt"
	"math"
)

// Calibration holds the design-time quantities of Section 2.1.3 that the
// resonance-tuning detector needs. They are determined, as in the paper,
// by stimulating the simulated supply with periodic current waveforms and
// observing when the noise margin is violated.
//
// Cross-checks against the paper's worked examples: for the Section 2
// supply (2 V, 5 GHz, Q≈6.3) this procedure yields a threshold of 10 A,
// a band-edge tolerance of 13 A and a repetition tolerance of 6 half
// waves, as the paper does. For the Table 1 supply it yields a 35 A
// threshold, a 44 A band-edge tolerance and a repetition tolerance of
// 4; the paper's threshold is 32 A. The bisection uses sustained sines,
// whose smallest violating swing (35.4 A) is larger than a square
// wave's (27.9 A, its fundamental being 4/π larger), and the paper's
// 32 A lies between the two.
type Calibration struct {
	// ThresholdAmps is the resonant current variation threshold M:
	// repeated peak-to-peak variations at or below this value never
	// violate the noise margin even when sustained at the resonant
	// frequency.
	ThresholdAmps float64
	// MaxRepetitionTolerance is the number of resonant events (counted
	// in half waves; a full period counts as two) of a band-edge-sized
	// current variation at the resonant frequency that the supply
	// withstands before a violation occurs.
	MaxRepetitionTolerance int
	// BandEdgeToleranceAmps is the largest peak-to-peak variation the
	// supply withstands indefinitely at the edges of the resonance
	// band (13 A in the paper's Section 2 example). Larger variations
	// are tolerated outside the band, where they are absorbed by the
	// supply.
	BandEdgeToleranceAmps float64
}

// calibrationHorizonPeriods is how many resonant periods a sustained
// stimulus runs before it is declared non-violating. Underdamped
// second-order responses settle within a few Q periods; 40 periods is
// far past steady state for any realistic Q.
const calibrationHorizonPeriods = 40

// sustainsViolation reports whether a sustained sinusoidal variation of
// the given peak-to-peak amplitude centered mid-range at the given period
// causes a noise-margin violation, and at which cycle (relative to
// stimulus start) the first violation occurs.
func sustainsViolation(p Params, amplitude, periodCycles float64) (violated bool, atCycle int) {
	mid := (p.IMax + p.IMin) / 2
	sim := NewSimulator(p, mid)
	w := Sine{Mid: mid, Amplitude: amplitude, PeriodCycles: periodCycles}
	margin := p.NoiseMarginVolts()
	horizon := int(periodCycles) * calibrationHorizonPeriods
	for c := 0; c < horizon; c++ {
		dev := sim.Step(w.At(c))
		if math.Abs(dev) > margin {
			return true, c
		}
	}
	return false, -1
}

// bisectTolerance returns the largest whole-amp peak-to-peak amplitude
// that never violates when sustained at the given period, assuming the
// processor's maximum swing does violate (checked by the caller).
func bisectTolerance(p Params, periodCycles float64) float64 {
	lo, hi := 0.0, p.MaxCurrentSwing() // lo never violates, hi violates
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if v, _ := sustainsViolation(p, mid, periodCycles); v {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Floor(hi)
}

// ResonantThreshold determines the resonant current variation threshold by
// bisecting the smallest sustained peak-to-peak variation at the resonant
// frequency that violates the noise margin, rounded to the whole amps the
// current sensors report. Variations below the threshold "simply do not
// have enough energy" (Section 2.1.3) regardless of repetition.
func ResonantThreshold(p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if !p.Underdamped() {
		return 0, errors.New("circuit: overdamped supply has no resonant threshold")
	}
	period := p.ResonantPeriodCycles()
	if v, _ := sustainsViolation(p, p.MaxCurrentSwing(), period); !v {
		// Even the largest possible variation never violates: the
		// supply is overdesigned and there is no inductive-noise
		// problem at this operating point.
		return p.MaxCurrentSwing(), nil
	}
	return bisectTolerance(p, period), nil
}

// BandEdgeTolerance returns the largest peak-to-peak variation (whole
// amps) the supply withstands indefinitely when stimulated at the edges of
// the resonance band.
func BandEdgeTolerance(p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if !p.Underdamped() {
		return 0, errors.New("circuit: overdamped supply has no resonance band")
	}
	band := p.ResonanceBand()
	worst := p.MaxCurrentSwing()
	for _, f := range []float64{band.Lo, band.Hi} {
		period := p.ClockHz / f
		if v, _ := sustainsViolation(p, worst, period); !v {
			continue
		}
		if t := bisectTolerance(p, period); t < worst {
			worst = t
		}
	}
	return worst, nil
}

// MaxRepetitionTolerance determines how many repetitions (in half waves) of
// a band-edge-tolerance-sized current variation at the resonant frequency
// the supply tolerates before the noise margin is violated. This is the
// worst case the detector must guard against: variations larger than the
// band-edge tolerance cannot be sustained anywhere near the band at all.
// Resonance tuning must react before the resonant event count reaches this
// value.
func MaxRepetitionTolerance(p Params) (int, error) {
	edge, err := BandEdgeTolerance(p)
	if err != nil {
		return 0, err
	}
	period := p.ResonantPeriodCycles()
	violated, at := sustainsViolation(p, edge+1, period)
	if !violated {
		return math.MaxInt32, nil
	}
	half := period / 2
	// The violation happens during the (at/half + 1)-th half wave; that
	// many resonant events occurred by then.
	return int(float64(at)/half) + 1, nil
}

// DissipationCycles returns how many quiet cycles are needed for resonant
// energy equivalent to one event out of maxTolerance to dissipate, i.e.
// for the oscillation amplitude to decay by a factor (maxTol-1)/maxTol.
// The second-level response must hold at least this long (the paper holds
// 35 cycles for the Table 1 supply).
func DissipationCycles(p Params, maxTolerance int) int {
	if maxTolerance < 2 {
		maxTolerance = 2
	}
	alpha := p.DampingRateNepers()
	t := math.Log(float64(maxTolerance)/float64(maxTolerance-1)) / alpha
	return int(math.Ceil(t * p.ClockHz))
}

// Calibrate runs the full Section 2.1.3 procedure.
func Calibrate(p Params) (Calibration, error) {
	thr, err := ResonantThreshold(p)
	if err != nil {
		return Calibration{}, fmt.Errorf("calibrating threshold: %w", err)
	}
	edge, err := BandEdgeTolerance(p)
	if err != nil {
		return Calibration{}, fmt.Errorf("calibrating band-edge tolerance: %w", err)
	}
	tol, err := MaxRepetitionTolerance(p)
	if err != nil {
		return Calibration{}, fmt.Errorf("calibrating repetition tolerance: %w", err)
	}
	return Calibration{ThresholdAmps: thr, MaxRepetitionTolerance: tol, BandEdgeToleranceAmps: edge}, nil
}
