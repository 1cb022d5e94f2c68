// Package circuit models the microprocessor power-distribution network as
// the second-order RLC circuit of Figure 1 in the paper: the power-supply
// impedance R, the die-to-package connection inductance L, and the on-die
// decoupling capacitance C, excited by the CPU core modelled as a current
// source. Following Figure 1(b), the supply voltage source is eliminated
// by linearity, so the simulated node voltage is the *deviation* from Vdd.
//
// The package provides the derived resonance characteristics the paper
// uses throughout Section 2 (resonant frequency, quality factor, the
// half-energy resonance band, and the damping rate), a transient simulator
// based on the Heun (improved Euler) formula, an impedance sweep for
// reproducing Figure 1(c), and the calibration procedures of Section 2.1.3
// that determine the resonant current variation threshold and the maximum
// repetition tolerance.
package circuit

import (
	"errors"
	"fmt"
	"math"
)

// Params describes a second-order power-distribution network together with
// the electrical operating point of the processor it feeds.
type Params struct {
	// R is the power-supply impedance in ohms.
	R float64
	// L is the die-to-package connection (solder bump) inductance in henries.
	L float64
	// C is the bulk on-die decoupling capacitance in farads.
	C float64

	// Vdd is the nominal supply voltage in volts.
	Vdd float64
	// NoiseMargin is the allowed supply deviation as a fraction of Vdd
	// (the paper uses 0.05, i.e. ±5%).
	NoiseMargin float64

	// ClockHz is the processor clock frequency used to convert between
	// seconds and cycles.
	ClockHz float64

	// IMax and IMin bound the processor current in amps. The maximum
	// possible current variation (IMax-IMin) determines, together with
	// the circuit, the maximum repetition tolerance (Section 2.1.3).
	IMax float64
	IMin float64
}

// Table1 returns the aggressive future design point of Table 1 in the
// paper: 1.0 V, 10 GHz, 105 A peak / 35 A minimum current, R = 375 µΩ,
// L = 1.69 pH, C = 1500 nF, 5% noise margin. The derived resonant
// frequency is 100 MHz and the resonance band spans 84–119 cycles.
func Table1() Params {
	return Params{
		R:           375e-6,
		L:           1.69e-12,
		C:           1500e-9,
		Vdd:         1.0,
		NoiseMargin: 0.05,
		ClockHz:     10e9,
		IMax:        105,
		IMin:        35,
	}
}

// Section2Example returns the present-day package example of Section 2.1:
// C = 500 nF, L = 0.005 nH, and R chosen for a quality factor near 6.3 so
// that the resonance band spans roughly 92–108 MHz at a 2 V supply and a
// 5 GHz clock, matching the worked example in the paper.
func Section2Example() Params {
	return Params{
		R:           500e-6,
		L:           5e-12,
		C:           500e-9,
		Vdd:         2.0,
		NoiseMargin: 0.05,
		ClockHz:     5e9,
		IMax:        100,
		IMin:        30,
	}
}

// Validate reports whether the parameters describe a physically meaningful
// configuration. Every field must be finite: a NaN passes no ordered
// comparison below, and an infinite one breaks the derived quantities
// (resonant period, impedance) the rest of the simulator sizes buffers by.
func (p Params) Validate() error {
	for _, v := range [...]float64{p.R, p.L, p.C, p.Vdd, p.NoiseMargin, p.ClockHz, p.IMax, p.IMin} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("circuit: parameters must be finite (R=%g L=%g C=%g Vdd=%g NoiseMargin=%g ClockHz=%g IMax=%g IMin=%g)",
				p.R, p.L, p.C, p.Vdd, p.NoiseMargin, p.ClockHz, p.IMax, p.IMin)
		}
	}
	switch {
	case p.R <= 0 || p.L <= 0 || p.C <= 0:
		return fmt.Errorf("circuit: R, L, C must be positive (R=%g L=%g C=%g)", p.R, p.L, p.C)
	case p.Vdd <= 0:
		return fmt.Errorf("circuit: Vdd must be positive (got %g)", p.Vdd)
	case p.NoiseMargin <= 0 || p.NoiseMargin >= 1:
		return fmt.Errorf("circuit: noise margin must be in (0,1) (got %g)", p.NoiseMargin)
	case p.ClockHz <= 0:
		return fmt.Errorf("circuit: clock frequency must be positive (got %g)", p.ClockHz)
	case p.IMax <= p.IMin:
		return fmt.Errorf("circuit: IMax (%g) must exceed IMin (%g)", p.IMax, p.IMin)
	case p.IMin < 0:
		return fmt.Errorf("circuit: IMin must be non-negative (got %g)", p.IMin)
	}
	return nil
}

// Underdamped reports whether the circuit satisfies R² < 4L/C and is
// therefore subject to resonant oscillation (Section 2.1.1). Technology
// scaling (small R, large C) keeps microprocessor supplies underdamped.
func (p Params) Underdamped() bool {
	return p.R*p.R < 4*p.L/p.C
}

// ResonantFrequency returns f = 1/(2π√(LC)) in hertz, the frequency at
// which current variations cause maximum voltage variation.
func (p Params) ResonantFrequency() float64 {
	return 1 / (2 * math.Pi * math.Sqrt(p.L*p.C))
}

// ResonantPeriodCycles returns the resonant period expressed in processor
// clock cycles.
func (p Params) ResonantPeriodCycles() float64 {
	return p.ClockHz / p.ResonantFrequency()
}

// Q returns the quality factor 2πfL/R of the resonant loop. Q determines
// both the width of the resonance band and how quickly stored resonant
// energy dissipates.
func (p Params) Q() float64 {
	return 2 * math.Pi * p.ResonantFrequency() * p.L / p.R
}

// DampingRateNepers returns the damping rate fπ/Q in nepers per second
// (equivalently R/2L). Voltage variations decay as exp(-rate·t) once
// current variations stop.
func (p Params) DampingRateNepers() float64 {
	return p.R / (2 * p.L)
}

// DissipationPerPeriod returns the fraction of a voltage variation's
// amplitude lost over one resonant period. The Table 1 supply loses about
// 66% per period; the Section 2 example loses about 40%.
func (p Params) DissipationPerPeriod() float64 {
	return 1 - math.Exp(-p.DampingRateNepers()/p.ResonantFrequency())
}

// NoiseMarginVolts returns the absolute supply-deviation bound in volts.
func (p Params) NoiseMarginVolts() float64 {
	return p.NoiseMargin * p.Vdd
}

// MaxCurrentSwing returns the largest possible processor current variation
// IMax-IMin in amps.
func (p Params) MaxCurrentSwing() float64 {
	return p.IMax - p.IMin
}

// Band is a range of frequencies, in hertz, over which the power supply
// resonates with more than half the energy at the resonant frequency.
type Band struct {
	Lo, Hi float64 // hertz, Lo < Hi
}

// Contains reports whether frequency f (hertz) lies inside the band.
func (b Band) Contains(f float64) bool { return f >= b.Lo && f <= b.Hi }

// Width returns the band width in hertz.
func (b Band) Width() float64 { return b.Hi - b.Lo }

// ResonanceBand returns the half-energy resonance band using the exact
// second-order-circuit expressions (the paper cites DeCarlo & Lin [4]):
//
//	f_lo,hi = f0·(√(1+1/(4Q²)) ∓ 1/(2Q))
//
// For the Table 1 supply (Q ≈ 2.83) this yields 83.9–119 MHz, i.e. periods
// of 84–119 cycles at 10 GHz, matching the paper.
func (p Params) ResonanceBand() Band {
	f0 := p.ResonantFrequency()
	q := p.Q()
	center := math.Sqrt(1 + 1/(4*q*q))
	half := 1 / (2 * q)
	return Band{Lo: f0 * (center - half), Hi: f0 * (center + half)}
}

// CycleBand is a resonance band expressed in whole processor cycles per
// period. Lo is the shortest resonant period and Hi the longest, so
// Lo corresponds to Band.Hi and vice versa.
type CycleBand struct {
	Lo, Hi int // cycles per period, Lo <= Hi
}

// HalfPeriods returns the inclusive range of half-periods, in cycles,
// covered by the band. The detector instantiates one quarter-period adder
// per distinct half-period in this range (Section 3.1.3).
func (cb CycleBand) HalfPeriods() (lo, hi int) { return cb.Lo / 2, (cb.Hi + 1) / 2 }

// Contains reports whether a period of n cycles falls inside the band.
func (cb CycleBand) Contains(n int) bool { return n >= cb.Lo && n <= cb.Hi }

// ResonanceBandCycles converts the resonance band to processor-cycle
// periods, rounding inward so that every included period is genuinely
// inside the band.
func (p Params) ResonanceBandCycles() CycleBand {
	b := p.ResonanceBand()
	lo := int(math.Ceil(p.ClockHz / b.Hi))
	hi := int(math.Floor(p.ClockHz / b.Lo))
	if lo > hi {
		lo, hi = hi, lo
	}
	return CycleBand{Lo: lo, Hi: hi}
}

// Characteristics bundles every derived quantity of a supply for reports
// and for configuring the detector.
type Characteristics struct {
	ResonantFrequencyHz  float64
	ResonantPeriodCycles float64
	Q                    float64
	Underdamped          bool
	DampingRateNepers    float64
	DissipationPerPeriod float64
	BandHz               Band
	BandCycles           CycleBand
	NoiseMarginVolts     float64
}

// Characterize computes all derived resonance characteristics, returning
// an error for invalid or non-resonant (over/critically damped) supplies.
func (p Params) Characterize() (Characteristics, error) {
	if err := p.Validate(); err != nil {
		return Characteristics{}, err
	}
	if !p.Underdamped() {
		return Characteristics{}, errors.New("circuit: supply is not underdamped; no resonant oscillation")
	}
	return Characteristics{
		ResonantFrequencyHz:  p.ResonantFrequency(),
		ResonantPeriodCycles: p.ResonantPeriodCycles(),
		Q:                    p.Q(),
		Underdamped:          true,
		DampingRateNepers:    p.DampingRateNepers(),
		DissipationPerPeriod: p.DissipationPerPeriod(),
		BandHz:               p.ResonanceBand(),
		BandCycles:           p.ResonanceBandCycles(),
		NoiseMarginVolts:     p.NoiseMarginVolts(),
	}, nil
}

// String renders the characteristics as a short human-readable report.
func (c Characteristics) String() string {
	return fmt.Sprintf(
		"f0=%.2f MHz (%.1f cycles)  Q=%.2f  band=%.1f-%.1f MHz (%d-%d cycles)  dissipation=%.0f%%/period  margin=±%.0f mV",
		c.ResonantFrequencyHz/1e6, c.ResonantPeriodCycles, c.Q,
		c.BandHz.Lo/1e6, c.BandHz.Hi/1e6, c.BandCycles.Lo, c.BandCycles.Hi,
		c.DissipationPerPeriod*100, c.NoiseMarginVolts*1000)
}
