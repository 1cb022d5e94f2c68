package circuit

import (
	"fmt"
	"math"
	"math/cmplx"
)

// TwoStageParams models the full power-distribution hierarchy of
// Section 2.2: the off-chip supply reaches the package through a large
// board/socket inductance onto the bulk package capacitance, and from
// there through the solder-bump inductance onto the on-die decoupling
// capacitance. The two RLC loops produce the two impedance peaks the
// paper describes — the low-frequency peak (a few megahertz, off-chip L
// against package C) and the medium-frequency peak (tens to hundreds of
// megahertz, bump L against on-die C).
type TwoStageParams struct {
	// R1, L1, C1 form the off-chip loop: board resistance, board and
	// socket inductance, and bulk package capacitance.
	R1, L1, C1 float64
	// R2, L2, C2 form the on-chip loop: package resistance, solder-bump
	// inductance, and on-die decoupling capacitance.
	R2, L2, C2 float64

	Vdd         float64
	NoiseMargin float64
	ClockHz     float64
	IMax, IMin  float64
}

// Table1TwoStage extends the Table 1 design with a representative
// off-chip stage: 40 µF of package capacitance behind 40 pH of board and
// socket inductance with 0.5 mΩ of board resistance, placing the
// low-frequency peak near 4 MHz — the "few megahertz" of Section 2.2 —
// and keeping it smaller than the medium-frequency peak, as the paper
// describes for current technology.
func Table1TwoStage() TwoStageParams {
	t1 := Table1()
	return TwoStageParams{
		R1: 0.5e-3, L1: 40e-12, C1: 40e-6,
		R2: t1.R, L2: t1.L, C2: t1.C,
		Vdd: t1.Vdd, NoiseMargin: t1.NoiseMargin, ClockHz: t1.ClockHz,
		IMax: t1.IMax, IMin: t1.IMin,
	}
}

// Validate reports whether the parameters are usable.
func (p TwoStageParams) Validate() error {
	switch {
	case p.R1 <= 0 || p.L1 <= 0 || p.C1 <= 0 || p.R2 <= 0 || p.L2 <= 0 || p.C2 <= 0:
		return fmt.Errorf("circuit: two-stage R/L/C values must be positive: %+v", p)
	case p.Vdd <= 0 || p.NoiseMargin <= 0 || p.NoiseMargin >= 1 || p.ClockHz <= 0:
		return fmt.Errorf("circuit: bad electrical operating point: %+v", p)
	case p.IMax <= p.IMin || p.IMin < 0:
		return fmt.Errorf("circuit: bad current bounds: %+v", p)
	}
	return nil
}

// NoiseMarginVolts returns the absolute deviation bound.
func (p TwoStageParams) NoiseMarginVolts() float64 { return p.NoiseMargin * p.Vdd }

// MediumStage returns the on-chip loop viewed as a single-stage supply,
// which governs the medium-frequency resonance.
func (p TwoStageParams) MediumStage() Params {
	return Params{
		R: p.R2, L: p.L2, C: p.C2,
		Vdd: p.Vdd, NoiseMargin: p.NoiseMargin, ClockHz: p.ClockHz,
		IMax: p.IMax, IMin: p.IMin,
	}
}

// LowStage returns the off-chip loop viewed as a single-stage supply
// (with the whole chip as its load), which governs the low-frequency
// resonance.
func (p TwoStageParams) LowStage() Params {
	return Params{
		R: p.R1, L: p.L1, C: p.C1,
		Vdd: p.Vdd, NoiseMargin: p.NoiseMargin, ClockHz: p.ClockHz,
		IMax: p.IMax, IMin: p.IMin,
	}
}

// Impedance returns |Z(f)| seen by the core current source at the die
// node: the on-die capacitance in parallel with the bump branch, which
// leads through the package capacitance and the off-chip branch.
func (p TwoStageParams) Impedance(f float64) float64 {
	if f == 0 {
		return p.R1 + p.R2
	}
	w := 2 * math.Pi * f
	par := func(a, b complex128) complex128 { return a * b / (a + b) }
	zc1 := complex(0, -1/(w*p.C1))
	zc2 := complex(0, -1/(w*p.C2))
	zOff := complex(p.R1, w*p.L1)
	zBump := complex(p.R2, w*p.L2)
	inner := par(zc1, zOff)
	return cmplx.Abs(par(zc2, zBump+inner))
}

// ImpedanceSweep samples |Z(f)| at n log-spaced frequencies across
// [loHz, hiHz], suiting the decades between the two peaks.
func (p TwoStageParams) ImpedanceSweep(loHz, hiHz float64, n int) []ImpedancePoint {
	if n < 2 {
		n = 2
	}
	pts := make([]ImpedancePoint, n)
	ratio := math.Pow(hiHz/loHz, 1/float64(n-1))
	f := loHz
	for i := range pts {
		pts[i] = ImpedancePoint{FrequencyHz: f, Ohms: p.Impedance(f)}
		f *= ratio
	}
	return pts
}

// Peaks locates the low- and medium-frequency impedance peaks by scanning
// around each stage's natural frequency.
func (p TwoStageParams) Peaks() (low, medium ImpedancePoint) {
	fLow := p.LowStage().ResonantFrequency()
	fMed := p.MediumStage().ResonantFrequency()
	low = PeakImpedance(p.ImpedanceSweep(fLow/4, fLow*4, 400))
	medium = PeakImpedance(p.ImpedanceSweep(fMed/2, fMed*2, 400))
	return low, medium
}

// TwoStageState is the electrical state of the two-loop network.
type TwoStageState struct {
	V1, I1 float64 // package node voltage, off-chip branch current
	V2, I2 float64 // die node voltage, bump branch current
}

// TwoStageSimulator advances the two-loop network one processor cycle at
// a time with the Heun formula, mirroring Simulator for the single-stage
// model. The reported deviation subtracts the total IR drop so constant
// current sits at zero.
type TwoStageSimulator struct {
	p     TwoStageParams
	dt    float64
	state TwoStageState
	cycle uint64
}

// NewTwoStageSimulator returns a simulator initialised to the DC steady
// state for core current i0.
func NewTwoStageSimulator(p TwoStageParams, i0 float64) *TwoStageSimulator {
	s := &TwoStageSimulator{p: p, dt: 1 / p.ClockHz}
	s.Reset(i0)
	return s
}

// Reset restores the DC steady state for core current i0.
func (s *TwoStageSimulator) Reset(i0 float64) {
	s.state = TwoStageState{
		V1: -s.p.R1 * i0,
		I1: i0,
		V2: -(s.p.R1 + s.p.R2) * i0,
		I2: i0,
	}
	s.cycle = 0
}

// Fork returns an independent copy of the simulator continuing from the
// same electrical state, mirroring Simulator.Fork.
func (s *TwoStageSimulator) Fork() *TwoStageSimulator {
	f := *s
	return &f
}

// Params returns the network parameters.
func (s *TwoStageSimulator) Params() TwoStageParams { return s.p }

// State returns the raw electrical state.
func (s *TwoStageSimulator) State() TwoStageState { return s.state }

// Cycle returns the number of steps taken.
func (s *TwoStageSimulator) Cycle() uint64 { return s.cycle }

func (s *TwoStageSimulator) derivatives(st TwoStageState, icpu float64) (dV1, dI1, dV2, dI2 float64) {
	dI1 = -(st.V1 + s.p.R1*st.I1) / s.p.L1
	dV1 = (st.I1 - st.I2) / s.p.C1
	dI2 = (st.V1 - st.V2 - s.p.R2*st.I2) / s.p.L2
	dV2 = (st.I2 - icpu) / s.p.C2
	return
}

// Step advances one processor cycle with core current icpu and returns
// the die-node deviation with the IR drop removed.
func (s *TwoStageSimulator) Step(icpu float64) float64 {
	st := s.state
	dV1a, dI1a, dV2a, dI2a := s.derivatives(st, icpu)
	pred := TwoStageState{
		V1: st.V1 + s.dt*dV1a, I1: st.I1 + s.dt*dI1a,
		V2: st.V2 + s.dt*dV2a, I2: st.I2 + s.dt*dI2a,
	}
	dV1b, dI1b, dV2b, dI2b := s.derivatives(pred, icpu)
	st.V1 += s.dt * 0.5 * (dV1a + dV1b)
	st.I1 += s.dt * 0.5 * (dI1a + dI1b)
	st.V2 += s.dt * 0.5 * (dV2a + dV2b)
	st.I2 += s.dt * 0.5 * (dI2a + dI2b)
	s.state = st
	s.cycle++
	return s.Deviation(icpu)
}

// Deviation returns the reported die-node deviation for this cycle's
// core current.
func (s *TwoStageSimulator) Deviation(icpu float64) float64 {
	return s.state.V2 + (s.p.R1+s.p.R2)*icpu
}
