package circuit

// State is the instantaneous electrical state of the second-order supply
// of Figure 1(b): the deviation of the die node voltage from its source
// value and the current through the supply inductor.
type State struct {
	// V is the raw node voltage in volts relative to the (eliminated)
	// source, i.e. it includes the IR drop.
	V float64
	// IL is the inductor (supply) current in amps.
	IL float64
}

// Simulator advances the Figure 1(b) circuit one processor cycle at a
// time, driven by the per-cycle processor core current. The governing
// equations, with the voltage source shorted by linearity, are
//
//	dV/dt  = (IL - Icpu) / C
//	dIL/dt = -(V + R·IL) / L
//
// The reported noise deviation subtracts the IR drop (paper §4.1): a
// constant processor current produces zero deviation in steady state.
type Simulator struct {
	p     Params
	dt    float64
	state State
	cycle uint64
}

// NewSimulator returns a transient simulator for supply p using the Heun
// formula with a time step of one processor clock cycle. The initial state
// is the DC steady state for current i0, so simulations begin glitch-free.
func NewSimulator(p Params, i0 float64) *Simulator {
	s := &Simulator{p: p, dt: 1 / p.ClockHz}
	s.Reset(i0)
	return s
}

// Reset restores the DC steady state for processor current i0: the
// inductor carries i0 and the node sits at the IR drop below the source.
func (s *Simulator) Reset(i0 float64) {
	s.state = State{V: -s.p.R * i0, IL: i0}
	s.cycle = 0
}

// Fork returns an independent copy of the simulator continuing from the
// same electrical state: stepping both with identical current sequences
// produces bit-identical deviations.
func (s *Simulator) Fork() *Simulator {
	f := *s
	return &f
}

// Params returns the supply parameters the simulator was built with.
func (s *Simulator) Params() Params { return s.p }

// State returns the raw electrical state (including IR drop).
func (s *Simulator) State() State { return s.state }

// Cycle returns the number of steps taken since construction or Reset.
func (s *Simulator) Cycle() uint64 { return s.cycle }

// derivatives evaluates the circuit ODE right-hand side.
func (s *Simulator) derivatives(st State, icpu float64) (dV, dIL float64) {
	dV = (st.IL - icpu) / s.p.C
	dIL = -(st.V + s.p.R*st.IL) / s.p.L
	return dV, dIL
}

// Step advances the circuit by one processor cycle during which the core
// draws icpu amps, with the Heun predictor-corrector (improved Euler,
// paper §4.1), and returns the supply-voltage deviation in volts with
// the IR drop subtracted. A deviation whose magnitude exceeds
// Params.NoiseMarginVolts is a noise-margin violation.
func (s *Simulator) Step(icpu float64) float64 {
	st := s.state
	dV1, dIL1 := s.derivatives(st, icpu)
	pred := State{V: st.V + s.dt*dV1, IL: st.IL + s.dt*dIL1}
	dV2, dIL2 := s.derivatives(pred, icpu)
	st.V += s.dt * 0.5 * (dV1 + dV2)
	st.IL += s.dt * 0.5 * (dIL1 + dIL2)
	s.state = st
	s.cycle++
	return s.Deviation(icpu)
}

// Deviation returns the current noise deviation in volts given the core
// current drawn this cycle, i.e. the node voltage with the IR drop for
// that current level added back out.
func (s *Simulator) Deviation(icpu float64) float64 {
	return s.state.V + s.p.R*icpu
}

// RunResult summarises a batch transient simulation.
type RunResult struct {
	// Deviations holds the per-cycle noise deviation in volts.
	Deviations []float64
	// Violations is the number of cycles whose deviation exceeded the
	// noise margin.
	Violations int
	// PeakDeviation is the largest |deviation| observed, in volts.
	PeakDeviation float64
}

// Run simulates the supply for the entire current waveform (one sample per
// cycle) and returns the per-cycle deviations plus summary statistics.
// The simulator's state advances; call Reset to reuse it.
func (s *Simulator) Run(current []float64) RunResult {
	res := RunResult{Deviations: make([]float64, len(current))}
	margin := s.p.NoiseMarginVolts()
	for i, icpu := range current {
		d := s.Step(icpu)
		res.Deviations[i] = d
		ad := d
		if ad < 0 {
			ad = -ad
		}
		if ad > res.PeakDeviation {
			res.PeakDeviation = ad
		}
		if ad > margin {
			res.Violations++
		}
	}
	return res
}
