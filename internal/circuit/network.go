package circuit

// Network is the power-delivery seam the simulation loop steps: any
// transient PDN model that maps per-domain current draws to per-domain
// supply deviations, one processor cycle at a time. The single lumped
// RLC of Figure 1(b) and the two-stage network of Section 2.2 are
// one-domain Networks (lumpedNetwork and twoStageNetwork); the
// distributed multi-domain stack of MultiDomainParams exposes one
// entry per supply domain.
//
// Step's contract mirrors the scalar simulators: the deviation written
// for a domain has that domain's IR drop subtracted, so a constant draw
// sits at zero, and |dev| beyond the domain's noise margin is a
// violation. Implementations must be deterministic and Fork must
// deep-copy all electrical state — the sim.Machine fork bit-identity
// contract extends through the network.
type Network interface {
	// Kind names the registered network implementation.
	Kind() string
	// Domains returns the number of supply domains (≥ 1).
	Domains() int
	// DomainInfo describes domain d's electrical envelope.
	DomainInfo(d int) DomainInfo
	// Step advances one processor cycle during which domain d draws
	// draws[d] amps, writing each domain's IR-free deviation into
	// dev[d]. Both slices must have length Domains().
	Step(draws, dev []float64)
	// Fork returns an independent deep copy continuing from the same
	// electrical state: identical future draw sequences produce
	// bit-identical deviations on both copies.
	Fork() Network
}

// DomainInfo is the per-domain metadata a Network exposes to the layers
// above it (margins for violation checks, resonance for detector
// configuration, nominal voltage for reports).
type DomainInfo struct {
	// Name labels the domain in reports ("core", "fp", ...).
	Name string
	// NominalVolts is the domain's supply voltage.
	NominalVolts float64
	// NoiseMarginVolts is the absolute deviation bound.
	NoiseMarginVolts float64
	// ResonantFrequencyHz is the domain's dominant die-level resonance
	// (the local L·C loop), used to seed detector bands.
	ResonantFrequencyHz float64
}

// lumpedNetwork adapts the Figure 1(b) Simulator to the Network seam.
// Step forwards to the exact scalar arithmetic, so rehoming the lumped
// supply behind Network is provably behaviour-preserving (the golden
// reports stay byte-identical).
type lumpedNetwork struct {
	sim *Simulator
}

func (n *lumpedNetwork) Kind() string { return NetworkLumped }

func (n *lumpedNetwork) Domains() int { return 1 }

func (n *lumpedNetwork) DomainInfo(d int) DomainInfo {
	p := n.sim.Params()
	return DomainInfo{
		Name:                "core",
		NominalVolts:        p.Vdd,
		NoiseMarginVolts:    p.NoiseMarginVolts(),
		ResonantFrequencyHz: p.ResonantFrequency(),
	}
}

func (n *lumpedNetwork) Step(draws, dev []float64) {
	dev[0] = n.sim.Step(draws[0])
}

func (n *lumpedNetwork) Fork() Network { return &lumpedNetwork{sim: n.sim.Fork()} }

// twoStageNetwork adapts the Section 2.2 TwoStageSimulator to the
// Network seam, again forwarding to the unchanged scalar arithmetic.
type twoStageNetwork struct {
	sim *TwoStageSimulator
}

func (n *twoStageNetwork) Kind() string { return NetworkTwoStage }

func (n *twoStageNetwork) Domains() int { return 1 }

func (n *twoStageNetwork) DomainInfo(d int) DomainInfo {
	p := n.sim.Params()
	return DomainInfo{
		Name:                "core",
		NominalVolts:        p.Vdd,
		NoiseMarginVolts:    p.NoiseMarginVolts(),
		ResonantFrequencyHz: p.MediumStage().ResonantFrequency(),
	}
}

func (n *twoStageNetwork) Step(draws, dev []float64) {
	dev[0] = n.sim.Step(draws[0])
}

func (n *twoStageNetwork) Fork() Network { return &twoStageNetwork{sim: n.sim.Fork()} }
