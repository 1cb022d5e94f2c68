package circuit

import "fmt"

// Network kinds.
const (
	// NetworkLumped is the single lumped RLC of Figure 1(b).
	NetworkLumped = "lumped"
	// NetworkTwoStage is the two-loop network of Section 2.2.
	NetworkTwoStage = "twostage"
	// NetworkMultiDomain is the distributed multi-domain PDN stack.
	NetworkMultiDomain = "multidomain"
)

// NetworkKinds returns every network kind, the lumped default first.
func NetworkKinds() []string {
	return []string{NetworkLumped, NetworkTwoStage, NetworkMultiDomain}
}

// NetworkConfig selects and parameterises a PDN model. Exactly one
// parameter section is meaningful — the one matching Kind — and
// Normalized clears the rest so equal networks encode equally.
type NetworkConfig struct {
	// Kind selects the model; empty means NetworkLumped.
	Kind string
	// Lumped parameterises NetworkLumped; nil means Table1.
	Lumped *Params
	// TwoStage parameterises NetworkTwoStage; nil means Table1TwoStage.
	TwoStage *TwoStageParams
	// MultiDomain parameterises NetworkMultiDomain; nil means
	// Table1TwoDomain.
	MultiDomain *MultiDomainParams
}

// NetworkSections is storage for a normalized config's parameter
// section, one field per kind: NormalizedIn writes the selected section
// there, so the caller decides where it lives.
type NetworkSections struct {
	Lumped      Params
	TwoStage    TwoStageParams
	MultiDomain MultiDomainParams
}

// table1TwoDomain is the multi-domain default every normalized config
// shares, so a default network costs no fresh slices; nothing may
// modify it.
var table1TwoDomain = Table1TwoDomain()

// Normalized resolves the config's defaults: the kind (empty means
// lumped), a private copy of the selected model's parameter section
// (its defaults when nil), and no other section — so two configs
// describing the same network become structurally identical, which is
// what lets the engine key specs on the resolved form. The copy is one
// level deep: a multi-domain section's domains are copied, but each
// domain's PowerUnits is shared with c, or, for the default, with every
// config normalized to it, and must not be modified. Unknown kinds
// error, listing the kinds.
func (c NetworkConfig) Normalized() (NetworkConfig, error) {
	n, err := c.NormalizedIn(new(NetworkSections))
	if err == nil && n.MultiDomain != nil {
		n.MultiDomain.Domains = append([]DomainParams(nil), n.MultiDomain.Domains...)
	}
	return n, err
}

// NormalizedIn is Normalized with the selected section stored in s, and
// a multi-domain section's Domains slice left shared with c (or with the
// default), not copied: for a caller that is done with the result
// before c can change, as checking and keying are.
func (c NetworkConfig) NormalizedIn(s *NetworkSections) (NetworkConfig, error) {
	switch c.Kind {
	case "", NetworkLumped:
		s.Lumped = Table1()
		if c.Lumped != nil {
			s.Lumped = *c.Lumped
		}
		return NetworkConfig{Kind: NetworkLumped, Lumped: &s.Lumped}, nil
	case NetworkTwoStage:
		s.TwoStage = Table1TwoStage()
		if c.TwoStage != nil {
			s.TwoStage = *c.TwoStage
		}
		return NetworkConfig{Kind: NetworkTwoStage, TwoStage: &s.TwoStage}, nil
	case NetworkMultiDomain:
		s.MultiDomain = table1TwoDomain
		if c.MultiDomain != nil {
			s.MultiDomain = *c.MultiDomain
		}
		return NetworkConfig{Kind: NetworkMultiDomain, MultiDomain: &s.MultiDomain}, nil
	}
	return NetworkConfig{}, fmt.Errorf("circuit: unknown network kind %q (registered kinds: %v)", c.Kind, NetworkKinds())
}

// Validate resolves and checks the config without building a network.
func (c NetworkConfig) Validate() error {
	var s NetworkSections
	n, err := c.NormalizedIn(&s)
	if err != nil {
		return err
	}
	return n.check()
}

// DomainCount returns the resolved config's domain count (zero for an
// unknown kind).
func (c NetworkConfig) DomainCount() int {
	var s NetworkSections
	n, err := c.NormalizedIn(&s)
	if err != nil {
		return 0
	}
	return n.domains()
}

// BuildNetwork resolves, validates, and constructs the configured
// network at the DC steady state for per-domain draws i0.
func BuildNetwork(c NetworkConfig, i0 []float64) (Network, error) {
	n, err := c.Normalized()
	if err == nil {
		err = n.check()
	}
	if err != nil {
		return nil, err
	}
	if nd := n.domains(); len(i0) != nd {
		return nil, fmt.Errorf("circuit: network %q has %d domains, got %d initial currents", n.Kind, nd, len(i0))
	}
	switch n.Kind {
	case NetworkLumped:
		return &lumpedNetwork{sim: NewSimulator(*n.Lumped, i0[0])}, nil
	case NetworkTwoStage:
		return &twoStageNetwork{sim: NewTwoStageSimulator(*n.TwoStage, i0[0])}, nil
	}
	return NewMultiDomainSimulator(*n.MultiDomain, i0), nil
}

// check validates a normalized config's parameter section.
func (n NetworkConfig) check() error {
	switch n.Kind {
	case NetworkLumped:
		return n.Lumped.Validate()
	case NetworkTwoStage:
		return n.TwoStage.Validate()
	}
	return n.MultiDomain.Validate()
}

// domains returns a normalized config's domain count.
func (n NetworkConfig) domains() int {
	if n.Kind == NetworkMultiDomain {
		return len(n.MultiDomain.Domains)
	}
	return 1
}

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
	// Kind names the network's kind (NetworkConfig.Kind).
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
