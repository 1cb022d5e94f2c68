// Network registry: the single place a PDN model is wired into the
// stack. A model registers one NetworkDescriptor — its kind string,
// config defaulting, validation, domain count, and constructor — and
// every consumer (sim.Machine construction, engine spec normalization
// and validation, cmd flag plumbing) walks the registry instead of
// switching on the kind, mirroring the engine's technique registry.
package circuit

import "fmt"

// Registered network kinds.
const (
	// NetworkLumped is the single lumped RLC of Figure 1(b).
	NetworkLumped = "lumped"
	// NetworkTwoStage is the two-loop network of Section 2.2.
	NetworkTwoStage = "twostage"
	// NetworkMultiDomain is the distributed multi-domain PDN stack.
	NetworkMultiDomain = "multidomain"
)

// NetworkConfig selects and parameterises a PDN model. Exactly one
// parameter section is meaningful — the one matching Kind — and
// Normalized clears the rest so equal networks encode equally.
type NetworkConfig struct {
	// Kind selects the registered model; empty means NetworkLumped.
	Kind string
	// Lumped parameterises NetworkLumped; nil means Table1.
	Lumped *Params
	// TwoStage parameterises NetworkTwoStage; nil means Table1TwoStage.
	TwoStage *TwoStageParams
	// MultiDomain parameterises NetworkMultiDomain; nil means
	// Table1TwoDomain.
	MultiDomain *MultiDomainParams
}

// NetworkDescriptor is one registered PDN model.
type NetworkDescriptor struct {
	// Kind is the model's identifier (NetworkConfig.Kind).
	Kind string
	// Clear removes the model's parameter section from a config; during
	// normalization every descriptor's Clear runs except the selected
	// model's, so only one section survives into a cache key.
	Clear func(c *NetworkConfig)
	// Normalize fills the model's parameter defaults in place.
	Normalize func(c *NetworkConfig)
	// Validate checks the resolved parameter section.
	Validate func(c *NetworkConfig) error
	// Domains returns the normalized config's domain count.
	Domains func(c *NetworkConfig) int
	// Build constructs the transient network initialised to the DC
	// steady state for per-domain draws i0 (len(i0) == Domains).
	Build func(c *NetworkConfig, i0 []float64) Network
}

var (
	networkRegistry      = map[string]*NetworkDescriptor{}
	networkRegistryOrder []*NetworkDescriptor
)

// RegisterNetwork adds a network descriptor. It panics on duplicate or
// incomplete registrations (registration happens at init time; a bad
// descriptor is a programming error).
func RegisterNetwork(d NetworkDescriptor) {
	if d.Kind == "" {
		panic("circuit.RegisterNetwork: empty network kind")
	}
	if _, dup := networkRegistry[d.Kind]; dup {
		panic(fmt.Sprintf("circuit.RegisterNetwork: duplicate network %q", d.Kind))
	}
	if d.Clear == nil || d.Normalize == nil || d.Validate == nil || d.Domains == nil || d.Build == nil {
		panic(fmt.Sprintf("circuit.RegisterNetwork: network %q is missing descriptor functions", d.Kind))
	}
	dd := d
	networkRegistry[d.Kind] = &dd
	networkRegistryOrder = append(networkRegistryOrder, &dd)
}

// NetworkKinds returns every registered network kind in registration
// order (the lumped default first).
func NetworkKinds() []string {
	out := make([]string, len(networkRegistryOrder))
	for i, d := range networkRegistryOrder {
		out[i] = d.Kind
	}
	return out
}

// lookupNetwork resolves a kind (empty means lumped) to its descriptor.
func lookupNetwork(kind string) (*NetworkDescriptor, bool) {
	if kind == "" {
		kind = NetworkLumped
	}
	d, ok := networkRegistry[kind]
	return d, ok
}

// Normalized resolves the config's defaults: the kind (empty means
// lumped), the selected model's parameter section, and the removal of
// every other section — so two configs describing the same network
// become structurally identical, which is what lets the engine key
// specs on the resolved form. Unknown kinds error, listing the
// registered kinds.
func (c NetworkConfig) Normalized() (NetworkConfig, error) {
	d, ok := lookupNetwork(c.Kind)
	if !ok {
		return NetworkConfig{}, fmt.Errorf("circuit: unknown network kind %q (registered kinds: %v)", c.Kind, NetworkKinds())
	}
	n := c
	n.Kind = d.Kind
	for _, o := range networkRegistryOrder {
		if o != d {
			o.Clear(&n)
		}
	}
	d.Normalize(&n)
	return n, nil
}

// Validate resolves and checks the config without building a network.
func (c NetworkConfig) Validate() error {
	n, err := c.Normalized()
	if err != nil {
		return err
	}
	return networkRegistry[n.Kind].Validate(&n)
}

// DomainCount returns the resolved config's domain count (zero for an
// unknown kind).
func (c NetworkConfig) DomainCount() int {
	n, err := c.Normalized()
	if err != nil {
		return 0
	}
	return networkRegistry[n.Kind].Domains(&n)
}

// BuildNetwork resolves, validates, and constructs the configured
// network at the DC steady state for per-domain draws i0.
func BuildNetwork(c NetworkConfig, i0 []float64) (Network, error) {
	n, err := c.Normalized()
	if err != nil {
		return nil, err
	}
	d := networkRegistry[n.Kind]
	if err := d.Validate(&n); err != nil {
		return nil, err
	}
	if want := d.Domains(&n); len(i0) != want {
		return nil, fmt.Errorf("circuit: network %q has %d domains, got %d initial currents", n.Kind, want, len(i0))
	}
	return d.Build(&n, i0), nil
}

func init() {
	RegisterNetwork(NetworkDescriptor{
		Kind:  NetworkLumped,
		Clear: func(c *NetworkConfig) { c.Lumped = nil },
		Normalize: func(c *NetworkConfig) {
			if c.Lumped == nil {
				p := Table1()
				c.Lumped = &p
			} else {
				p := *c.Lumped
				c.Lumped = &p
			}
		},
		Validate: func(c *NetworkConfig) error { return c.Lumped.Validate() },
		Domains:  func(c *NetworkConfig) int { return 1 },
		Build: func(c *NetworkConfig, i0 []float64) Network {
			return &lumpedNetwork{sim: NewSimulator(*c.Lumped, i0[0])}
		},
	})

	RegisterNetwork(NetworkDescriptor{
		Kind:  NetworkTwoStage,
		Clear: func(c *NetworkConfig) { c.TwoStage = nil },
		Normalize: func(c *NetworkConfig) {
			if c.TwoStage == nil {
				p := Table1TwoStage()
				c.TwoStage = &p
			} else {
				p := *c.TwoStage
				c.TwoStage = &p
			}
		},
		Validate: func(c *NetworkConfig) error { return c.TwoStage.Validate() },
		Domains:  func(c *NetworkConfig) int { return 1 },
		Build: func(c *NetworkConfig, i0 []float64) Network {
			return &twoStageNetwork{sim: NewTwoStageSimulator(*c.TwoStage, i0[0])}
		},
	})

	RegisterNetwork(NetworkDescriptor{
		Kind:  NetworkMultiDomain,
		Clear: func(c *NetworkConfig) { c.MultiDomain = nil },
		Normalize: func(c *NetworkConfig) {
			if c.MultiDomain == nil {
				p := Table1TwoDomain()
				c.MultiDomain = &p
			} else {
				p := *c.MultiDomain
				p.Domains = append([]DomainParams(nil), p.Domains...)
				c.MultiDomain = &p
			}
		},
		Validate: func(c *NetworkConfig) error { return c.MultiDomain.Validate() },
		Domains:  func(c *NetworkConfig) int { return len(c.MultiDomain.Domains) },
		Build: func(c *NetworkConfig, i0 []float64) Network {
			return NewMultiDomainSimulator(*c.MultiDomain, i0)
		},
	})
}
