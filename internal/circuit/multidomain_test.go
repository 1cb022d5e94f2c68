package circuit

import (
	"fmt"
	"math"
	"testing"
)

func TestMultiDomainValidate(t *testing.T) {
	if err := Table1TwoDomain().Validate(); err != nil {
		t.Fatalf("Table1TwoDomain invalid: %v", err)
	}
	if err := ThreeSupplyExample().Validate(); err != nil {
		t.Fatalf("ThreeSupplyExample invalid: %v", err)
	}
	bad := Table1TwoDomain()
	bad.Domains = nil
	if bad.Validate() == nil {
		t.Error("accepted zero domains")
	}
	bad = Table1TwoDomain()
	bad.Domains[1].Name = bad.Domains[0].Name
	if bad.Validate() == nil {
		t.Error("accepted duplicate domain names")
	}
	bad = Table1TwoDomain()
	bad.Cpkg = 0
	if bad.Validate() == nil {
		t.Error("accepted zero package capacitance")
	}
	bad = Table1TwoDomain()
	bad.Domains[0].Lbump = -1
	if bad.Validate() == nil {
		t.Error("accepted negative bump inductance")
	}
}

// TestMultiDomainSteadyStateZeroDeviation: constant per-domain draws at
// the DC initialisation level must produce zero deviation on every
// domain (IR drops are subtracted), matching the single-stage contract.
func TestMultiDomainSteadyStateZeroDeviation(t *testing.T) {
	p := Table1TwoDomain()
	i0 := []float64{23, 12}
	s := NewMultiDomainSimulator(p, i0)
	dev := make([]float64, 2)
	for c := 0; c < 20000; c++ {
		s.Step(i0, dev)
		for d, v := range dev {
			if math.Abs(v) > 1e-9 {
				t.Fatalf("cycle %d domain %d: deviation %g under constant current", c, d, v)
			}
		}
	}
}

// TestMultiDomainDieResonanceMatchesTable1: the two half-die domains in
// parallel reproduce the Table 1 electricals, so each domain's die-level
// resonance sits at the Table 1 resonant frequency.
func TestMultiDomainDieResonanceMatchesTable1(t *testing.T) {
	p := Table1TwoDomain()
	want := Table1().ResonantFrequency()
	for d, dp := range p.Domains {
		got := dp.ResonantFrequency()
		if math.Abs(got-want)/want > 1e-9 {
			t.Errorf("domain %d resonance %.3g Hz, want %.3g Hz", d, got, want)
		}
	}
}

// TestMultiDomainImpedanceHasMultiplePeaks: the die-node impedance
// profile shows one local maximum per resonant tier — die, package, and
// board — which is the multi-peak structure the decap literature
// predicts and a single lumped RLC cannot produce.
func TestMultiDomainImpedanceHasMultiplePeaks(t *testing.T) {
	p := Table1TwoDomain()
	pts := p.ImpedanceSweep(0, 100e3, 1e9, 4000)
	peaks := LocalPeaks(pts)
	if len(peaks) < 2 {
		t.Fatalf("found %d impedance peaks (%v), want ≥ 2", len(peaks), peaks)
	}
	// The predicted tier resonances must each be near a found peak.
	predicted := []float64{
		p.BoardResonantFrequency(),
		p.PackageResonantFrequency(),
		p.Domains[0].ResonantFrequency(),
	}
	for _, f := range predicted {
		nearest := math.Inf(1)
		for _, pk := range peaks {
			if r := math.Abs(pk.FrequencyHz-f) / f; r < nearest {
				nearest = r
			}
		}
		if nearest > 0.35 {
			t.Errorf("no impedance peak near predicted resonance %.3g Hz (peaks: %v)", f, peaks)
		}
	}

	// For comparison the lumped Table 1 profile has exactly one.
	lumped := LocalPeaks(Table1().ImpedanceSweep(1e6, 1e9, 4000))
	if len(lumped) != 1 {
		t.Errorf("lumped Table 1 profile has %d local peaks, want 1", len(lumped))
	}
}

// TestMultiDomainPackageResonanceSuperposes: in-phase square-wave draws
// on both domains at the package resonance build a much larger die-node
// deviation than either domain driven alone — the constructive
// interference at the shared tier that motivates the multi-domain model.
func TestMultiDomainPackageResonanceSuperposes(t *testing.T) {
	p := Table1TwoDomain()
	period := int(math.Round(p.ClockHz / p.PackageResonantFrequency()))
	run := func(amp0, amp1 float64) float64 {
		s := NewMultiDomainSimulator(p, []float64{20, 20})
		dev := make([]float64, 2)
		draws := make([]float64, 2)
		peak := 0.0
		for c := 0; c < 40*period; c++ {
			sq := -1.0
			if c%period < period/2 {
				sq = 1.0
			}
			draws[0] = 20 + amp0*sq
			draws[1] = 20 + amp1*sq
			s.Step(draws, dev)
			for _, v := range dev {
				if a := math.Abs(v); a > peak {
					peak = a
				}
			}
		}
		return peak
	}
	both := run(10, 10)
	alone := run(10, 0)
	if both < 1.5*alone {
		t.Errorf("in-phase peak %.4g V not appreciably above single-domain peak %.4g V", both, alone)
	}
}

// TestMultiDomainForkBitIdentical: stepping a fork and its original with
// identical draw sequences produces bit-identical deviations, and
// diverging the fork does not disturb the original.
func TestMultiDomainForkBitIdentical(t *testing.T) {
	p := Table1TwoDomain()
	a := NewMultiDomainSimulator(p, []float64{20, 15})
	dev := make([]float64, 2)
	draws := []float64{20, 15}
	for c := 0; c < 500; c++ {
		draws[0] = 20 + 5*math.Sin(float64(c)/40)
		draws[1] = 15 + 3*math.Sin(float64(c)/25)
		a.Step(draws, dev)
	}
	b := a.Fork().(*MultiDomainSimulator)
	devA := make([]float64, 2)
	devB := make([]float64, 2)
	for c := 0; c < 500; c++ {
		draws[0] = 20 + 7*math.Sin(float64(c)/33)
		draws[1] = 15 + 4*math.Sin(float64(c)/50)
		a.Step(draws, devA)
		b.Step(draws, devB)
		if devA[0] != devB[0] || devA[1] != devB[1] {
			t.Fatalf("cycle %d: fork deviations %v != original %v", c, devB, devA)
		}
	}
	// Diverge the fork; the original's trajectory must be unaffected.
	ref := a.Fork().(*MultiDomainSimulator)
	b.Step([]float64{90, 90}, devB)
	for c := 0; c < 100; c++ {
		a.Step(draws, devA)
		ref.Step(draws, devB)
		if devA[0] != devB[0] || devA[1] != devB[1] {
			t.Fatalf("cycle %d: original perturbed by fork divergence", c)
		}
	}
}

// TestMultiDomainStepAllocationFree: Step allocates nothing per cycle at
// any domain count (two, and nine, more than a small fixed-size scratch
// would hold), on a built network and on its fork.
func TestMultiDomainStepAllocationFree(t *testing.T) {
	for _, nd := range []int{2, 9} {
		p := Table1TwoDomain()
		core := p.Domains[0]
		p.Domains = make([]DomainParams, nd)
		i0 := make([]float64, nd)
		for d := range p.Domains {
			p.Domains[d] = core
			p.Domains[d].Name = fmt.Sprintf("d%d", d)
			i0[d] = 10
		}
		net, err := BuildNetwork(NetworkConfig{Kind: NetworkMultiDomain, MultiDomain: &p}, i0)
		if err != nil {
			t.Fatalf("%d domains: %v", nd, err)
		}
		draws, dev := make([]float64, nd), make([]float64, nd)
		for _, n := range []Network{net, net.Fork()} {
			c := 0
			allocs := testing.AllocsPerRun(200, func() {
				c++
				draws[c%nd] = 10 + 5*math.Sin(float64(c)/20)
				n.Step(draws, dev)
			})
			if allocs != 0 {
				t.Errorf("%d domains: Step allocated %v times per cycle, want 0", nd, allocs)
			}
		}
	}
}

// TestMultiDomainDCImpedance: at DC every capacitor is open, so a
// domain sees the series resistance of its path to the source.
func TestMultiDomainDCImpedance(t *testing.T) {
	p := Table1TwoDomain()
	for d := range p.Domains {
		want := p.Rboard + p.Rpkg + p.Domains[d].Rbump
		if got := p.Impedance(d, 0); got != want {
			t.Errorf("domain %d DC impedance %g, want %g", d, got, want)
		}
	}
}

// TestNetworkRegistryKinds pins the network kind set and order (the
// canonical encoding does not depend on the order, but flag help, error
// text and the benchmark's spec lists do).
func TestNetworkRegistryKinds(t *testing.T) {
	want := []string{NetworkLumped, NetworkTwoStage, NetworkMultiDomain}
	got := NetworkKinds()
	if len(got) != len(want) {
		t.Fatalf("NetworkKinds() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("NetworkKinds()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestNetworkConfigNormalization: empty kind resolves to lumped with
// Table 1 parameters; unknown kinds error listing the known kinds;
// normalization clears the sections of unselected kinds.
func TestNetworkConfigNormalization(t *testing.T) {
	n, err := NetworkConfig{}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != NetworkLumped || n.Lumped == nil || *n.Lumped != Table1() {
		t.Errorf("empty config normalized to %+v, want lumped Table 1", n)
	}

	ts := Table1TwoStage()
	n, err = NetworkConfig{Kind: NetworkMultiDomain, TwoStage: &ts}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.TwoStage != nil {
		t.Error("normalization kept an unselected kind's parameter section")
	}
	if n.MultiDomain == nil || len(n.MultiDomain.Domains) != 2 {
		t.Errorf("multidomain defaults not resolved: %+v", n.MultiDomain)
	}

	_, err = NetworkConfig{Kind: "mesh"}.Normalized()
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, k := range NetworkKinds() {
		if !containsStr(err.Error(), k) {
			t.Errorf("unknown-kind error %q does not list kind %q", err, k)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestBuildNetworkAllKinds: every kind builds with default
// parameters and honours the Network contract at DC.
func TestBuildNetworkAllKinds(t *testing.T) {
	for _, kind := range NetworkKinds() {
		cfg := NetworkConfig{Kind: kind}
		nd := cfg.DomainCount()
		if nd < 1 {
			t.Errorf("%s: domain count %d", kind, nd)
			continue
		}
		i0 := make([]float64, nd)
		for d := range i0 {
			i0[d] = 10
		}
		net, err := BuildNetwork(cfg, i0)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if net.Kind() != kind || net.Domains() != nd {
			t.Errorf("%s: built network reports kind %q domains %d", kind, net.Kind(), net.Domains())
		}
		for d := 0; d < nd; d++ {
			info := net.DomainInfo(d)
			if info.NominalVolts <= 0 || info.NoiseMarginVolts <= 0 || info.ResonantFrequencyHz <= 0 {
				t.Errorf("%s domain %d: incomplete DomainInfo %+v", kind, d, info)
			}
		}
		dev := make([]float64, nd)
		for c := 0; c < 1000; c++ {
			net.Step(i0, dev)
			for d, v := range dev {
				if math.Abs(v) > 1e-9 {
					t.Errorf("%s domain %d: DC deviation %g", kind, d, v)
					break
				}
			}
		}
		if _, err := BuildNetwork(cfg, make([]float64, nd+1)); err == nil {
			t.Errorf("%s: accepted wrong initial-current count", kind)
		}
	}
}
