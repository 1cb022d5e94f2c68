package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// TestPDNTopLevelFoldsIntoSystem: the spec-level PDN field is sugar for
// System.PDN, so the two spellings of the same network must share a
// cache key — and an explicit section equal to the kind's defaults must
// collide with the bare kind selector.
func TestPDNTopLevelFoldsIntoSystem(t *testing.T) {
	for _, kind := range circuit.NetworkKinds() {
		top := Spec{App: "swim", PDN: &circuit.NetworkConfig{Kind: kind}}
		sys := sim.DefaultConfig()
		sys.PDN = &circuit.NetworkConfig{Kind: kind}
		inSystem := Spec{App: "swim", System: &sys}

		kTop, err := top.Key()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		kSys, err := inSystem.Key()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if kTop != kSys {
			t.Errorf("%s: spec-level PDN key differs from System.PDN key", kind)
		}

		explicit, err := circuit.NetworkConfig{Kind: kind}.Normalized()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		kExplicit, err := Spec{App: "swim", PDN: &explicit}.Key()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if kExplicit != kTop {
			t.Errorf("%s: explicit default parameters key differently from the bare kind", kind)
		}
	}
}

// TestSharedMultiDomainDefaultUnchanged: every spec on the default
// multi-domain network normalizes onto one shared default (its Domains
// and each domain's PowerUnits), so nothing that runs on it may write
// that default. Keying, validating, building and simulating every
// technique on it — as one lockstep group, and each alone in a traced
// run — leaves it equal to a fresh circuit.Table1TwoDomain().
func TestSharedMultiDomainDefaultUnchanged(t *testing.T) {
	pdn := circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain}
	var a, b circuit.NetworkSections
	na, err := pdn.NormalizedIn(&a)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := pdn.NormalizedIn(&b)
	if err != nil {
		t.Fatal(err)
	}
	if &na.MultiDomain.Domains[0] != &nb.MultiDomain.Domains[0] {
		t.Fatal("two normalizations of the default multi-domain network do not share its domains")
	}
	var specs []Spec
	for _, tech := range Kinds() {
		s := Spec{App: "swim", Instructions: 5_000, Technique: tech, PDN: &circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain}}
		if _, err := s.Key(); err != nil {
			t.Fatalf("%s: %v", tech, err)
		}
		if s.Validate() != nil {
			continue
		}
		if _, _, err := BuildTechnique(s); err != nil {
			t.Fatalf("%s: %v", tech, err)
		}
		p, err := Prepare(s)
		if err != nil {
			t.Fatalf("%s: %v", tech, err)
		}
		if _, err := p.Run(func(sim.TracePoint) {}); err != nil {
			t.Fatalf("%s: %v", tech, err)
		}
		specs = append(specs, s)
	}
	if len(specs) < 2 {
		t.Fatalf("%d techniques validate on the default multi-domain network, want a group", len(specs))
	}
	if _, err := New(Options{Parallelism: 2}).RunAll(context.Background(), specs, nil); err != nil {
		t.Fatal(err)
	}
	if want := circuit.Table1TwoDomain(); !reflect.DeepEqual(*na.MultiDomain, want) {
		t.Errorf("the shared multi-domain default changed:\n got %+v\nwant %+v", *na.MultiDomain, want)
	}
}

// TestLumpedSpellingsShareKeys: no network, the bare lumped kind, and
// the lumped kind with explicit Table 1 parameters are one canonical
// network, so they share both the cache key and the machine key (and
// therefore a lockstep group).
func TestLumpedSpellingsShareKeys(t *testing.T) {
	table1 := circuit.Table1()
	specs := []Spec{
		{App: "gzip"},
		{App: "gzip", PDN: &circuit.NetworkConfig{Kind: circuit.NetworkLumped}},
		{App: "gzip", PDN: &circuit.NetworkConfig{Kind: circuit.NetworkLumped, Lumped: &table1}},
	}
	var keys, machineKeys []Key
	for i, s := range specs {
		k, err := s.Key()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		mk, err := s.MachineKey()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		keys, machineKeys = append(keys, k), append(machineKeys, mk)
	}
	for i := 1; i < len(specs); i++ {
		if keys[i] != keys[0] {
			t.Errorf("spec %d: key %s, want %s", i, keys[i], keys[0])
		}
		if machineKeys[i] != machineKeys[0] {
			t.Errorf("spec %d: machine key %s, want %s", i, machineKeys[i], machineKeys[0])
		}
	}
	if groups := packGroups(specs, []int{0, 1, 2}); len(groups) != 1 {
		t.Errorf("packed into %d groups, want one lockstep group", len(groups))
	}
}

// TestPDNKeysDifferByKind: specs selecting different network kinds must
// never share a key — a collision would replay one network's cached
// result for another.
func TestPDNKeysDifferByKind(t *testing.T) {
	seen := map[Key]string{}
	record := func(label string, s Spec) {
		t.Helper()
		k, err := s.Key()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("networks %q and %q share a key", prev, label)
		}
		seen[k] = label
	}
	for _, kind := range circuit.NetworkKinds() {
		record(kind, Spec{App: "swim", PDN: &circuit.NetworkConfig{Kind: kind}})
	}
	// Parameter changes inside one kind's section must also move the key.
	p := circuit.Table1TwoDomain()
	p.Lpkg *= 2
	record("multidomain-lpkg2x", Spec{App: "swim",
		PDN: &circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain, MultiDomain: &p}})
}

// TestPDNValidation: unknown kinds and out-of-range sensor domains are
// client errors from Validate (naming the known kinds for the former),
// while Key stays total over them.
func TestPDNValidation(t *testing.T) {
	bad := Spec{App: "swim", PDN: &circuit.NetworkConfig{Kind: "mesh"}}
	err := bad.Validate()
	if err == nil {
		t.Fatal("unknown network kind validated")
	}
	if !strings.Contains(err.Error(), "mesh") || !strings.Contains(err.Error(), circuit.NetworkLumped) {
		t.Errorf("error %q does not name the bad kind and the known kinds", err)
	}
	if _, err := bad.Key(); err != nil {
		t.Errorf("key not total over an unknown network kind: %v", err)
	}

	sys := sim.DefaultConfig()
	sys.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain}
	sys.SensorDomain = 3 // two-domain default network: 0..2 valid
	if err := (Spec{App: "swim", System: &sys}).Validate(); err == nil {
		t.Error("out-of-range sensor domain validated")
	}
	sys.SensorDomain = 2
	if err := (Spec{App: "swim", System: &sys}).Validate(); err != nil {
		t.Errorf("in-range sensor domain rejected: %v", err)
	}
}

// TestPDNExecuteDomainTuning: the domain-tuning technique runs through
// the single Execute path on the default two-domain network, and its
// per-domain controllers see per-domain observations (the controller
// cycle accounting is non-trivial).
func TestPDNExecuteDomainTuning(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation")
	}
	res, err := Execute(Spec{
		App:          "swim",
		Instructions: 5_000,
		Technique:    TechniqueDomainTuning,
		PDN:          &circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("ran zero cycles")
	}
	if res.Tech.ControllerCycles != res.Cycles {
		t.Errorf("controller observed %d of %d cycles", res.Tech.ControllerCycles, res.Cycles)
	}
}

// TestNetworkRegistryCompleteness asserts every network kind has its
// parameter section: circuit.NetworkConfig carries one pointer section
// per kind in circuit.NetworkKinds (all fields except Kind), so a new
// section without a kind — or a kind without a section — fails here.
func TestNetworkRegistryCompleteness(t *testing.T) {
	typ := reflect.TypeOf(circuit.NetworkConfig{})
	sections := 0
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() == reflect.Pointer {
			sections++
		}
	}
	kinds := circuit.NetworkKinds()
	if sections != len(kinds) {
		t.Errorf("circuit.NetworkConfig has %d parameter sections but %d kinds %v — give the new section its kind",
			sections, len(kinds), kinds)
	}
}
