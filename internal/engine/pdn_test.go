package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
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
// client errors from Validate (naming the registered kinds for the
// former), while Key stays total over them.
func TestPDNValidation(t *testing.T) {
	bad := Spec{App: "swim", PDN: &circuit.NetworkConfig{Kind: "mesh"}}
	err := bad.Validate()
	if err == nil {
		t.Fatal("unknown network kind validated")
	}
	if !strings.Contains(err.Error(), "mesh") || !strings.Contains(err.Error(), circuit.NetworkLumped) {
		t.Errorf("error %q does not name the bad kind and the registered kinds", err)
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

// TestNetworkRegistryCompleteness asserts the network registry is wired
// the way the technique registry is: every registered kind corresponds
// to one parameter-section pointer field of circuit.NetworkConfig (all
// fields except Kind), and every RegisterNetwork call in the circuit
// package's init is reachable (the registered count matches the source).
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
		t.Errorf("circuit.NetworkConfig has %d parameter sections but %d registered kinds %v — register a descriptor for the new section",
			sections, len(kinds), kinds)
	}

	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "../circuit/netregistry.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	registrations := 0
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if ident, ok := call.Fun.(*ast.Ident); ok && ident.Name == "RegisterNetwork" {
			registrations++
		}
		return true
	})
	if registrations == 0 {
		t.Fatal("found no RegisterNetwork calls in internal/circuit/netregistry.go — has the file moved?")
	}
	if registrations != len(kinds) {
		t.Errorf("internal/circuit/netregistry.go registers %d networks but NetworkKinds() reports %d (%v)",
			registrations, len(kinds), kinds)
	}
}
