package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
)

// TestKindsCoverAllTechniques pins the registered kind set: base first,
// then the paper's technique, then the related-work baselines.
func TestKindsCoverAllTechniques(t *testing.T) {
	want := []TechniqueKind{
		TechniqueNone, TechniqueTuning, TechniqueVoltageControl, TechniqueDamping,
		TechniqueConvolution, TechniqueWavelet, TechniqueDualBand, TechniqueDomainTuning,
	}
	got := Kinds()
	if len(got) != len(want) {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Kinds()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestCrossTechniqueKeysNeverCollide: two specs differing only in
// Technique must never share a cache key — a collision would replay one
// technique's cached result for another.
func TestCrossTechniqueKeysNeverCollide(t *testing.T) {
	seen := map[Key]TechniqueKind{}
	for _, kind := range Kinds() {
		k, err := Spec{App: "swim", Technique: kind}.Key()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("techniques %q and %q share a key", prev, kind)
		}
		seen[k] = kind
	}
}

// TestExecuteAllKinds: every registered kind constructs and runs through
// the single Execute path with a defaulted configuration.
func TestExecuteAllKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one small simulation per technique")
	}
	for _, kind := range Kinds() {
		res, err := Execute(Spec{App: "swim", Instructions: 5_000, Technique: kind})
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if res.Cycles == 0 {
			t.Errorf("%s: ran zero cycles", kind)
		}
	}
}

// TestNormalizeMidAmpsMatchesPowerModel guards the envelope the
// registry's Normalize and Build see (pure arithmetic, so Key is total
// over junk systems) against drifting from a built power.Model's own
// MidAmps and PhantomFireAmps. A mismatch would make the cached key or
// a technique's configuration disagree with the simulated machine.
func TestNormalizeMidAmpsMatchesPowerModel(t *testing.T) {
	for _, cfg := range []sim.Config{
		sim.DefaultConfig(),
		func() sim.Config {
			c := sim.DefaultConfig()
			c.Power.PeakWatts = 96
			c.Power.IdleWatts = 31
			c.Power.Vdd = 0.9
			return c
		}(),
	} {
		pm := power.New(cfg.Power, cfg.CPU)
		want := pm.MidAmps()
		env := envOf(&cfg)
		if env.MidAmps != want || env.PhantomFireAmps != pm.PhantomFireAmps() {
			t.Errorf("env %+v, power model mid %.17g / phantom fire %.17g", env, want, pm.PhantomFireAmps())
		}

		spec := Spec{App: "swim", Technique: TechniqueTuning, System: &cfg}
		tc := DefaultTuningConfig(100)
		tc.PhantomTargetAmps = 0
		spec.Tuning = &tc
		n, _, err := spec.normalized()
		if err != nil {
			t.Fatal(err)
		}
		if n.Tuning.PhantomTargetAmps != want {
			t.Errorf("normalized PhantomTargetAmps %.17g, want power-model mid %.17g",
				n.Tuning.PhantomTargetAmps, want)
		}
	}
}

// TestRegistryCompleteness asserts every sim.Technique adapter defined
// in internal/sim/techniques.go has a registered descriptor: the count
// of adapter types (those with a Name method, the sim.Technique
// identity) must equal the count of registered constructors. A new
// adapter without a registration fails here, not silently at a driver.
func TestRegistryCompleteness(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "../sim/techniques.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var adapters []string
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Name.Name != "Name" {
			continue
		}
		recv := fn.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if ident, ok := recv.(*ast.Ident); ok {
			adapters = append(adapters, ident.Name)
		}
	}
	if len(adapters) == 0 {
		t.Fatal("found no sim.Technique adapters in internal/sim/techniques.go — has the file moved?")
	}
	var constructors int
	for _, d := range registryOrder {
		if d.Build != nil {
			constructors++
		}
	}
	if constructors != len(adapters) {
		t.Errorf("internal/sim/techniques.go defines %d adapters (%s) but the registry has %d constructors — register a descriptor for the new technique",
			len(adapters), strings.Join(adapters, ", "), constructors)
	}
}
