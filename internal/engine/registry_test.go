package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/baselines/convctl"
	"repro/internal/baselines/damping"
	"repro/internal/baselines/voltctl"
	"repro/internal/baselines/wavelet"
	"repro/internal/circuit"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/tuning"
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

// TestNormalizeKeepsOnlySelectedSection: a spec carrying every technique
// section normalizes to one that keeps only the selected kind's section
// (none for base). The section fields are found by reflection — every
// pointer field of Spec but Workload, System and PDN — so a new section
// field that clearSections misses fails here.
func TestNormalizeKeepsOnlySelectedSection(t *testing.T) {
	owner := map[TechniqueKind]string{
		TechniqueNone:           "",
		TechniqueTuning:         "Tuning",
		TechniqueVoltageControl: "VoltageControl",
		TechniqueDamping:        "Damping",
		TechniqueConvolution:    "Convolution",
		TechniqueWavelet:        "Wavelet",
		TechniqueDualBand:       "DualBand",
		TechniqueDomainTuning:   "DomainTuning",
	}
	full := Spec{App: "swim"}
	fv := reflect.ValueOf(&full).Elem()
	var sections []string
	for i := 0; i < fv.NumField(); i++ {
		f := fv.Type().Field(i)
		if f.Type.Kind() != reflect.Pointer || f.Name == "Workload" || f.Name == "System" || f.Name == "PDN" {
			continue
		}
		sections = append(sections, f.Name)
		fv.Field(i).Set(reflect.New(f.Type.Elem()))
	}
	if len(sections) != len(owner)-1 {
		t.Errorf("Spec has %d technique sections %v, want one per non-base kind (%d)", len(sections), sections, len(owner)-1)
	}
	for _, kind := range Kinds() {
		want, ok := owner[kind]
		if !ok {
			t.Errorf("kind %q: no section named for it in this test", kind)
			continue
		}
		s := full
		s.Technique = kind
		n, _, err := s.normalized()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		nv := reflect.ValueOf(n)
		for _, name := range sections {
			if kept := !nv.FieldByName(name).IsNil(); kept != (name == want) {
				t.Errorf("kind %q: normalized %s section kept = %v, want %v", kind, name, kept, name == want)
			}
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

// TestRegistryCompleteness: every kind in Kinds() but base builds its
// own controller type, which is the sim.Technique itself, under the
// Name() its results are labelled with; exactly tuning, voltctl, damping
// and domain-tuning report sim.TechStats (the others leave Result.Tech
// zero); and the trace hooks are the ones each kind has. A kind added to
// the table without a row here fails, and so do two kinds building one
// type.
func TestRegistryCompleteness(t *testing.T) {
	type row struct {
		tech         sim.Technique // a typed nil naming the concrete type
		name         string
		stats        bool
		count, level bool
	}
	want := map[TechniqueKind]row{
		TechniqueTuning:         {(*tuning.Controller)(nil), "resonance-tuning", true, true, true},
		TechniqueVoltageControl: {(*voltctl.Controller)(nil), "voltage-control", true, false, true},
		TechniqueDamping:        {(*damping.Controller)(nil), "pipeline-damping", true, false, false},
		TechniqueConvolution:    {(*convctl.Controller)(nil), "convolution-control", false, false, false},
		TechniqueWavelet:        {(*wavelet.Controller)(nil), "wavelet-control", false, false, false},
		TechniqueDualBand:       {(*tuning.DualBand)(nil), "dual-band-tuning", false, false, false},
		TechniqueDomainTuning:   {(*tuning.PerDomain)(nil), "per-domain-tuning", true, true, true},
	}
	builds := map[reflect.Type]TechniqueKind{}
	for _, kind := range Kinds() {
		tech, hooks, err := BuildTechnique(Spec{App: "swim", Technique: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if kind == TechniqueNone {
			if tech != nil || hooks.EventCount != nil || hooks.Level != nil {
				t.Errorf("base builds %T with hooks %+v, want nothing", tech, hooks)
			}
			continue
		}
		w, ok := want[kind]
		if !ok {
			t.Errorf("kind %q builds %T but has no row in this test", kind, tech)
			continue
		}
		typ := reflect.TypeOf(tech)
		if typ != reflect.TypeOf(w.tech) {
			t.Errorf("kind %q builds %v, want %T", kind, typ, w.tech)
		}
		if prev, dup := builds[typ]; dup {
			t.Errorf("kinds %q and %q both build %v", prev, kind, typ)
		}
		builds[typ] = kind
		if got := tech.Name(); got != w.name {
			t.Errorf("kind %q is named %q, want %q", kind, got, w.name)
		}
		if _, stats := tech.(interface{ TechStats() sim.TechStats }); stats != w.stats {
			t.Errorf("kind %q reports TechStats: %v, want %v", kind, stats, w.stats)
		}
		if count, level := hooks.EventCount != nil, hooks.Level != nil; count != w.count || level != w.level {
			t.Errorf("kind %q trace hooks (event count %v, level %v), want (%v, %v)", kind, count, level, w.count, w.level)
		}
	}
	if len(builds) != len(want) {
		t.Errorf("the techniques table builds %d controller types, this test names %d", len(builds), len(want))
	}
}

// TestDerivedDefaultsExact: a convctl or dual-band spec normalizes to
// exactly the section, and the Key, that a direct call of the default
// derivation gives — whether its lookup fills the derived-defaults table
// or hits it, and from concurrent goroutines. The supplies cover every
// network kind plus seeded random ones, more than a table holds, with
// −0, zero and NaN-payload fields; −0 must not alias +0, nor one NaN
// payload another.
func TestDerivedDefaultsExact(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	jitter := func(v float64, nan bool) float64 {
		switch r.Intn(30) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		case 2:
			if nan {
				return math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(r.Int63n(1<<51)))
			}
		}
		return v * (0.5 + r.Float64())
	}
	var specs []Spec
	for _, kind := range circuit.NetworkKinds() {
		for _, tech := range []TechniqueKind{TechniqueConvolution, TechniqueDualBand} {
			specs = append(specs, Spec{App: "swim", Technique: tech, PDN: &circuit.NetworkConfig{Kind: kind}})
		}
	}
	for i := 0; i < 4*derivedCap; i++ {
		l, ts := circuit.Table1(), circuit.Table1TwoStage()
		// A NaN L, C or ClockHz passes Params.Validate but makes the tap
		// derivation size its impulse response from a NaN period, which
		// panics; such supplies are left out.
		for _, f := range []*float64{&l.R, &l.Vdd, &l.NoiseMargin, &l.IMax, &l.IMin} {
			*f = jitter(*f, true)
		}
		for _, f := range []*float64{&l.L, &l.C, &l.ClockHz} {
			*f = jitter(*f, false)
		}
		for _, f := range []*float64{&ts.R1, &ts.L1, &ts.C1, &ts.R2, &ts.L2, &ts.C2, &ts.Vdd, &ts.NoiseMargin, &ts.ClockHz, &ts.IMax, &ts.IMin} {
			*f = jitter(*f, true)
		}
		specs = append(specs,
			Spec{App: "swim", Technique: TechniqueConvolution, PDN: &circuit.NetworkConfig{Kind: circuit.NetworkLumped, Lumped: &l}},
			Spec{App: "swim", Technique: TechniqueDualBand, PDN: &circuit.NetworkConfig{Kind: circuit.NetworkTwoStage, TwoStage: &ts}})
	}
	// Usable supplies differing from Table 1 only in the sign of a zero
	// field, and in one NaN payload.
	for _, bits := range []uint64{0, 1 << 63} {
		l, ts := circuit.Table1(), circuit.Table1TwoStage()
		l.IMin, ts.IMin = math.Float64frombits(bits), math.Float64frombits(bits)
		specs = append(specs,
			Spec{App: "swim", Technique: TechniqueConvolution, PDN: &circuit.NetworkConfig{Lumped: &l}},
			Spec{App: "swim", Technique: TechniqueDualBand, PDN: &circuit.NetworkConfig{Kind: circuit.NetworkTwoStage, TwoStage: &ts}})
	}
	for _, payload := range []uint64{1, 2} {
		l, ts := circuit.Table1(), circuit.Table1TwoStage()
		l.Vdd, ts.Vdd = math.Float64frombits(0x7ff8_0000_0000_0000|payload), math.Float64frombits(0x7ff8_0000_0000_0000|payload)
		specs = append(specs,
			Spec{App: "swim", Technique: TechniqueConvolution, PDN: &circuit.NetworkConfig{Lumped: &l}},
			Spec{App: "swim", Technique: TechniqueDualBand, PDN: &circuit.NetworkConfig{Kind: circuit.NetworkTwoStage, TwoStage: &ts}})
	}

	encode := func(v any) string {
		var buf bytes.Buffer
		if err := encodeValue(&buf, reflect.ValueOf(v)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	// want is the direct derivation: the normalized spec with its section
	// built without the tables, and that spec's key.
	type want struct {
		section string
		key     Key
	}
	wants := make([]want, len(specs))
	for i, s := range specs {
		n := mustNormalize(s)
		switch s.Technique {
		case TechniqueConvolution:
			cc := convctl.Config{Supply: convolutionSupply(n.System)}
			if resolved, err := cc.WithDefaults(); err == nil {
				cc = resolved
			}
			n.Convolution = &cc
			wants[i].section = encode(cc)
		case TechniqueDualBand:
			db := DefaultDualBandConfig(dualBandSupply(n.System))
			n.DualBand = &db
			wants[i].section = encode(db)
		}
		k, err := n.key()
		if err != nil {
			t.Fatal(err)
		}
		wants[i].key = k
	}
	check := func(i int) error {
		n := mustNormalize(specs[i])
		var section string
		if n.Convolution != nil {
			section = encode(*n.Convolution)
		} else {
			section = encode(*n.DualBand)
		}
		k, err := specs[i].Key()
		if err != nil {
			return err
		}
		if section != wants[i].section || k != wants[i].key {
			return fmt.Errorf("spec %d (%s on %+v): section or key differs from the direct derivation", i, specs[i].Technique, *specs[i].PDN)
		}
		return nil
	}

	distinct := map[string]bool{}
	for _, s := range specs {
		n := mustNormalize(s)
		if s.Technique == TechniqueDualBand {
			distinct[encode(dualBandSupply(n.System))] = true
		}
	}
	if len(distinct) <= derivedCap {
		t.Fatalf("%d distinct dual-band supplies, want more than the %d a table holds", len(distinct), derivedCap)
	}
	// The twins' convctl sections differ only in those bits, so a table
	// aliasing them fails check.
	if wants[len(wants)-8].section == wants[len(wants)-6].section || wants[len(wants)-4].section == wants[len(wants)-2].section {
		t.Fatal("a −0 or NaN-payload supply derives the section of its twin")
	}

	for _, tbl := range []interface{ reset() }{&convolutionDefaults, &dualBandDefaults} {
		tbl.reset()
	}
	for i := range specs {
		// The first lookup may fill the table, the second hits it.
		for pass := 0; pass < 2; pass++ {
			if err := check(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(specs)) {
				if err := check(i); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n, m := convolutionDefaults.len(), dualBandDefaults.len(); n > derivedCap || m > derivedCap {
		t.Errorf("tables hold %d and %d entries, bound %d", n, m, derivedCap)
	}
}

// reset empties the table, so the next lookups fill it.
func (t *derivedTable[In, Out]) reset() {
	t.mu.Lock()
	t.m = nil
	t.mu.Unlock()
}

func (t *derivedTable[In, Out]) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// TestUnusableSupplyIsAnError: a lumped supply with a NaN field is a
// validation error under every technique, and one whose clock is so far
// above its resonance that the convolution predictor's impulse response
// cannot be sized is one under convctl. Key, Validate and ValidKey all
// return; none of them panics or sizes a buffer by the bad supply.
func TestUnusableSupplyIsAnError(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*circuit.Params)
		techs  []TechniqueKind
	}{
		{"NaN L", func(p *circuit.Params) { p.L = math.NaN() }, Kinds()},
		{"NaN C", func(p *circuit.Params) { p.C = math.NaN() }, Kinds()},
		{"NaN ClockHz", func(p *circuit.Params) { p.ClockHz = math.NaN() }, Kinds()},
		// Eight resonant periods are about 1.6 million cycles, just past
		// the bound; a clock near 1e16 would ask for gigabytes.
		{"ClockHz 2e13", func(p *circuit.Params) { p.ClockHz = 2e13 }, []TechniqueKind{TechniqueConvolution}},
		{"ClockHz 1e300", func(p *circuit.Params) { p.ClockHz = 1e300 }, []TechniqueKind{TechniqueConvolution}},
	}
	for _, tc := range cases {
		p := circuit.Table1()
		tc.mutate(&p)
		for _, tech := range tc.techs {
			s := Spec{App: "swim", Technique: tech, PDN: &circuit.NetworkConfig{Kind: circuit.NetworkLumped, Lumped: &p}}
			if _, err := s.Key(); err != nil {
				t.Errorf("%s, %s: Key failed: %v", tc.name, tech, err)
			}
			if err := s.Validate(); err == nil {
				t.Errorf("%s, %s: Validate accepted the supply", tc.name, tech)
			}
			if _, err := s.ValidKey(); err == nil {
				t.Errorf("%s, %s: ValidKey accepted the supply", tc.name, tech)
			}
		}
	}
}

// TestSharedWaveletDefaultUnchanged: every wavelet configuration that
// leaves Scales nil resolves onto one shared default, so nothing that
// runs on it may write it. Keying, validating, building and simulating
// a wavelet spec on every network kind — as one batch, and each alone in
// a traced run — leaves it {32, 64}.
func TestSharedWaveletDefaultUnchanged(t *testing.T) {
	a, err := wavelet.Config{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	b, err := wavelet.Config{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if &a.Scales[0] != &b.Scales[0] {
		t.Fatal("two resolutions of the default wavelet configuration do not share its scales")
	}
	var specs []Spec
	for _, kind := range circuit.NetworkKinds() {
		s := Spec{App: "swim", Instructions: 5_000, Technique: TechniqueWavelet, PDN: &circuit.NetworkConfig{Kind: kind}}
		if _, err := s.ValidKey(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, _, err := BuildTechnique(s); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		p, err := Prepare(s)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, err := p.Run(func(sim.TracePoint) {}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		specs = append(specs, s)
	}
	if _, err := New(Options{Parallelism: 2}).RunAll(context.Background(), specs, nil); err != nil {
		t.Fatal(err)
	}
	if want := []int{32, 64}; !reflect.DeepEqual(a.Scales, want) {
		t.Errorf("the shared wavelet default changed: %v, want %v", a.Scales, want)
	}
}
