package engine

// The differential harness pinning the batch kernel — the engine's only
// execution path — to the scalar core.
//
// The scalar loop (sim.Simulator) is the frozen reference, in the style
// of internal/cpu/scanref_test.go: every lane of a lockstep group must
// observe, cycle for cycle, bit-identical Observations (including the
// full cpu.Activity and the per-domain view) and TracePoints to a scalar
// run of the same spec, and produce an identical Result. The same holds
// end to end for what the engine serves: Execute, RunAll's multi-lane
// groups and singletons, and traced runs. Since the kernel forks diverging
// lanes onto machine copies, this holds for every lane — the lockstep
// prefix comes from the shared machine and the post-divergence suffix
// from the lane's fork, and the concatenation must be indistinguishable
// from the scalar run. The matrix must exercise real forks (and lanes
// that never fork) for the assertion to mean anything; the coverage
// check at the bottom enforces that.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/engine/batchkernel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// cycleRecord is one cycle as a technique saw it: the Observation with
// the Activity and per-domain buffers flattened into value copies.
type cycleRecord struct {
	obs    sim.Observation
	act    cpu.Activity
	domain string
}

// recordingTech wraps a Technique (nil for the base machine), recording
// every Observation it is shown while delegating control decisions.
type recordingTech struct {
	inner sim.Technique
	recs  []cycleRecord
}

func (r *recordingTech) Name() string {
	if r.inner == nil {
		return string(TechniqueNone)
	}
	return r.inner.Name()
}

func (r *recordingTech) Next() (cpu.Throttle, sim.Phantom) {
	if r.inner == nil {
		return cpu.Unlimited, sim.Phantom{}
	}
	return r.inner.Next()
}

func (r *recordingTech) Observe(obs *sim.Observation) {
	rec := cycleRecord{obs: *obs, act: *obs.Activity}
	rec.obs.Activity = nil
	if obs.PerDomain != nil {
		rec.domain = fmt.Sprint(*obs.PerDomain)
		rec.obs.PerDomain = nil
	}
	r.recs = append(r.recs, rec)
	if r.inner != nil {
		r.inner.Observe(obs)
	}
}

// diffCase is one (system config, workload) cell of the matrix.
type diffCase struct {
	name   string
	system *sim.Config
	params workload.Params
	insts  uint64
}

// diffMatrix builds the config × seed grid: four distinct system
// configurations (including a multi-domain network) and four seeds
// each, over a mix that reliably exercises both quiet runs (techniques
// never fire: lanes survive the whole stream) and loud ones (techniques
// respond and diverge: prefix checks).
func diffMatrix(t *testing.T) []diffCase {
	t.Helper()
	app, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	twoStage := sim.DefaultConfig()
	twoStage.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkTwoStage}
	twoStage.SensorDelayCycles = 2
	quantized := sim.DefaultConfig()
	quantized.SensorResolutionAmps = 2
	quantized.MaxCycles = 4000
	multi := sim.DefaultConfig()
	multi.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain}
	multi.SensorDomain = 1

	var cases []diffCase
	for _, sys := range []struct {
		name string
		cfg  *sim.Config
	}{
		{"default", nil},
		{"twostage-delay2", &twoStage},
		{"quantized-capped", &quantized},
		{"multidomain-rail1", &multi},
	} {
		for _, seed := range []uint64{1, 7, 1001, 424242} {
			p := app.Params
			p.Seed = seed
			cases = append(cases, diffCase{
				name:   fmt.Sprintf("%s/seed%d", sys.name, seed),
				system: sys.cfg,
				params: p,
				insts:  5000,
			})
		}
	}
	return cases
}

// scalarReference runs spec through the frozen scalar Simulator,
// returning the per-cycle records, trace points, and final Result.
func scalarReference(t *testing.T, spec Spec) ([]cycleRecord, []sim.TracePoint, sim.Result) {
	t.Helper()
	n, _, err := spec.normalized()
	if err != nil {
		t.Fatal(err)
	}
	tech, hooks, err := BuildTechnique(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingTech{inner: tech}
	src := workload.SharedTraces().Source(*n.Workload, n.Instructions)
	s, err := sim.New(*n.System, src, rec)
	if err != nil {
		t.Fatal(err)
	}
	var tps []sim.TracePoint
	s.SetTrace(func(tp sim.TracePoint) { tps = append(tps, tp) }, hooks.EventCount, hooks.Level)
	res := s.Run(n.App, rec.Name())
	// The recorder is the Technique the scalar loop saw, so its stats
	// (all zero) land in the result; re-derive them from the inner
	// technique as the unwrapped run would.
	res.Tech = sim.TechStatsOf(tech)
	return rec.recs, tps, res
}

// batchedLanes runs all specs as one lockstep group, returning per-lane
// records, trace points, outcomes, and the kernel's divergence stats.
func batchedLanes(t *testing.T, specs []Spec) ([][]cycleRecord, [][]sim.TracePoint, []batchkernel.Outcome, batchkernel.Stats) {
	t.Helper()
	n0, _, err := specs[0].normalized()
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*recordingTech, len(specs))
	tps := make([][]sim.TracePoint, len(specs))
	lanes := make([]batchkernel.Lane, len(specs))
	for i := range specs {
		tech, hooks, err := BuildTechnique(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = &recordingTech{inner: tech}
		li := i
		lanes[i] = batchkernel.Lane{
			Tech:       recs[i],
			TechName:   recs[i].Name(),
			Trace:      func(tp sim.TracePoint) { tps[li] = append(tps[li], tp) },
			EventCount: hooks.EventCount,
			Level:      hooks.Level,
		}
	}
	src := workload.SharedTraces().Source(*n0.Workload, n0.Instructions)
	m, err := sim.NewMachine(*n0.System, src)
	if err != nil {
		t.Fatal(err)
	}
	outs, stats := batchkernel.Run(m, n0.App, lanes)
	out := make([][]cycleRecord, len(specs))
	for i := range recs {
		out[i] = recs[i].recs
		// The recorder is the Technique the kernel saw, so its stats (all
		// zero) land in the result; re-derive them from the inner
		// technique, exactly as scalarReference does for the scalar loop.
		if outs[i].Status == batchkernel.Finished {
			outs[i].Result.Tech = sim.TechStatsOf(recs[i].inner)
		}
	}
	return out, tps, outs, stats
}

// kindSpecs returns one spec per registered technique kind over the
// given cell, all sharing a MachineKey.
func kindSpecs(c diffCase) []Spec {
	kinds := Kinds()
	specs := make([]Spec, len(kinds))
	for i, k := range kinds {
		p := c.params
		specs[i] = Spec{
			Workload:     &p,
			Instructions: c.insts,
			System:       c.system,
			Technique:    k,
		}
	}
	return specs
}

// TestBatchKernelMatchesScalarReference is the differential harness: all
// eight registered technique kinds ride one lockstep group per
// (config, seed) cell and every lane must finish — resuming on a forked
// machine when its decisions diverge — bit-identical to its scalar
// reference run: the full observation stream, the full trace stream, and
// the Result. (Domain-tuning rides single-domain machines in most cells,
// which covers its aggregate-sensor fallback, and one controller per
// rail on the multi-domain cell.)
func TestBatchKernelMatchesScalarReference(t *testing.T) {
	if len(Kinds()) != 8 {
		t.Fatalf("expected 8 registered technique kinds, have %v", Kinds())
	}
	var lockstep, forked, regrouped uint64
	for _, c := range diffMatrix(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			specs := kindSpecs(c)
			bRecs, bTps, outs, stats := batchedLanes(t, specs)
			for i, spec := range specs {
				sRecs, sTps, sRes := scalarReference(t, spec)
				name := string(Kinds()[i])
				if outs[i].Status != batchkernel.Finished {
					t.Errorf("%s: unexpected outcome %v (%v)", name, outs[i].Status, outs[i].Err)
					continue
				}
				if outs[i].Forks > 0 {
					forked++
				} else {
					lockstep++
				}
				if len(bRecs[i]) != len(sRecs) {
					t.Errorf("%s: observed %d cycles, scalar %d", name, len(bRecs[i]), len(sRecs))
				}
				compareRecords(t, name, bRecs[i], sRecs, len(sRecs))
				compareTraces(t, name, bTps[i], sTps, len(sTps))
				if outs[i].Result != sRes {
					t.Errorf("%s: batched result %+v != scalar %+v", name, outs[i].Result, sRes)
				}
			}
			regrouped += stats.LanesForked - stats.CohortsForked
		})
	}
	// The matrix must exercise both sides of the contract: lanes that
	// ride the original machine the whole way and lanes that resume on
	// forks — including forks shared by several lanes (a re-formed
	// lockstep cohort), which is where regrouping bugs would hide.
	if lockstep == 0 || forked == 0 {
		t.Fatalf("matrix lacks coverage: %d lockstep, %d forked lanes", lockstep, forked)
	}
	if regrouped == 0 {
		t.Fatalf("matrix lacks coverage: no fork was shared by multiple lanes (no cohort regrouping)")
	}
}

// compareRecords asserts the first n per-cycle records agree bitwise.
func compareRecords(t *testing.T, name string, got, want []cycleRecord, n int) {
	t.Helper()
	if len(got) < n || len(want) < n {
		t.Errorf("%s: have %d batched / %d scalar records, need %d", name, len(got), len(want), n)
		return
	}
	for cyc := 0; cyc < n; cyc++ {
		if got[cyc] != want[cyc] {
			t.Errorf("%s: cycle %d: batched %+v != scalar %+v", name, cyc, got[cyc], want[cyc])
			return
		}
	}
}

// compareTraces asserts the first n trace points agree bitwise.
func compareTraces(t *testing.T, name string, got, want []sim.TracePoint, n int) {
	t.Helper()
	if len(got) < n || len(want) < n {
		t.Errorf("%s: have %d batched / %d scalar trace points, need %d", name, len(got), len(want), n)
		return
	}
	for cyc := 0; cyc < n; cyc++ {
		if got[cyc] != want[cyc] {
			t.Errorf("%s: trace point %d: batched %+v != scalar %+v", name, cyc, got[cyc], want[cyc])
			return
		}
	}
}

// TestCacheStatsCountsForks pins the divergence observability: RunAll
// over a loud application's technique suite — whose lanes demonstrably
// fork (see the differential matrix) — must surface the kernel's
// divergence counters in CacheStats.
func TestCacheStatsCountsForks(t *testing.T) {
	app, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for _, k := range Kinds() {
		p := app.Params
		specs = append(specs, Spec{Workload: &p, Instructions: 5000, Technique: k})
	}
	eng := New(Options{Parallelism: 2})
	if _, err := eng.RunAll(context.Background(), specs, nil); err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.LanesForked == 0 || st.CohortsReformed == 0 || st.ForkCyclesSaved == 0 {
		t.Fatalf("divergence counters not populated: %s", counters(st))
	}
	if st.LanesForked < st.CohortsReformed {
		t.Fatalf("more cohorts (%d) than forked lanes (%d)", st.CohortsReformed, st.LanesForked)
	}
}

// TestExecuteMatchesScalarReference pins the one-machine paths — Execute
// and Prepare, each a one-lane kernel group — to the frozen scalar loop
// for every registered technique kind: untraced, the Result must match;
// traced through Prepared.Run, so must the full per-cycle TracePoint
// stream, including the technique's EventCount and ResponseLevel columns.
func TestExecuteMatchesScalarReference(t *testing.T) {
	app, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kinds() {
		p := app.Params
		spec := Spec{Workload: &p, Instructions: 5000, Technique: k}
		_, sTps, sRes := scalarReference(t, spec)
		got, err := Execute(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != sRes {
			t.Errorf("%s: Execute %+v != scalar %+v", k, got, sRes)
		}
		prep, err := Prepare(spec)
		if err != nil {
			t.Fatal(err)
		}
		var tps []sim.TracePoint
		got, err = prep.Run(func(tp sim.TracePoint) { tps = append(tps, tp) })
		if err != nil {
			t.Fatal(err)
		}
		if got != sRes {
			t.Errorf("%s: traced Prepare %+v != scalar %+v", k, got, sRes)
		}
		if len(tps) != len(sTps) {
			t.Errorf("%s: traced %d cycles, scalar %d", k, len(tps), len(sTps))
		}
		compareTraces(t, string(k), tps, sTps, len(sTps))
	}
}

// TestRunAllMatchesScalarReference pins the engine's batch path end to
// end against the frozen scalar loop: a RunAll mixing multi-lane groups
// (every kind on two shared machines) and singletons (every kind on a
// machine of its own) must return exactly the scalar Results.
func TestRunAllMatchesScalarReference(t *testing.T) {
	app, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	spec := func(seed uint64, k TechniqueKind) Spec {
		p := app.Params
		p.Seed = seed
		return Spec{Workload: &p, Instructions: 4000, Technique: k}
	}
	for _, seed := range []uint64{3, 99} {
		for _, k := range Kinds() {
			specs = append(specs, spec(seed, k))
		}
	}
	for i, k := range Kinds() {
		specs = append(specs, spec(uint64(1000+i), k))
	}
	got, err := New(Options{Parallelism: 2}).RunAll(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		_, _, want := scalarReference(t, s)
		if got[i] != want {
			t.Errorf("spec %d (%s): RunAll %+v != scalar %+v", i, s.Technique, got[i], want)
		}
	}
}
