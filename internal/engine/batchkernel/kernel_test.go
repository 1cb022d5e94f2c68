package batchkernel_test

// Lane-count and divergence edge cases for the lockstep kernel, each
// checked against a fresh scalar run of the same scripted technique:
// K=1 (no lockstep peers at all), K=5 (non-power-of-two, forks at three
// different cycles), K=9 (more lanes than distinct behaviours, so
// duplicates must stay in lockstep — and fork — together), cascading
// re-splits (a forked cohort splitting again), a lane panicking
// mid-batch and another panicking after it forked, and an unforkable
// instruction source (a lane that must fork fails with the fork error).

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/engine/batchkernel"
	"repro/internal/sim"
)

// edgeInsts is the per-test instruction budget: long enough for several
// hundred cycles, short enough to keep the matrix cheap.
const edgeInsts = 2000

// edgePattern is a small mixed stream with some latency variety.
func edgePattern() []cpu.Inst {
	return []cpu.Inst{
		{Class: cpu.IntALU},
		{Class: cpu.Load, Mem: cpu.MemL1, SrcDist1: 1},
		{Class: cpu.FPMul, SrcDist1: 2},
		{Class: cpu.IntALU, SrcDist1: 1},
		{Class: cpu.Branch},
		{Class: cpu.Load, Mem: cpu.MemL2},
		{Class: cpu.FPALU, SrcDist1: 3},
		{Class: cpu.Store, Mem: cpu.MemL1},
	}
}

func edgeSource() cpu.Source {
	return cpu.NewRepeatSource(edgePattern(), edgeInsts)
}

// unforkableSource hides the underlying source's Fork method, forcing
// Machine.Fork to fail so the kernel's fork-failure path is reachable.
type unforkableSource struct {
	inner cpu.Source
}

func (u *unforkableSource) Next() (cpu.Inst, bool) { return u.inner.Next() }

// scriptTech is a deterministic scripted technique: it runs unthrottled
// except from cycle throttleFrom on, where it halves the issue width,
// and from throttleFrom2 on (when set), where it quarters it — and
// optionally panics in Next at panicAt. Cycle position is driven by
// Observe calls, exactly as for a real technique.
type scriptTech struct {
	name          string
	throttleFrom  uint64 // 0 = never throttle
	throttleFrom2 uint64 // 0 = no second phase
	panicAt       uint64 // 0 = never panic
	cycle         uint64

	recs []obsRecord
}

// obsRecord is one observed cycle with the Activity buffer flattened.
type obsRecord struct {
	obs sim.Observation
	act cpu.Activity
}

func (s *scriptTech) Name() string { return s.name }

func (s *scriptTech) Next() (cpu.Throttle, sim.Phantom) {
	if s.panicAt != 0 && s.cycle >= s.panicAt {
		panic("scripted panic")
	}
	if s.throttleFrom2 != 0 && s.cycle >= s.throttleFrom2 {
		return cpu.Throttle{IssueWidth: 2, CachePorts: 1, IssueCurrentBudget: -1}, sim.Phantom{}
	}
	if s.throttleFrom != 0 && s.cycle >= s.throttleFrom {
		return cpu.Throttle{IssueWidth: 4, CachePorts: 1, IssueCurrentBudget: -1}, sim.Phantom{}
	}
	return cpu.Unlimited, sim.Phantom{}
}

func (s *scriptTech) Observe(obs *sim.Observation) {
	rec := obsRecord{obs: *obs, act: *obs.Activity}
	rec.obs.Activity = nil
	s.recs = append(s.recs, rec)
	s.cycle = obs.Cycle + 1
}

// clone returns a fresh technique with the same script and no state.
func (s *scriptTech) clone() *scriptTech {
	return &scriptTech{name: s.name, throttleFrom: s.throttleFrom, throttleFrom2: s.throttleFrom2, panicAt: s.panicAt}
}

// scalarRun replays one scripted lane on the frozen scalar Simulator.
func scalarRun(t *testing.T, tech *scriptTech) ([]obsRecord, sim.Result) {
	t.Helper()
	var st sim.Technique
	name := "base"
	if tech != nil {
		st = tech
		name = tech.name
	}
	s, err := sim.New(sim.DefaultConfig(), edgeSource(), st)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run("edge", name)
	if tech == nil {
		return nil, res
	}
	return tech.recs, res
}

// runGroup steps the given scripts as one lockstep group. A nil script
// is the base (uncontrolled) lane.
func runGroup(t *testing.T, scripts []*scriptTech) ([]*scriptTech, []batchkernel.Outcome, batchkernel.Stats) {
	t.Helper()
	return runGroupOn(t, scripts, edgeSource())
}

func runGroupOn(t *testing.T, scripts []*scriptTech, src cpu.Source) ([]*scriptTech, []batchkernel.Outcome, batchkernel.Stats) {
	t.Helper()
	m, err := sim.NewMachine(sim.DefaultConfig(), src)
	if err != nil {
		t.Fatal(err)
	}
	lanes := make([]batchkernel.Lane, len(scripts))
	for i, sc := range scripts {
		if sc != nil {
			lanes[i] = batchkernel.Lane{Tech: sc, TechName: sc.name}
		}
	}
	outs, stats := batchkernel.Run(m, "edge", lanes)
	return scripts, outs, stats
}

// checkLane asserts a Finished lane against its scalar reference: the
// full observation stream and the Result must match bit for bit, whether
// the lane rode the original machine the whole way (wantForkAt == 0) or
// resumed on forks (wantForkAt == the cycle of its first fork).
func checkLane(t *testing.T, label string, sc *scriptTech, out batchkernel.Outcome, wantForkAt uint64) {
	t.Helper()
	if out.Status != batchkernel.Finished {
		t.Errorf("%s: outcome %v (failedAt=%d err=%v), want finished", label, out.Status, out.FailedAt, out.Err)
		return
	}
	switch {
	case wantForkAt == 0 && out.Forks != 0:
		t.Errorf("%s: forked %d times (first at %d), want lockstep throughout", label, out.Forks, out.FirstForkAt)
	case wantForkAt != 0 && out.Forks == 0:
		t.Errorf("%s: never forked, want first fork at %d", label, wantForkAt)
	case wantForkAt != 0 && out.FirstForkAt != wantForkAt:
		t.Errorf("%s: first fork at %d, want %d", label, out.FirstForkAt, wantForkAt)
	}
	var ref *scriptTech
	if sc != nil {
		ref = sc.clone()
	}
	sRecs, sRes := scalarRun(t, ref)
	if sc != nil {
		compareObs(t, label, sc.recs, sRecs, len(sRecs))
		if len(sc.recs) != len(sRecs) {
			t.Errorf("%s: observed %d cycles, scalar %d", label, len(sc.recs), len(sRecs))
		}
	}
	if out.Result != sRes {
		t.Errorf("%s: batched result %+v != scalar %+v", label, out.Result, sRes)
	}
}

func compareObs(t *testing.T, label string, got, want []obsRecord, n int) {
	t.Helper()
	if len(got) < n || len(want) < n {
		t.Errorf("%s: have %d batched / %d scalar records, need %d", label, len(got), len(want), n)
		return
	}
	for c := 0; c < n; c++ {
		if got[c] != want[c] {
			t.Errorf("%s: cycle %d: batched %+v != scalar %+v", label, c, got[c], want[c])
			return
		}
	}
}

// TestSingleLane runs K=1: no peers, no lockstep checks, and the result
// must equal the scalar base run bit for bit.
func TestSingleLane(t *testing.T) {
	scripts, outs, stats := runGroup(t, []*scriptTech{nil})
	checkLane(t, "base", scripts[0], outs[0], 0)
	if stats.LanesForked != 0 || stats.CohortsForked != 0 {
		t.Errorf("stats %+v, want no forks for K=1", stats)
	}
}

// TestSingleScriptedLane runs K=1 with an active technique.
func TestSingleScriptedLane(t *testing.T) {
	scripts, outs, _ := runGroup(t, []*scriptTech{{name: "th40", throttleFrom: 40}})
	checkLane(t, "th40", scripts[0], outs[0], 0)
}

// TestFiveLanesMixedDivergence runs K=5 (non-power-of-two): the leader
// and one twin stay in lockstep for the whole stream while three lanes
// throttle at different cycles, forking off at exactly those cycles and
// finishing bit-identical to scalar on their own machines.
func TestFiveLanesMixedDivergence(t *testing.T) {
	scripts, outs, stats := runGroup(t, []*scriptTech{
		nil,
		{name: "th30", throttleFrom: 30},
		{name: "quiet", throttleFrom: 0},
		{name: "th75", throttleFrom: 75},
		{name: "th200", throttleFrom: 200},
	})
	for i, forkAt := range []uint64{0, 30, 0, 75, 200} {
		label := "base"
		if scripts[i] != nil {
			label = scripts[i].name
		}
		checkLane(t, label, scripts[i], outs[i], forkAt)
	}
	if stats.LanesForked != 3 || stats.CohortsForked != 3 {
		t.Errorf("stats %+v, want 3 lanes forked into 3 cohorts", stats)
	}
	if want := uint64(30 + 75 + 200); stats.CyclesSaved != want {
		t.Errorf("cycles saved %d, want %d", stats.CyclesSaved, want)
	}
}

// TestNineLanesWithDuplicates runs K=9, more lanes than distinct
// behaviours: the th50 triplet decides identically every cycle, so all
// three must fork at cycle 50 onto ONE shared machine — a re-formed
// lockstep cohort — and still finish bit-identical to scalar.
func TestNineLanesWithDuplicates(t *testing.T) {
	scripts, outs, stats := runGroup(t, []*scriptTech{
		nil,
		{name: "quiet-a", throttleFrom: 0},
		{name: "quiet-b", throttleFrom: 0},
		{name: "quiet-c", throttleFrom: 0},
		{name: "th50-a", throttleFrom: 50},
		{name: "th50-b", throttleFrom: 50},
		{name: "th50-c", throttleFrom: 50},
		nil,
		{name: "th90", throttleFrom: 90},
	})
	for i, forkAt := range []uint64{0, 0, 0, 0, 50, 50, 50, 0, 90} {
		label := "base"
		if scripts[i] != nil {
			label = scripts[i].name
		}
		checkLane(t, label, scripts[i], outs[i], forkAt)
	}
	// The triplet split at one cycle with one decision: one fork serves
	// all three, plus one for th90.
	if stats.CohortsForked != 2 {
		t.Errorf("cohorts forked %d, want 2 (th50 triplet regrouped + th90)", stats.CohortsForked)
	}
	if stats.LanesForked != 4 {
		t.Errorf("lanes forked %d, want 4", stats.LanesForked)
	}
}

// TestCascadingResplit scripts a fork of a fork: two lanes leave the
// root cohort together at cycle 40 (same decision, one shared fork),
// then their second throttle phases differ, splitting the forked cohort
// again at cycle 80. Both must still finish bit-identical to scalar.
func TestCascadingResplit(t *testing.T) {
	scripts, outs, stats := runGroup(t, []*scriptTech{
		nil,
		{name: "casc-a", throttleFrom: 40, throttleFrom2: 80},
		{name: "casc-b", throttleFrom: 40, throttleFrom2: 120},
	})
	checkLane(t, "base", scripts[0], outs[0], 0)
	checkLane(t, "casc-a", scripts[1], outs[1], 40)
	checkLane(t, "casc-b", scripts[2], outs[2], 40)
	// casc-a leads the forked cohort, so casc-b is the lane that forks
	// again when the second phases part ways at cycle 80.
	if outs[1].Forks != 1 {
		t.Errorf("casc-a forks %d, want 1", outs[1].Forks)
	}
	if outs[2].Forks != 2 {
		t.Errorf("casc-b forks %d, want 2 (cascade)", outs[2].Forks)
	}
	if stats.CohortsForked != 2 || stats.LanesForked != 3 {
		t.Errorf("stats %+v, want 2 cohorts / 3 lane moves", stats)
	}
	// CyclesSaved counts first forks only: both lanes' prefix was 40.
	if want := uint64(40 + 40); stats.CyclesSaved != want {
		t.Errorf("cycles saved %d, want %d", stats.CyclesSaved, want)
	}
}

// TestLanePanicMidBatch has one lane panic in Next partway through: it
// must come back Failed with the panic in Err, and the remaining lanes
// must still finish bit-identical to scalar.
func TestLanePanicMidBatch(t *testing.T) {
	scripts, outs, _ := runGroup(t, []*scriptTech{
		nil,
		{name: "bomb", panicAt: 60},
		{name: "quiet", throttleFrom: 0},
	})
	if outs[1].Status != batchkernel.Failed {
		t.Fatalf("bomb lane: status %v, want failed", outs[1].Status)
	}
	if outs[1].Err == nil || !strings.Contains(outs[1].Err.Error(), "scripted panic") {
		t.Errorf("bomb lane: err %v, want recovered scripted panic", outs[1].Err)
	}
	if outs[1].FailedAt != 60 {
		t.Errorf("bomb lane: failed at %d, want 60", outs[1].FailedAt)
	}
	if len(scripts[1].recs) != 60 {
		t.Errorf("bomb lane: observed %d cycles before the panic, want 60", len(scripts[1].recs))
	}
	checkLane(t, "base", scripts[0], outs[0], 0)
	checkLane(t, "quiet", scripts[2], outs[2], 0)
}

// TestForkThenPanic has a lane fork at cycle 40 and panic at cycle 100,
// i.e. on its forked machine: the panic must be contained to the fork
// (Failed, exact prefix observed) while the root cohort finishes clean.
func TestForkThenPanic(t *testing.T) {
	scripts, outs, stats := runGroup(t, []*scriptTech{
		nil,
		{name: "forkbomb", throttleFrom: 40, panicAt: 100},
		{name: "quiet", throttleFrom: 0},
	})
	if outs[1].Status != batchkernel.Failed {
		t.Fatalf("forkbomb lane: status %v, want failed", outs[1].Status)
	}
	if outs[1].FailedAt != 100 {
		t.Errorf("forkbomb lane: failed at %d, want 100", outs[1].FailedAt)
	}
	if outs[1].Forks != 1 || outs[1].FirstForkAt != 40 {
		t.Errorf("forkbomb lane: forks=%d firstForkAt=%d, want 1 at 40", outs[1].Forks, outs[1].FirstForkAt)
	}
	if outs[1].Err == nil || !strings.Contains(outs[1].Err.Error(), "scripted panic") {
		t.Errorf("forkbomb lane: err %v, want recovered scripted panic", outs[1].Err)
	}
	if len(scripts[1].recs) != 100 {
		t.Errorf("forkbomb lane: observed %d cycles before the panic, want 100", len(scripts[1].recs))
	}
	// The forked prefix (cycles 40..99) must equal the scalar run of the
	// same script up to the panic.
	ref := scripts[1].clone()
	ref.panicAt = 0
	sRecs, _ := scalarRun(t, ref)
	compareObs(t, "forkbomb", scripts[1].recs, sRecs, 100)
	if stats.CohortsForked != 1 || stats.LanesForked != 1 {
		t.Errorf("stats %+v, want 1 cohort / 1 lane", stats)
	}
	checkLane(t, "base", scripts[0], outs[0], 0)
	checkLane(t, "quiet", scripts[2], outs[2], 0)
}

// TestUnforkableSourceFails pins the fork-failure path: on a machine
// whose instruction source cannot be forked, a diverging lane must end
// Failed with the fork error at exactly its divergence cycle, having
// observed exactly the scalar prefix, and the rest of the group must
// finish.
func TestUnforkableSourceFails(t *testing.T) {
	scripts, outs, stats := runGroupOn(t, []*scriptTech{
		nil,
		{name: "th30", throttleFrom: 30},
		{name: "quiet", throttleFrom: 0},
	}, &unforkableSource{inner: edgeSource()})
	if outs[1].Status != batchkernel.Failed {
		t.Fatalf("th30 lane: status %v, want failed", outs[1].Status)
	}
	if outs[1].Err == nil || !strings.Contains(outs[1].Err.Error(), "fork") {
		t.Errorf("th30 lane: err %v, want the fork error", outs[1].Err)
	}
	if outs[1].FailedAt != 30 {
		t.Errorf("th30 lane: failed at %d, want 30", outs[1].FailedAt)
	}
	if len(scripts[1].recs) != 30 {
		t.Errorf("th30 lane: observed %d cycles, want exactly the 30-cycle prefix", len(scripts[1].recs))
	}
	sRecs, _ := scalarRun(t, scripts[1].clone())
	compareObs(t, "th30", scripts[1].recs, sRecs, 30)
	if stats.LanesForked != 0 || stats.CohortsForked != 0 {
		t.Errorf("stats %+v, want no forks on an unforkable machine", stats)
	}
	checkLane(t, "base", scripts[0], outs[0], 0)
	checkLane(t, "quiet", scripts[2], outs[2], 0)
}
