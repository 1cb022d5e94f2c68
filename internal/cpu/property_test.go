package cpu

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomStream builds a random but well-formed instruction stream.
func randomStream(seed uint64, n int) []Inst {
	r := rng.New(seed)
	out := make([]Inst, n)
	for i := range out {
		in := Inst{Class: Class(r.Intn(int(NumClasses)))}
		if r.Bernoulli(0.6) {
			in.SrcDist1 = uint16(r.Range(1, 20))
		}
		if r.Bernoulli(0.3) {
			in.SrcDist2 = uint16(r.Range(1, 20))
		}
		if in.Class == Load || in.Class == Store {
			in.Mem = MemLevel(r.Intn(3))
		}
		if in.Class == Branch {
			in.Mispredicted = r.Bernoulli(0.1)
		}
		out[i] = in
	}
	return out
}

// TestEveryStreamDrainsAndCommitsExactly: any well-formed stream commits
// every instruction exactly once, in bounded time, under any throttle
// that permits progress.
func TestEveryStreamDrainsAndCommitsExactly(t *testing.T) {
	throttles := []Throttle{
		Unlimited,
		{IssueWidth: 4, CachePorts: 1, IssueCurrentBudget: -1},
		{IssueWidth: 1, IssueCurrentBudget: -1},
	}
	f := func(seed uint64) bool {
		n := 200 + int(seed%800)
		for _, th := range throttles {
			core := New(DefaultConfig(), packTrace(randomStream(seed, n)))
			// Worst case is a fully serialised main-memory chain.
			limit := uint64(n)*uint64(DefaultConfig().MemLat+DefaultConfig().MispredictPenalty+8) + 1000
			core.Run(limit, th)
			if !core.Done() || core.Committed() != uint64(n) {
				t.Logf("seed %d throttle %+v: committed %d/%d, done=%v",
					seed, th, core.Committed(), n, core.Done())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestActivityConservation: over any full run, fetched = dispatched =
// issued = committed, and per-cycle counts never exceed the configured
// widths.
func TestActivityConservation(t *testing.T) {
	f := func(seed uint64) bool {
		n := 300 + int(seed%500)
		cfg := DefaultConfig()
		core := New(cfg, packTrace(randomStream(seed, n)))
		var fetched, dispatched, issued, committed int
		for !core.Done() {
			act := core.Step(Unlimited)
			if act.Fetched > cfg.FetchWidth || act.Dispatched > cfg.DecodeWidth ||
				act.IssuedTotal > cfg.IssueWidth || act.Committed > cfg.CommitWidth {
				t.Logf("seed %d: width violation %+v", seed, act)
				return false
			}
			sum := 0
			for cl := Class(0); cl < NumClasses; cl++ {
				sum += act.Issued[cl]
			}
			if sum != act.IssuedTotal {
				t.Logf("seed %d: per-class issue sum %d != total %d", seed, sum, act.IssuedTotal)
				return false
			}
			fetched += act.Fetched
			dispatched += act.Dispatched
			issued += act.IssuedTotal
			committed += act.Committed
		}
		return fetched == n && dispatched == n && issued == n && committed == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestThrottleNeverSpeedsUp: any restrictive throttle takes at least as
// many cycles as the unlimited machine on the same stream.
func TestThrottleNeverSpeedsUp(t *testing.T) {
	f := func(seed uint64) bool {
		n := 500
		run := func(th Throttle) uint64 {
			core := New(DefaultConfig(), packTrace(randomStream(seed, n)))
			core.Run(1<<40, th)
			return core.Cycle()
		}
		free := run(Unlimited)
		narrow := run(Throttle{IssueWidth: 2, CachePorts: 1, IssueCurrentBudget: -1})
		return narrow >= free
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestDeterministicReplay: the core is a pure function of its stream and
// throttle sequence.
func TestDeterministicReplay(t *testing.T) {
	stream := randomStream(99, 2000)
	run := func() (uint64, uint64) {
		core := New(DefaultConfig(), packTrace(stream))
		core.Run(1<<40, Unlimited)
		return core.Cycle(), core.Committed()
	}
	c1, n1 := run()
	c2, n2 := run()
	if c1 != c2 || n1 != n2 {
		t.Errorf("replay diverged: (%d,%d) vs (%d,%d)", c1, n1, c2, n2)
	}
}
