package cpu

import (
	"fmt"
	"testing"
)

// throttleSchedule names a deterministic per-cycle throttle sequence.
type throttleSchedule struct {
	name string
	at   func(cycle uint64) Throttle
}

// diffSchedules covers every throttle shape the techniques exercise:
// unrestricted, halved width with one port, single-wide, issue-current
// budgets (including skip-and-retry and zero-budget stalls), full issue
// stalls, fetch stalls, and phase mixtures of all of them.
func diffSchedules(amps [NumClasses]float64) []throttleSchedule {
	return []throttleSchedule{
		{"unlimited", func(uint64) Throttle { return Unlimited }},
		{"halved", func(uint64) Throttle {
			return Throttle{IssueWidth: 4, CachePorts: 1, IssueCurrentBudget: -1}
		}},
		{"single", func(uint64) Throttle {
			return Throttle{IssueWidth: 1, CachePorts: 1, IssueCurrentBudget: -1}
		}},
		{"budgeted", func(c uint64) Throttle {
			// Swings the budget so some cycles fit several cheap ops
			// but not an expensive one (skip-and-retry) and some fit
			// nothing at all.
			return Throttle{IssueCurrentBudget: amps[IntALU] * float64(c%5)}
		}},
		{"stall-issue", func(c uint64) Throttle {
			if c%7 < 3 {
				return Throttle{StallIssue: true, IssueCurrentBudget: -1}
			}
			return Unlimited
		}},
		{"stall-fetch", func(c uint64) Throttle {
			if c%11 < 4 {
				return Throttle{StallFetch: true, IssueCurrentBudget: -1}
			}
			return Unlimited
		}},
		{"mixed", func(c uint64) Throttle {
			switch (c / 64) % 4 {
			case 0:
				return Unlimited
			case 1:
				return Throttle{IssueWidth: 4, CachePorts: 1, IssueCurrentBudget: -1}
			case 2:
				return Throttle{StallIssue: true, StallFetch: c%2 == 0, IssueCurrentBudget: -1}
			default:
				return Throttle{IssueCurrentBudget: amps[IntALU] * 2.5}
			}
		}},
	}
}

// diffConfigs exercises the power-of-two ROB rounding: the Table 1
// configuration (already a power of two), a non-power-of-two window, and
// a tiny machine where every structure is tight.
func diffConfigs() []Config {
	table1 := DefaultConfig()

	odd := DefaultConfig()
	odd.ROBSize = 96
	odd.IQSize = 37
	odd.LSQSize = 41
	odd.FetchQueue = 13

	tiny := DefaultConfig()
	tiny.ROBSize = 24
	tiny.IQSize = 9
	tiny.LSQSize = 11
	tiny.FetchQueue = 5
	tiny.IssueWidth = 3
	tiny.CommitWidth = 3
	tiny.IntALUs = 2
	tiny.CachePorts = 1

	return []Config{table1, odd, tiny}
}

// TestSchedulerMatchesScanReference: the event-driven scheduler must
// produce a bit-identical per-cycle Activity stream to the scan-based
// reference core on randomized workloads under every throttle schedule.
func TestSchedulerMatchesScanReference(t *testing.T) {
	var amps [NumClasses]float64
	for cl := Class(0); cl < NumClasses; cl++ {
		amps[cl] = 1 + float64(cl)*0.5
	}
	for ci, cfg := range diffConfigs() {
		for _, sched := range diffSchedules(amps) {
			t.Run(fmt.Sprintf("cfg%d/%s", ci, sched.name), func(t *testing.T) {
				for seed := uint64(1); seed <= 8; seed++ {
					n := 400 + int(seed%600)
					stream := randomStream(seed*131+uint64(ci), n)
					ev := New(cfg, NewSliceSource(append([]Inst(nil), stream...)))
					ref := newScanCore(cfg, NewSliceSource(append([]Inst(nil), stream...)))
					ev.SetClassCurrentEstimates(amps)
					ref.SetClassCurrentEstimates(amps)

					limit := uint64(n)*uint64(cfg.MemLat+cfg.MispredictPenalty+16) + 4096
					for cyc := uint64(0); cyc < limit; cyc++ {
						if ev.Done() && ref.Done() {
							break
						}
						th := sched.at(cyc)
						got := ev.Step(th)
						want := ref.Step(th)
						if got != want {
							t.Fatalf("seed %d cycle %d: activity diverged\n got %+v\nwant %+v",
								seed, cyc, got, want)
						}
					}
					if !ev.Done() || !ref.Done() {
						t.Fatalf("seed %d: stream did not drain (event done=%v, scan done=%v)",
							seed, ev.Done(), ref.Done())
					}
					if ev.Committed() != uint64(n) || ref.Committed() != uint64(n) {
						t.Fatalf("seed %d: committed %d/%d, want %d",
							seed, ev.Committed(), ref.Committed(), n)
					}
				}
			})
		}
	}
}

// TestSchedulerMatchesScanLongRun: one long random stream per config under
// the mixed schedule, as a deeper soak than the per-schedule cases.
func TestSchedulerMatchesScanLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	var amps [NumClasses]float64
	for cl := Class(0); cl < NumClasses; cl++ {
		amps[cl] = 0.8 + float64(cl)*0.7
	}
	sched := diffSchedules(amps)[6] // mixed
	for ci, cfg := range diffConfigs() {
		stream := randomStream(977+uint64(ci), 30_000)
		ev := New(cfg, NewSliceSource(append([]Inst(nil), stream...)))
		ref := newScanCore(cfg, NewSliceSource(append([]Inst(nil), stream...)))
		ev.SetClassCurrentEstimates(amps)
		ref.SetClassCurrentEstimates(amps)
		for cyc := uint64(0); !ev.Done() || !ref.Done(); cyc++ {
			th := sched.at(cyc)
			got := ev.Step(th)
			want := ref.Step(th)
			if got != want {
				t.Fatalf("cfg %d cycle %d: activity diverged\n got %+v\nwant %+v", ci, cyc, got, want)
			}
			if cyc > 10_000_000 {
				t.Fatal("livelock")
			}
		}
	}
}

// TestCeilPow2 pins the mask-capacity helper.
func TestCeilPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 24: 32, 64: 64, 96: 128, 128: 128, 129: 256}
	for n, want := range cases {
		if got := ceilPow2(n); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", n, got, want)
		}
	}
}
