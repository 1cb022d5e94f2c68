// Package batchkernel steps K simulations in lockstep over one shared
// machine. It is the engine's only execution path: the engine packs
// specs whose technique-independent halves are identical (same
// application stream, same simulated system — see Spec.MachineKey) into
// the lanes of a group, and runs a lone spec as a one-lane group (which
// never forks). Per-lane state is kept in parallel arrays (the lanes and
// their per-cycle decisions), while the expensive machine state — core
// scheduler, power accumulators, supply circuit — exists once per
// cohort.
//
// The kernel is speculative: each cycle every live lane's technique
// decides its (throttle, phantom) pair, and as long as the decisions
// agree the cohort advances with one machine step instead of K. A lane
// whose decision differs from the leader's has, from that cycle on, a
// genuinely different trajectory — but the prefix it observed is exactly
// its own scalar prefix, so divergence is a fork, not a discard: the
// shared machine is deep-copied at the pre-step state (sim.Machine.Fork)
// and the lane resumes on the copy from the divergence cycle. Lanes that
// diverge at the same cycle with the same decision ride one fork together
// as a fresh lockstep cohort, and a cohort can split again, so a K-lane
// group decays into a tree of smaller cohorts instead of K scalar
// re-runs from cycle zero. Lanes that survive to the end of whichever
// cohort they inhabit are bit-identical to their scalar runs by
// induction: equal decisions every cycle mean the cohort trajectory is
// each lane's own, and the fork contract makes the copy's trajectory
// indistinguishable from the original's. The scalar loop (sim.Simulator)
// stays frozen as the differential reference; internal/engine's
// differential harness pins the equivalence per cycle over every
// registered technique kind, including forked and re-forked lanes and
// one-lane groups.
package batchkernel

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/power"
	"repro/internal/sim"
)

// Status classifies how a lane's run ended.
type Status uint8

// Lane outcomes.
const (
	// Finished lanes ran to the end of the stream — in the original
	// cohort or on a forked machine; either way their Result is
	// bit-identical to a scalar run of the same spec.
	Finished Status = iota
	// Failed lanes panicked in their technique or trace callback, or
	// decided differently from their cohort leader on a machine that
	// could not be forked (an instruction source without
	// cpu.ForkableSource); Err carries the recovered panic or the fork
	// error. The rest of the cohort is unaffected.
	Failed
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Finished:
		return "finished"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Lane is one simulation sharing a cohort's machine: the technique (with
// its own controller state) plus the optional per-cycle trace hooks,
// mirroring sim.Simulator.SetTrace.
type Lane struct {
	// Tech decides the lane's per-cycle control; nil is the base
	// (uncontrolled) machine.
	Tech sim.Technique
	// TechName labels the lane's Result; empty defaults to Tech.Name()
	// (or "base" for a nil Tech).
	TechName string
	// Trace, when non-nil, receives the lane's per-cycle waveform.
	Trace func(sim.TracePoint)
	// EventCount and Level fill TracePoint's technique columns.
	EventCount func() int
	Level      func() int
}

// name returns the lane's result label.
func (l *Lane) name() string {
	if l.TechName != "" {
		return l.TechName
	}
	if l.Tech != nil {
		return l.Tech.Name()
	}
	return "base"
}

// next stores the lane's decision for the coming cycle in *d, converting
// a panic into an error so one broken lane cannot take down the cohort.
func (l *Lane) next(d *decision) (err error) {
	if l.Tech == nil {
		*d = decision{th: cpu.Unlimited}
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("batchkernel: technique %s panicked in Next: %v", l.name(), r)
		}
	}()
	d.th, d.ph = l.Tech.Next()
	return nil
}

// observe delivers the cycle's observation and trace point to the lane,
// converting a panic into an error.
func (l *Lane) observe(obs *sim.Observation) (err error) {
	if l.Tech == nil && l.Trace == nil {
		return nil // nothing to deliver; skip the recover scaffolding
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("batchkernel: technique %s panicked in Observe: %v", l.name(), r)
		}
	}()
	if l.Tech != nil {
		l.Tech.Observe(obs)
	}
	if l.Trace != nil {
		l.trace(obs)
	}
	return nil
}

// trace delivers the cycle's trace point to the lane's Trace callback.
func (l *Lane) trace(obs *sim.Observation) {
	tp := sim.TracePoint{Cycle: obs.Cycle, TotalAmps: obs.TotalAmps, DeviationVolts: obs.DeviationVolts}
	if l.EventCount != nil {
		tp.EventCount = l.EventCount()
	}
	if l.Level != nil {
		tp.ResponseLevel = l.Level()
	}
	l.Trace(tp)
}

// Outcome describes how one lane ended.
type Outcome struct {
	Status Status
	// FailedAt is the cycle at which a Failed lane stopped: the cycle
	// whose technique call panicked, or whose decision could not fork.
	// The lane observed every cycle before FailedAt and none from it on.
	FailedAt uint64
	// Err is the recovered panic or fork error of a Failed lane.
	Err error
	// Result is the lane's summary (Finished lanes only).
	Result sim.Result
	// Forks counts how many times the lane moved onto a forked machine
	// on its way to its outcome; FirstForkAt is the cycle of the first
	// such move (meaningful only when Forks > 0). A finished lane with
	// Forks == 0 rode the original machine the whole way.
	Forks       int
	FirstForkAt uint64
}

// Stats aggregates a Run's divergence handling, the counters
// engine.CacheStats and resonanced's /metrics export.
type Stats struct {
	// LanesForked counts lane moves onto a forked machine (a lane that
	// re-forks in a cascade counts once per move); CohortsForked counts
	// the forked machines created, each seeding one new lockstep cohort.
	LanesForked   uint64
	CohortsForked uint64
	// CyclesSaved is the speculative prefix retained by forking: the sum
	// over lanes of the lane's cycle position at its *first* fork —
	// exactly the per-lane prefix the pre-fork kernel discarded and
	// re-simulated from cycle zero on the scalar path.
	CyclesSaved uint64
	// Steps counts machine steps executed across the whole cohort tree;
	// the sum of the lanes' cycle counts divided by Steps is the
	// lockstep sharing factor actually achieved (K for a group that
	// never diverges, approaching 1 as lanes fork off early).
	Steps uint64
	// PowerMemo summed the traffic of the power model's retired
	// activity-vector memo.
	//
	// Deprecated: always zero; kept because benchmark tooling reads it.
	PowerMemo power.MemoStats
}

// decision is one lane's control output for a cycle. Comparability is
// what makes lockstep checking one struct compare per lane per cycle.
type decision struct {
	th cpu.Throttle
	ph sim.Phantom
}

// cohort is one set of lanes advancing in lockstep on one machine. The
// root cohort owns the caller's machine; every split creates a new
// cohort on a fork. pending carries the split cycle's already-made
// decisions (parallel to live): a technique's Next has side effects and
// ran before the split was detected, so the new cohort's first step must
// consume the stored decisions rather than ask again.
type cohort struct {
	m       *sim.Machine
	live    []int
	pending []decision
}

// Run steps the machine with all lanes in lockstep until the instruction
// stream drains (or the machine's cycle limit), forking diverging lanes
// onto machine copies that resume in place — lanes splitting at the same
// cycle with the same decision share one fork as a fresh cohort, and
// cohorts split recursively — and returns one Outcome per lane plus the
// divergence statistics. appName labels the results. The leader — the
// first live lane of a cohort — drives that cohort's machine; when it is
// removed the next live lane is promoted. Run consumes the machine: it
// must be freshly built and not shared.
func Run(m *sim.Machine, appName string, lanes []Lane) ([]Outcome, Stats) {
	out := make([]Outcome, len(lanes))
	var stats Stats
	decisions := make([]decision, len(lanes))

	root := cohort{m: m, live: make([]int, len(lanes))}
	for i := range lanes {
		root.live[i] = i
	}
	// Depth-first over the cohort tree: a split pushes the new cohort
	// and the current one keeps running; order does not affect results
	// (cohorts share nothing after the fork) but LIFO keeps the warm
	// machine state cache-resident.
	stack := []cohort{root}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		stack = runCohort(c, appName, lanes, decisions, out, &stats, stack)
	}
	return out, stats
}

// runCohort advances one cohort to completion, appending any cohorts it
// forks to stack and returning it.
func runCohort(c cohort, appName string, lanes []Lane, decisions []decision, out []Outcome, stats *Stats, stack []cohort) []cohort {
	m := c.m
	limit := m.CycleLimit()

	for len(c.live) > 0 && !m.Done() && m.Cycles() < limit {
		if c.pending == nil && len(c.live) == 1 {
			// Sole survivor: no lockstep check to run, so the lane runs
			// to the end on its own — the common state once a cohort
			// has shed its other lanes.
			i := c.live[0]
			if !runLone(m, &lanes[i], &out[i], stats) {
				c.live = c.live[:0]
			}
			break
		}

		// Decide: every live lane's control for this cycle — the
		// decisions stored by the split that created this cohort, or
		// fresh ones from each technique.
		if c.pending != nil {
			for k, i := range c.live {
				decisions[i] = c.pending[k]
			}
			c.pending = nil
		} else {
			n := 0
			for _, i := range c.live {
				if err := lanes[i].next(&decisions[i]); err != nil {
					out[i].Status, out[i].FailedAt, out[i].Err = Failed, m.Cycles(), err
					continue
				}
				c.live[n] = i
				n++
			}
			c.live = c.live[:n]
			if n == 0 {
				break
			}
		}

		// Check lockstep: followers whose decision differs from the
		// leader's leave the cohort *before* the machine steps, so the
		// trajectory they observed so far is exactly their scalar
		// prefix. They regroup by decision — one fork per distinct
		// decision — and resume as new cohorts.
		if len(c.live) > 1 {
			lead := decisions[c.live[0]]
			n := 1
			var split []int
			for _, i := range c.live[1:] {
				if decisions[i] == lead {
					c.live[n] = i
					n++
					continue
				}
				split = append(split, i)
			}
			c.live = c.live[:n]
			if split != nil {
				stack = forkCohorts(m, split, decisions, out, stats, stack)
			}
		}

		// One machine step serves every lane still in the cohort.
		obs := m.Step(decisions[c.live[0]].th, decisions[c.live[0]].ph)
		stats.Steps++

		n := 0
		for _, i := range c.live {
			if err := lanes[i].observe(obs); err != nil {
				out[i].Status, out[i].FailedAt, out[i].Err = Failed, obs.Cycle, err
				continue
			}
			c.live[n] = i
			n++
		}
		c.live = c.live[:n]
	}

	for _, i := range c.live {
		res := m.Result(appName, lanes[i].name())
		res.Tech = sim.TechStatsOf(lanes[i].Tech)
		out[i].Status = Finished
		out[i].Result = res
	}
	return stack
}

// runLone steps a cohort's only lane to the end of the run and reports
// whether it got there. A panic in the lane's technique or trace
// callbacks fails the lane exactly as next and observe do, under one
// deferred recover for the whole run instead of two per cycle. A panic
// inside Machine.Step is not the lane's: the recover leaves it alone, so
// it unwinds out of Run like a panic in a lockstep step.
func runLone(m *sim.Machine, l *Lane, out *Outcome, stats *Stats) (finished bool) {
	const (
		inNext = iota
		inStep
		inObserve
	)
	phase := inNext
	defer func() {
		if finished || phase == inStep {
			return
		}
		r := recover()
		// The lane stopped on the cycle it was deciding (Next) or
		// observing (Observe, which comes after that cycle's step).
		at, where := m.Cycles(), "Next"
		if phase == inObserve {
			at, where = at-1, "Observe"
		}
		out.Status, out.FailedAt = Failed, at
		out.Err = fmt.Errorf("batchkernel: technique %s panicked in %s: %v", l.name(), where, r)
	}()
	limit := m.CycleLimit()
	for !m.Done() && m.Cycles() < limit {
		phase = inNext
		th, ph := cpu.Unlimited, sim.Phantom{}
		if l.Tech != nil {
			th, ph = l.Tech.Next()
		}
		phase = inStep
		obs := m.Step(th, ph)
		stats.Steps++
		phase = inObserve
		if l.Tech != nil {
			l.Tech.Observe(obs)
		}
		if l.Trace != nil {
			l.trace(obs)
		}
	}
	return true
}

// forkCohorts regroups the lanes that just left a cohort: lanes sharing
// a decision ride one machine fork together as a fresh lockstep cohort
// (first-appearance order, so regrouping is deterministic). When the
// machine cannot be forked the affected lanes end Failed with the fork
// error.
func forkCohorts(m *sim.Machine, split []int, decisions []decision, out []Outcome, stats *Stats, stack []cohort) []cohort {
	at := m.Cycles()
	for len(split) > 0 {
		d0 := decisions[split[0]]
		grp := []int{split[0]}
		rest := split[1:]
		n := 0
		for _, i := range rest {
			if decisions[i] == d0 {
				grp = append(grp, i)
			} else {
				rest[n] = i
				n++
			}
		}
		rest = rest[:n]

		fm, err := m.Fork()
		if err != nil {
			for _, i := range grp {
				out[i].Status, out[i].FailedAt, out[i].Err = Failed, at, err
			}
			split = rest
			continue
		}
		stats.CohortsForked++
		stats.LanesForked += uint64(len(grp))
		pend := make([]decision, len(grp))
		for k, i := range grp {
			pend[k] = decisions[i]
			if out[i].Forks == 0 {
				out[i].FirstForkAt = at
				stats.CyclesSaved += at
			}
			out[i].Forks++
		}
		stack = append(stack, cohort{m: fm, live: grp, pending: pend})
		split = rest
	}
	return stack
}
