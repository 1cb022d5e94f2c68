package engine

import (
	"fmt"

	"repro/internal/engine/batchkernel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// MachineKey returns the content key of the technique-independent half
// of the spec: the application stream, the run length, and the simulated
// system, with the technique and every technique section stripped. Two
// specs with equal MachineKeys simulate identical machines over
// identical instruction streams — the compatibility predicate the batch
// packer groups lanes by.
func (s Spec) MachineKey() (Key, error) {
	m := s
	m.Technique = TechniqueNone
	clearSections(&m)
	m.Trace = nil
	return m.Key()
}

// laneGroup is one packed work item: the indices (into the batch's spec
// slice) of the specs sharing a machine.
type laneGroup struct {
	indices []int
}

// packGroups partitions the given spec indices into lane groups by
// MachineKey. Every index appears in exactly one group; specs that
// cannot be keyed (invalid technique) and traced specs become one-lane
// groups — a trace callback is caller code run every cycle on the
// worker, and must not hold up the other specs' simulations. Group
// order follows first appearance, and indices within a group stay in
// caller order, so packing is deterministic.
func packGroups(specs []Spec, indices []int) []laneGroup {
	byKey := make(map[Key]int) // machine key -> position in groups
	var groups []laneGroup
	for _, i := range indices {
		if specs[i].Trace != nil {
			groups = append(groups, laneGroup{indices: []int{i}})
			continue
		}
		mk, err := specs[i].MachineKey()
		if err != nil {
			groups = append(groups, laneGroup{indices: []int{i}})
			continue
		}
		if g, ok := byKey[mk]; ok {
			groups[g].indices = append(groups[g].indices, i)
			continue
		}
		byKey[mk] = len(groups)
		groups = append(groups, laneGroup{indices: []int{i}})
	}
	return groups
}

// job is one spec resolved for simulation: its normalized form, its
// instruction stream's parameters, and its kernel lane (the constructed
// technique plus, for a traced spec, the trace hooks).
type job struct {
	n      Spec
	params workload.Params
	lane   batchkernel.Lane
}

// prepare resolves spec for simulation.
func prepare(spec Spec) (job, error) {
	n, desc, err := spec.normalized()
	if err != nil {
		return job{}, err
	}
	params, err := n.workloadParams()
	if err != nil {
		return job{}, err
	}
	tech, hooks, err := buildTechnique(&n, desc)
	if err != nil {
		return job{}, err
	}
	lane := batchkernel.Lane{Tech: tech, TechName: string(TechniqueNone)}
	if tech != nil {
		lane.TechName = tech.Name()
	}
	if spec.Trace != nil {
		lane.Trace, lane.EventCount, lane.Level = spec.Trace, hooks.EventCount, hooks.Level
	}
	return job{n: n, params: params, lane: lane}, nil
}

// machine builds the job's simulated system. The instruction stream
// comes from the shared trace store: the app's stream is materialized
// once per process and replayed through a slice cursor (bit-identical to
// live generation; streams too large for the store's budget fall back to
// a live Generator).
func (j *job) machine() (*sim.Machine, error) {
	return sim.NewMachine(*j.n.System, workload.SharedTraces().Source(j.params, j.n.Instructions))
}

// simulate runs specs that share a MachineKey as one lockstep kernel
// group — a single spec is a one-lane group — and returns each spec's
// result or error plus the kernel's statistics. A spec that cannot be
// built fails alone; a panic anywhere in the group fails every spec in
// it, so the caller always has an outcome to settle each claim with.
func simulate(specs []Spec) (res []sim.Result, errs []error, st batchkernel.Stats) {
	res = make([]sim.Result, len(specs))
	errs = make([]error, len(specs))
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("simulation panic: %v", r)
			for i := range errs {
				res[i], errs[i] = sim.Result{}, err
			}
		}
	}()

	var first job
	lanes := make([]batchkernel.Lane, 0, len(specs))
	idx := make([]int, 0, len(specs))
	for i := range specs {
		j, err := prepare(specs[i])
		if err != nil {
			errs[i] = err
			continue
		}
		if len(lanes) == 0 {
			first = j
		}
		lanes = append(lanes, j.lane)
		idx = append(idx, i)
	}
	if len(lanes) == 0 {
		return res, errs, st
	}
	// Every lane resolves to the first lane's machine by MachineKey
	// equality.
	m, err := first.machine()
	if err != nil {
		for _, i := range idx {
			errs[i] = err
		}
		return res, errs, st
	}
	outs, st := batchkernel.Run(m, first.n.App, lanes)
	for k, out := range outs {
		res[idx[k]], errs[idx[k]] = out.Result, out.Err
	}
	return res, errs, st
}
