package engine

import (
	"fmt"
	"math"
	"reflect"

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
	return m.Key()
}

// laneGroup is one packed work item: the indices (into the batch's spec
// slice) of the specs sharing a machine.
type laneGroup struct {
	indices []int
}

// packGroups partitions the given spec indices into lane groups by
// MachineKey. Every index appears in exactly one group; specs that
// cannot be keyed (invalid technique) become one-lane groups. Group
// order follows first appearance, and indices within a group stay in
// caller order, so packing is deterministic.
func packGroups(specs []Spec, indices []int) []laneGroup {
	byKey := make(map[Key]int) // machine key -> position in groups
	var groups []laneGroup
	for _, i := range indices {
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

// job is one spec resolved for simulation: its normalized form (whose
// pointers keep the holder prepare resolved it in), its instruction
// stream's parameters, its untraced kernel lane (the
// constructed technique), and the technique's trace hooks, which a
// traced Prepared.Run puts on the lane.
type job struct {
	n      Spec
	params workload.Params
	lane   batchkernel.Lane
	hooks  TraceHooks
}

// prepare resolves spec for simulation. It checks the whole spec, as
// Validate does, before building anything: the technique constructors
// assume a usable network, so a run fails with Validate's error rather
// than a constructor's panic.
func prepare(spec Spec) (job, error) {
	r := new(resolved)
	if err := r.resolve(&spec); err != nil {
		return job{}, err
	}
	params, err := r.n.validate(r.desc)
	if err != nil {
		return job{}, err
	}
	lane := batchkernel.Lane{TechName: string(TechniqueNone)}
	var hooks TraceHooks
	if r.desc.Build != nil {
		lane.Tech, hooks = r.desc.Build(&r.n, envOf(r.n.System))
		lane.TechName = lane.Tech.Name()
	}
	return job{n: r.n, params: params, lane: lane, hooks: hooks}, nil
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
// built fails alone, and so does one whose result is not finite (see
// nonFinite); a panic anywhere in the group fails every spec in it, so
// the caller always has an outcome to settle each claim with.
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
	for k := range outs {
		out := &outs[k]
		if field, x := nonFinite(reflect.ValueOf(&out.Result).Elem()); out.Err == nil && field != "" {
			out.Err = fmt.Errorf("engine: the run's result field %s is %v, not a finite number", field, x)
		}
		res[idx[k]], errs[idx[k]] = out.Result, out.Err
	}
	return res, errs, st
}

// nonFinite returns the name and value of the first float64 field of v,
// a struct (a sim.Result), that is NaN or ±Inf, or "". simulate fails
// such a run, so it is neither cached nor stored, and a server answers
// with its error: JSON has no spelling for the value.
func nonFinite(v reflect.Value) (field string, x float64) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Struct:
			if sub, x := nonFinite(f); sub != "" {
				return v.Type().Field(i).Name + "." + sub, x
			}
		case reflect.Float64:
			if x := f.Float(); math.IsNaN(x) || math.IsInf(x, 0) {
				return v.Type().Field(i).Name, x
			}
		}
	}
	return "", 0
}
