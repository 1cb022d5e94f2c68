package engine

// Divergence-anatomy measurement harness behind the EXPERIMENTS.md
// "Divergence anatomy" study: for every application it runs (a) every
// technique kind (Kinds) as one lockstep group and (b) the
// Table 3 lane group (base + six resonance-tuning variants), and logs
// each lane's first-divergence cycle, the cohort economics, and the
// achieved machine-step sharing factor. Run it with
//
//	go test -run TestDivergenceAnatomy -v ./internal/engine
//
// (ANATOMY_INSTS overrides the per-app instruction budget; the study in
// EXPERIMENTS.md uses 60000, the benchmarks' budget). As a plain test
// it only asserts sanity — every lane finishes — so the suite stays
// fast and the numbers stay observational.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine/batchkernel"
	"repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// anatomyTuningConfig is Table 3's tuning configuration (the paper's
// defaults plus the row's response delay, as internal/experiments builds
// it) so the Table 3 group here diverges exactly like the real
// experiment's.
func anatomyTuningConfig(initialResponseCycles, delayCycles int) tuning.Config {
	c := DefaultTuningConfig(initialResponseCycles)
	c.ResponseDelayCycles = delayCycles
	return c
}

// anatomyGroup runs one lane group on one app and logs its anatomy.
func anatomyGroup(t *testing.T, label, app string, insts uint64, specs []Spec) {
	t.Helper()
	lanes := make([]batchkernel.Lane, len(specs))
	names := make([]string, len(specs))
	for i := range specs {
		tech, _, err := BuildTechnique(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		lanes[i] = batchkernel.Lane{Tech: tech}
		names[i] = string(specs[i].Technique)
		if tech != nil {
			names[i] = tech.Name()
		}
	}
	appParams, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	src := workload.SharedTraces().Source(appParams.Params, insts)
	m, err := sim.NewMachine(sim.DefaultConfig(), src)
	if err != nil {
		t.Fatal(err)
	}
	outs, stats := batchkernel.Run(m, app, lanes)

	var laneCycles uint64
	var forks []string
	for i, out := range outs {
		if out.Status != batchkernel.Finished {
			t.Fatalf("%s/%s lane %s: %v (%v)", label, app, names[i], out.Status, out.Err)
		}
		laneCycles += out.Result.Cycles
		if out.Forks > 0 {
			forks = append(forks, fmt.Sprintf("%s@%d(x%d)", names[i], out.FirstForkAt, out.Forks))
		}
	}
	sharing := float64(laneCycles) / float64(stats.Steps)
	t.Logf("%s %-8s lanes=%d laneCycles=%d steps=%d sharing=%.2f forkedLanes=%d cohorts=%d saved=%d firstForks=[%s]",
		label, app, len(outs), laneCycles, stats.Steps, sharing,
		stats.LanesForked, stats.CohortsForked, stats.CyclesSaved,
		strings.Join(forks, " "))
}

func TestDivergenceAnatomy(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement harness; skipped in -short")
	}
	insts := uint64(20_000)
	if s := os.Getenv("ANATOMY_INSTS"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad ANATOMY_INSTS: %v", err)
		}
		insts = v
	}

	// Group (a): every technique kind, as in the differential harness.
	kinds := Kinds()
	kindSpecsFor := func() []Spec {
		specs := make([]Spec, len(kinds))
		for i, k := range kinds {
			specs[i] = Spec{Technique: k}
		}
		return specs
	}
	// Group (b): the Table 3 lanes — base plus six tuning variants.
	inis := []struct{ initial, delay int }{{75, 0}, {100, 0}, {125, 0}, {150, 0}, {200, 0}, {100, 5}}
	table3SpecsFor := func() []Spec {
		specs := []Spec{{}}
		for _, sw := range inis {
			cfg := anatomyTuningConfig(sw.initial, sw.delay)
			specs = append(specs, Spec{Technique: TechniqueTuning, Tuning: &cfg})
		}
		return specs
	}

	for _, app := range workload.Apps() {
		name := app.Params.Name
		anatomyGroup(t, "kinds ", name, insts, kindSpecsFor())
		anatomyGroup(t, "table3", name, insts, table3SpecsFor())
	}
}
