package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baselines/convctl"
	"repro/internal/engine"
	"repro/internal/metrics"
)

// RelatedRow is one technique's summary in the related-work comparison.
type RelatedRow struct {
	Technique           string
	AvgSlowdown         float64
	AvgEnergy           float64
	AvgEnergyDelay      float64
	ViolationsRemaining uint64
	BaseViolations      uint64
}

// RelatedData holds the five-way comparison.
type RelatedData struct {
	Rows []RelatedRow
}

// Related compares resonance tuning with every related technique the
// paper discusses — [10]'s voltage-threshold control, [14]'s pipeline
// damping, [8]'s convolution-based prediction, and a [11]-style Haar-
// wavelet detector — on the frequently violating application subset.
// This goes beyond the paper's own evaluation (which covers [10] and
// [14]) by also implementing the two schemes it discusses qualitatively.
func Related(opts Options) (Report, error) {
	// Every technique is an engine Spec: construction, phantom-fire and
	// mid-level current derivation, the worker pool, and the result
	// cache are all the engine's. A nil section runs the engine's
	// default configuration, which for each row is the one compared
	// here: the paper's tuning configuration, [10] at 20 mV / 10 mV /
	// 5 cycles, [14] at δ = 0.5 × threshold, and [8] on the simulated
	// Table 1 supply.
	techs := []struct {
		name string
		spec engine.Spec
	}{
		{"resonance tuning (paper)", engine.Spec{Technique: engine.TechniqueTuning}},
		{"voltage control [10] (20mV/10mV/5cyc)", engine.Spec{Technique: engine.TechniqueVoltageControl}},
		{"pipeline damping [14] (δ=0.5×threshold)", engine.Spec{Technique: engine.TechniqueDamping}},
		{"convolution control [8], perfect estimates", engine.Spec{Technique: engine.TechniqueConvolution}},
		{"convolution control [8], ±10 A estimate error", engine.Spec{Technique: engine.TechniqueConvolution,
			Convolution: &convctl.Config{EstimateErrorAmps: 10, Seed: 99}}},
		{"wavelet detector [11]-style", engine.Spec{Technique: engine.TechniqueWavelet}},
	}
	variants := make([]engine.Spec, len(techs))
	for i, tc := range techs {
		variants[i] = tc.spec
	}
	c, err := compare(opts, ablationApps, engine.Spec{}, variants...)
	if err != nil {
		return Report{}, err
	}
	data := &RelatedData{}
	for i, tc := range techs {
		sum := c.sums[i]
		data.Rows = append(data.Rows, RelatedRow{
			Technique:           tc.name,
			AvgSlowdown:         sum.AvgSlowdown,
			AvgEnergy:           sum.AvgEnergy,
			AvgEnergyDelay:      sum.AvgEnergyDelay,
			ViolationsRemaining: sum.TechViolations,
			BaseViolations:      sum.BaseViolations,
		})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Related techniques (%d instructions/app over %v)\n\n", opts.instructions(), ablationApps)
	tab := metrics.Table{Headers: []string{
		"technique", "avg slowdown", "avg energy", "avg energy-delay", "violations (base→ctl)",
	}}
	for _, r := range data.Rows {
		tab.AddRow(r.Technique,
			fmt.Sprintf("%.3f", r.AvgSlowdown),
			fmt.Sprintf("%.3f", r.AvgEnergy),
			fmt.Sprintf("%.3f", r.AvgEnergyDelay),
			fmt.Sprintf("%d→%d", r.BaseViolations, r.ViolationsRemaining))
	}
	b.WriteString(tab.String())
	b.WriteString("\n[8] and [11] are the paper's Sections 1/6 discussion made concrete.\n" +
		"Convolution control predicts superbly in simulation — even with noisy\n" +
		"estimates — which sharpens the paper's actual critique: the barrier is\n" +
		"a ~400-tap multiply-accumulate every cycle at core clock, not accuracy\n" +
		"(compare perfbench's per-layer baselines.convctl.ns_per_cycle with\n" +
		"tuning.resonance.ns_per_cycle). The dyadic wavelet\n" +
		"scales approximate the band more coarsely than resonance tuning's\n" +
		"per-half-period adders and pay roughly [10]-like costs.\n")
	return Report{ID: "related", Text: b.String(), Data: data}, nil
}
