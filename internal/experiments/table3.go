package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Table3Row is one resonance-tuning configuration's summary (one row of
// the paper's Table 3).
type Table3Row struct {
	InitialResponseCycles int
	DelayCycles           int
	FirstLevelFraction    float64
	SecondLevelFraction   float64
	WorstSlowdown         float64
	WorstApp              string
	AppsOver15            int
	AvgSlowdown           float64
	AvgEnergyDelay        float64
	ViolationsRemaining   uint64
	BaseViolations        uint64
}

// Table3Data holds the full sweep plus the paper's reference rows.
type Table3Data struct {
	Rows []Table3Row
	// Base holds the uncontrolled runs the relatives are computed
	// against.
	Base []sim.Result
}

// paperTable3 lists the paper's Table 3 for EXPERIMENTS.md comparisons.
var paperTable3 = []struct {
	Initial                    int
	FirstFrac, SecondFrac      float64
	WorstSlowdown, AvgSlowdown float64
	Over15                     int
	AvgED                      float64
}{
	{75, 0.10, 0.0040, 1.19, 1.043, 2, 1.052},
	{100, 0.12, 0.0038, 1.20, 1.048, 1, 1.057},
	{125, 0.15, 0.0032, 1.19, 1.054, 2, 1.076},
	{150, 0.17, 0.0031, 1.35, 1.068, 4, 1.079},
	{200, 0.20, 0.0027, 1.27, 1.075, 5, 1.088},
}

// Table3 reproduces Table 3: resonance tuning swept over initial response
// times of 75-200 cycles, reporting response-cycle fractions, slowdowns,
// and relative energy-delay against the base machine, plus the paper's
// 5-cycle-delay sensitivity check (Section 5.2).
func Table3(opts Options) (Report, error) {
	type sweep struct{ initial, delay int }
	sweeps := []sweep{{75, 0}, {100, 0}, {125, 0}, {150, 0}, {200, 0}, {100, 5}}
	variants := make([]engine.Spec, len(sweeps))
	for i, sw := range sweeps {
		cfg := engine.DefaultTuningConfig(sw.initial)
		cfg.ResponseDelayCycles = sw.delay
		variants[i] = engine.Spec{Technique: engine.TechniqueTuning, Tuning: &cfg}
	}
	c, err := compare(opts, workload.Names(), engine.Spec{}, variants...)
	if err != nil {
		return Report{}, err
	}
	data := &Table3Data{Base: c.base}
	for i, sw := range sweeps {
		data.Rows = append(data.Rows, summarizeTuningRow(c.variants[i], c.sums[i], sw.initial, sw.delay))
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: resonance tuning (%d instructions/app)\n\n", opts.instructions())
	tab := metrics.Table{Headers: []string{
		"initial resp", "delay", "frac L1 resp", "frac L2 resp",
		"worst slowdown", "apps >15%", "avg slowdown", "avg energy-delay", "violations (base→tuned)",
	}}
	for _, r := range data.Rows {
		tab.AddRow(
			fmt.Sprintf("%d cycles", r.InitialResponseCycles),
			r.DelayCycles,
			fmt.Sprintf("%.3f", r.FirstLevelFraction),
			fmt.Sprintf("%.4f", r.SecondLevelFraction),
			fmt.Sprintf("%.3f (%s)", r.WorstSlowdown, r.WorstApp),
			r.AppsOver15,
			fmt.Sprintf("%.3f", r.AvgSlowdown),
			fmt.Sprintf("%.3f", r.AvgEnergyDelay),
			fmt.Sprintf("%d→%d", r.BaseViolations, r.ViolationsRemaining),
		)
	}
	b.WriteString(tab.String())
	b.WriteString("\npaper reference rows (500M instructions/app):\n")
	ref := metrics.Table{Headers: []string{"initial resp", "frac L1", "frac L2", "worst", ">15%", "avg slowdown", "avg ED"}}
	for _, p := range paperTable3 {
		ref.AddRow(fmt.Sprintf("%d cycles", p.Initial), p.FirstFrac, p.SecondFrac,
			p.WorstSlowdown, p.Over15, p.AvgSlowdown, p.AvgED)
	}
	b.WriteString(ref.String())
	return Report{ID: "table3", Text: b.String(), Data: data}, nil
}

// summarizeTuningRow condenses one resonance-tuning configuration's suite
// results and summary into a table row.
func summarizeTuningRow(results []sim.Result, sum metrics.Summary, initial, delay int) Table3Row {
	var firstCycles, secondCycles, totalCycles uint64
	for _, r := range results {
		firstCycles += r.Tech.FirstLevelCycles
		secondCycles += r.Tech.SecondLevelCycles
		totalCycles += r.Tech.ControllerCycles
	}
	row := Table3Row{
		InitialResponseCycles: initial,
		DelayCycles:           delay,
		WorstSlowdown:         sum.WorstSlowdown,
		WorstApp:              sum.WorstApp,
		AppsOver15:            sum.Over15,
		AvgSlowdown:           sum.AvgSlowdown,
		AvgEnergyDelay:        sum.AvgEnergyDelay,
		ViolationsRemaining:   sum.TechViolations,
		BaseViolations:        sum.BaseViolations,
	}
	if totalCycles > 0 {
		row.FirstLevelFraction = float64(firstCycles) / float64(totalCycles)
		row.SecondLevelFraction = float64(secondCycles) / float64(totalCycles)
	}
	return row
}
