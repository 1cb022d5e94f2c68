package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/baselines/damping"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Table5Row is one pipeline-damping configuration.
type Table5Row struct {
	// DeltaRelative is δ as a fraction of the resonant current
	// variation threshold (1, 0.5, 0.25 in the paper).
	DeltaRelative  float64
	DeltaAmps      float64
	WorstSlowdown  float64
	WorstApp       string
	AvgSlowdown    float64
	AvgEnergyDelay float64
}

// Table5Data is the full sweep.
type Table5Data struct {
	Rows []Table5Row
	Base []sim.Result
}

// paperTable5 lists the paper's Table 5 for comparison.
var paperTable5 = []struct {
	DeltaRel, WorstSlowdown, AvgSlowdown, AvgED float64
}{
	{1, 1.35, 1.10, 1.12},
	{0.5, 1.60, 1.15, 1.17},
	{0.25, 2.04, 1.24, 1.26},
}

// Table5 reproduces Table 5: pipeline damping [14] applied at the
// resonant period (50-cycle damping window) with δ swept at 1×, 0.5×,
// and 0.25× the resonant current variation threshold. Tightening δ to
// cover the whole resonance band rather than just the resonant frequency
// costs increasing performance and energy.
func Table5(opts Options) (Report, error) {
	supply := circuit.Table1()
	window := int(math.Round(supply.ResonantPeriodCycles() / 2))
	const thresholdAmps = 32.0

	deltas := []float64{1, 0.5, 0.25}
	variants := make([]engine.Spec, len(deltas))
	for i, rel := range deltas {
		dcfg := damping.Config{
			WindowCycles: window,
			DeltaAmps:    thresholdAmps * rel,
			Scale:        dampingScale,
		}
		variants[i] = engine.Spec{Technique: engine.TechniqueDamping, Damping: &dcfg}
	}
	c, err := compare(opts, workload.Names(), engine.Spec{}, variants...)
	if err != nil {
		return Report{}, err
	}
	data := &Table5Data{Base: c.base}
	for i, rel := range deltas {
		sum := c.sums[i]
		data.Rows = append(data.Rows, Table5Row{
			DeltaRelative:  rel,
			DeltaAmps:      variants[i].Damping.DeltaAmps,
			WorstSlowdown:  sum.WorstSlowdown,
			WorstApp:       sum.WorstApp,
			AvgSlowdown:    sum.AvgSlowdown,
			AvgEnergyDelay: sum.AvgEnergyDelay,
		})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: pipeline damping [14] (%d instructions/app, %d-cycle window)\n\n",
		opts.instructions(), window)
	tab := metrics.Table{Headers: []string{
		"δ / threshold", "δ (A)", "worst slowdown", "avg slowdown", "avg energy-delay",
	}}
	for _, r := range data.Rows {
		tab.AddRow(r.DeltaRelative, r.DeltaAmps,
			fmt.Sprintf("%.3f (%s)", r.WorstSlowdown, r.WorstApp),
			fmt.Sprintf("%.3f", r.AvgSlowdown),
			fmt.Sprintf("%.3f", r.AvgEnergyDelay))
	}
	b.WriteString(tab.String())
	b.WriteString("\npaper reference rows:\n")
	ref := metrics.Table{Headers: []string{"δ / threshold", "worst", "avg slowdown", "avg ED"}}
	for _, p := range paperTable5 {
		ref.AddRow(p.DeltaRel, p.WorstSlowdown, p.AvgSlowdown, p.AvgED)
	}
	b.WriteString(ref.String())
	return Report{ID: "table5", Text: b.String(), Data: data}, nil
}

// dampingScale converts δ (amps, relative to the resonant current
// variation threshold) into the window-sum bound. Reference [14] maps its
// abstract current-estimate units to amps with its own calibration
// ("each unit ... is equivalent to 0.5 A scaled to our processor
// configuration"); we calibrate the same way, choosing the scale so that
// δ equal to the threshold reproduces the ~10% average slowdown [14] and
// the paper's Table 5 report.
const dampingScale = 0.5
