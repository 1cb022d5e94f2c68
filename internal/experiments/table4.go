package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baselines/voltctl"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Table4Row is one configuration of the technique of [10].
type Table4Row struct {
	TargetThresholdMV   float64
	NoiseMVPeakToPeak   float64
	ActualThresholdMV   float64
	DelayCycles         int
	ResponseFraction    float64
	WorstSlowdown       float64
	WorstApp            string
	AvgSlowdown         float64
	AvgEnergyDelay      float64
	ViolationsRemaining uint64
	BaseViolations      uint64
}

// Table4Data is the full sweep.
type Table4Data struct {
	Rows []Table4Row
	Base []sim.Result
}

// paperTable4 lists the paper's Table 4 for comparison.
var paperTable4 = []struct {
	Target, Noise, Actual      float64
	Delay                      int
	RespFrac                   float64
	WorstSlowdown, AvgSlowdown float64
	AvgED                      float64
}{
	{30, 0, 30, 0, 0.002, 1.038, 1.005, 1.030},
	{20, 0, 20, 0, 0.04, 1.180, 1.039, 1.047},
	{30, 15, 22, 0, 0.05, 1.11, 1.031, 1.074},
	{20, 10, 15, 5, 0.15, 1.32, 1.108, 1.191},
	{20, 15, 12, 3, 0.27, 1.68, 1.236, 1.460},
}

// Table4 reproduces Table 4: the voltage-threshold technique of [10]
// swept over detection threshold, sensor noise, and sensing delay. Ideal
// sensors are cheap; realistic noise and delay multiply the number of
// (mostly unnecessary) responses and the cost.
func Table4(opts Options) (Report, error) {
	type cfg struct {
		targetMV, noiseMV float64
		delay             int
	}
	sweeps := []cfg{
		{30, 0, 0},
		{20, 0, 0},
		{30, 15, 0},
		{20, 10, 5},
		{20, 15, 3},
	}
	variants := make([]engine.Spec, len(sweeps))
	for i, sw := range sweeps {
		vcfg := voltctl.Config{
			TargetThresholdVolts: sw.targetMV / 1000,
			SensorNoiseVolts:     sw.noiseMV / 1000,
			SensorDelayCycles:    sw.delay,
			Seed:                 777,
		}
		variants[i] = engine.Spec{Technique: engine.TechniqueVoltageControl, VoltageControl: &vcfg}
	}
	c, err := compare(opts, workload.Names(), engine.Spec{}, variants...)
	if err != nil {
		return Report{}, err
	}
	data := &Table4Data{Base: c.base}
	for i, sw := range sweeps {
		var respCycles, totalCycles uint64
		for _, r := range c.variants[i] {
			respCycles += r.Tech.ResponseCycles
			totalCycles += r.Tech.ControllerCycles
		}
		sum := c.sums[i]
		row := Table4Row{
			TargetThresholdMV:   sw.targetMV,
			NoiseMVPeakToPeak:   sw.noiseMV,
			ActualThresholdMV:   variants[i].VoltageControl.ActualThresholdVolts() * 1000,
			DelayCycles:         sw.delay,
			WorstSlowdown:       sum.WorstSlowdown,
			WorstApp:            sum.WorstApp,
			AvgSlowdown:         sum.AvgSlowdown,
			AvgEnergyDelay:      sum.AvgEnergyDelay,
			ViolationsRemaining: sum.TechViolations,
			BaseViolations:      sum.BaseViolations,
		}
		if totalCycles > 0 {
			row.ResponseFraction = float64(respCycles) / float64(totalCycles)
		}
		data.Rows = append(data.Rows, row)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: technique of [10] (%d instructions/app)\n\n", opts.instructions())
	tab := metrics.Table{Headers: []string{
		"target (mV)", "noise (mV)", "actual (mV)", "delay",
		"frac in response", "worst slowdown", "avg slowdown", "avg energy-delay", "violations (base→ctl)",
	}}
	for _, r := range data.Rows {
		tab.AddRow(r.TargetThresholdMV, r.NoiseMVPeakToPeak,
			fmt.Sprintf("%.1f", r.ActualThresholdMV), r.DelayCycles,
			fmt.Sprintf("%.4f", r.ResponseFraction),
			fmt.Sprintf("%.3f (%s)", r.WorstSlowdown, r.WorstApp),
			fmt.Sprintf("%.3f", r.AvgSlowdown),
			fmt.Sprintf("%.3f", r.AvgEnergyDelay),
			fmt.Sprintf("%d→%d", r.BaseViolations, r.ViolationsRemaining))
	}
	b.WriteString(tab.String())
	b.WriteString("\npaper reference rows:\n")
	ref := metrics.Table{Headers: []string{"target", "noise", "actual", "delay", "frac", "worst", "avg slowdown", "avg ED"}}
	for _, p := range paperTable4 {
		ref.AddRow(p.Target, p.Noise, p.Actual, p.Delay, p.RespFrac, p.WorstSlowdown, p.AvgSlowdown, p.AvgED)
	}
	b.WriteString(ref.String())
	return Report{ID: "table4", Text: b.String(), Data: data}, nil
}
