package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/baselines/damping"
	"repro/internal/baselines/voltctl"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/workload"
)

// Fig5Bar is one design point of the Figure 5 comparison.
type Fig5Bar struct {
	Label          string
	Technique      string
	AvgEnergyDelay float64
	AvgSlowdown    float64
	PaperED        float64
}

// Fig5Data is the comparison across the three techniques' representative
// design points.
type Fig5Data struct {
	Bars []Fig5Bar
}

// Fig5 reproduces Figure 5: relative energy-delay of resonance tuning
// (initial response times 75 and 100), the technique of [10] at its
// realistic noise/delay points, and pipeline damping at δ of 0.5 and
// 0.25 of the threshold. The expected shape: resonance tuning wins,
// followed by damping, with [10] worst once sensors are realistic.
func Fig5(opts Options) (Report, error) {
	supply := circuit.Table1()
	window := int(math.Round(supply.ResonantPeriodCycles() / 2))

	type point struct {
		label   string
		spec    engine.Spec
		paperED float64
	}
	tuningSpec := func(initial int) engine.Spec {
		cfg := engine.DefaultTuningConfig(initial)
		return engine.Spec{Technique: engine.TechniqueTuning, Tuning: &cfg}
	}
	voltSpec := func(targetMV, noiseMV float64, delay int) engine.Spec {
		cfg := voltctl.Config{
			TargetThresholdVolts: targetMV / 1000,
			SensorNoiseVolts:     noiseMV / 1000,
			SensorDelayCycles:    delay,
			Seed:                 777,
		}
		return engine.Spec{Technique: engine.TechniqueVoltageControl, VoltageControl: &cfg}
	}
	dampSpec := func(deltaAmps float64) engine.Spec {
		cfg := damping.Config{WindowCycles: window, DeltaAmps: deltaAmps, Scale: dampingScale}
		return engine.Spec{Technique: engine.TechniqueDamping, Damping: &cfg}
	}

	points := []point{
		{"A: tuning, 75-cycle response", tuningSpec(75), 1.052},
		{"B: tuning, 100-cycle response", tuningSpec(100), 1.057},
		{"C: [10] 20mV/10mV/5cyc", voltSpec(20, 10, 5), 1.191},
		{"D: [10] 20mV/15mV/3cyc", voltSpec(20, 15, 3), 1.460},
		{"E: damping, δ=0.5×threshold", dampSpec(16), 1.17},
		{"F: damping, δ=0.25×threshold", dampSpec(8), 1.26},
	}

	variants := make([]engine.Spec, len(points))
	for i, pt := range points {
		variants[i] = pt.spec
	}
	c, err := compare(opts, workload.Names(), engine.Spec{}, variants...)
	if err != nil {
		return Report{}, err
	}
	data := &Fig5Data{}
	for i, pt := range points {
		data.Bars = append(data.Bars, Fig5Bar{
			Label:          pt.label,
			Technique:      c.variants[i][0].Technique,
			AvgEnergyDelay: c.sums[i].AvgEnergyDelay,
			AvgSlowdown:    c.sums[i].AvgSlowdown,
			PaperED:        pt.paperED,
		})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: relative energy-delay comparison (%d instructions/app)\n\n", opts.instructions())
	maxED := 1.0
	for _, bar := range data.Bars {
		if bar.AvgEnergyDelay > maxED {
			maxED = bar.AvgEnergyDelay
		}
	}
	for _, bar := range data.Bars {
		frac := (bar.AvgEnergyDelay - 1) / (maxED - 1 + 1e-9)
		if frac < 0 {
			frac = 0
		}
		n := int(frac * 50)
		fmt.Fprintf(&b, "%-32s %.3f |%s  (paper %.3f)\n",
			bar.Label, bar.AvgEnergyDelay, strings.Repeat("#", n), bar.PaperED)
	}
	b.WriteString("\n(relative energy-delay; 1.000 = uncontrolled base machine)\n")
	return Report{ID: "fig5", Text: b.String(), Data: data}, nil
}
