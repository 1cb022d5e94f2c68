package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tuning"
)

// AblationRow is one variant of one ablation study.
type AblationRow struct {
	Study               string
	Variant             string
	AvgSlowdown         float64
	AvgEnergyDelay      float64
	ViolationsRemaining uint64
	BaseViolations      uint64
}

// AblationData collects all ablation results.
type AblationData struct {
	Rows []AblationRow
	// IntegratorErrHeun and IntegratorErrEuler are worst-case errors
	// (volts) against the closed-form underdamped step response.
	IntegratorErrHeun  float64
	IntegratorErrEuler float64
}

// ablationApps is the subset of frequently violating applications the
// pipeline ablations run on (the full suite would dilute the signal with
// apps that never trigger the mechanism).
var ablationApps = []string{"lucas", "swim", "bzip", "parser"}

// ablationVariant is one tuning configuration mutation to evaluate.
type ablationVariant struct {
	study, name string
	mutate      func(*tuning.Config) // nil = paper configuration
	sensorRes   float64              // 0 = whole amp, <0 = exact
}

// Ablations evaluates the design choices DESIGN.md calls out:
//
//   - band coverage: detecting over the full resonance band (the paper's
//     point) vs only the exact resonant half-period (what [14] covers);
//   - initial response threshold 1 vs 2;
//   - two-tier response vs an effectively second-level-only response;
//   - current-sensor resolution exact / 1 A / 8 A;
//   - Heun vs forward-Euler circuit integration accuracy.
func Ablations(opts Options) (Report, error) {
	variants := []ablationVariant{
		{"band-coverage", "full band 42-60 (paper)", nil, 0},
		{"band-coverage", "resonant half-period only (50)", func(c *tuning.Config) {
			c.Detector.HalfPeriodLo = 50
			c.Detector.HalfPeriodHi = 50
		}, 0},
		{"initial-threshold", "threshold 1 (eager)", func(c *tuning.Config) {
			c.InitialResponseThreshold = 1
		}, 0},
		{"initial-threshold", "threshold 2 (paper)", nil, 0},
		{"response-tiers", "two-tier (paper)", nil, 0},
		{"response-tiers", "second-level only (1-cycle first tier)", func(c *tuning.Config) {
			c.InitialResponseCycles = 1
		}, 0},
		{"sensor-resolution", "exact sensing", nil, -1},
		{"sensor-resolution", "whole-amp (paper)", nil, 0},
		{"sensor-resolution", "8-amp coarse", nil, 8},
	}
	// Each variant carries its own system, so the sensor-resolution
	// variants simulate their own machines; the rest share each
	// application's lockstep group with the base.
	specs := make([]engine.Spec, len(variants))
	for i, v := range variants {
		cfg := engine.DefaultTuningConfig(100)
		if v.mutate != nil {
			v.mutate(&cfg)
		}
		sys := sim.DefaultConfig()
		sys.SensorResolutionAmps = v.sensorRes
		specs[i] = engine.Spec{Technique: engine.TechniqueTuning, Tuning: &cfg, System: &sys}
	}
	c, err := compare(opts, ablationApps, engine.Spec{}, specs...)
	if err != nil {
		return Report{}, err
	}
	data := &AblationData{}
	for i, v := range variants {
		sum := c.sums[i]
		data.Rows = append(data.Rows, AblationRow{
			Study:               v.study,
			Variant:             v.name,
			AvgSlowdown:         sum.AvgSlowdown,
			AvgEnergyDelay:      sum.AvgEnergyDelay,
			ViolationsRemaining: sum.TechViolations,
			BaseViolations:      sum.BaseViolations,
		})
	}

	data.IntegratorErrHeun, data.IntegratorErrEuler = integratorWorstErrors()

	var b strings.Builder
	fmt.Fprintf(&b, "Ablations (%d instructions/app over %v)\n\n", opts.instructions(), ablationApps)
	tab := metrics.Table{Headers: []string{"study", "variant", "avg slowdown", "avg energy-delay", "violations (base→variant)"}}
	for _, r := range data.Rows {
		tab.AddRow(r.Study, r.Variant,
			fmt.Sprintf("%.3f", r.AvgSlowdown),
			fmt.Sprintf("%.3f", r.AvgEnergyDelay),
			fmt.Sprintf("%d→%d", r.BaseViolations, r.ViolationsRemaining))
	}
	b.WriteString(tab.String())
	fmt.Fprintf(&b, "\nintegrator worst error vs closed form: Heun %.3g V, Euler %.3g V\n",
		data.IntegratorErrHeun, data.IntegratorErrEuler)
	return Report{ID: "ablations", Text: b.String(), Data: data}, nil
}

// integratorWorstErrors measures the worst deviation error of the Heun
// integrator (circuit.Simulator) and of a forward-Euler baseline against
// the analytic underdamped step response of the Table 1 supply
// (circuit.Params.StepResponse) over 3000 cycles of a 50 → 80 A step.
func integratorWorstErrors() (heun, euler float64) {
	p := circuit.Table1()
	const i0, i1 = 50.0, 80.0
	dt := 1 / p.ClockHz
	s := circuit.NewSimulator(p, i0)
	// Forward Euler on the Figure 1(b) circuit from the same DC steady
	// state: one derivative evaluation per cycle.
	v, il := -p.R*i0, i0
	for c := 1; c <= 3000; c++ {
		want := p.StepResponse(i1-i0, float64(c)*dt)
		heun = math.Max(heun, math.Abs(s.Step(i1)-want))
		dV := (il - i1) / p.C
		dIL := -(v + p.R*il) / p.L
		v += dt * dV
		il += dt * dIL
		euler = math.Max(euler, math.Abs(v+p.R*i1-want))
	}
	return heun, euler
}
