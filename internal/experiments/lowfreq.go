package experiments

import (
	"fmt"
	"strings"

	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// LowFreqRow is one configuration of the low-frequency experiment.
type LowFreqRow struct {
	Technique  string
	Violations uint64
	Slowdown   float64
	Cycles     uint64
}

// LowFreqData holds the Section 2.2 demonstration.
type LowFreqData struct {
	// LowPeak and MediumPeak are the two impedance peaks of the
	// two-stage supply.
	LowPeak, MediumPeak circuit.ImpedancePoint
	Rows                []LowFreqRow
}

// LowFreq demonstrates Section 2.2 end to end: a workload oscillating at
// the two-stage supply's low-frequency resonance (a few megahertz —
// thousands of processor cycles per period) causes violations that the
// medium-band detector cannot see, and a second, decimated resonance-
// tuning controller covering the low band prevents them. The paper
// claims applicability to both bands; this experiment is the proof.
func LowFreq(opts Options) (Report, error) {
	supply := circuit.Table1TwoStage()
	lowPeak, medPeak := supply.Peaks()

	// A workload whose burst/stall alternation matches the low-frequency
	// resonant period (~2500 cycles at 4 MHz).
	lowPeriod := supply.ClockHz / supply.LowStage().ResonantFrequency()
	// Base oscillation sits above the low band (≈1.6× the resonant
	// period); every ~30 phases the program aligns into a coherent
	// resonant episode at the low period, mirroring the structure of
	// the medium-band violators.
	app := workload.Params{
		Name: "lowosc", Seed: 42,
		Mix:     workload.Mix{IntALU: 0.5, FPALU: 0.15, Load: 0.22, Store: 0.08, Branch: 0.05},
		DepProb: 0.55, DepMean: 4,
		MispredictRate: 0.005, L1MissRate: 0.002, L2MissRate: 0.1,
		Burst: workload.Burst{
			Enabled:     true,
			BurstInsts:  int(1.6*lowPeriod/2) * 5,
			StallMisses: int(1.6 * lowPeriod / 2 / 90),
			StallLevel:  cpu.MemMain,
			JitterFrac:  0.05,
			EpisodeProb: 0.033, EpisodeLen: 8,
			EpisodeBurstInsts:  int(lowPeriod/2) * 5,
			EpisodeStallMisses: int(lowPeriod / 2 / 90),
		},
	}
	if err := app.Validate(); err != nil {
		return Report{}, fmt.Errorf("lowfreq: %w", err)
	}

	cfg := sim.DefaultConfig()
	cfg.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkTwoStage, TwoStage: &supply}

	// The paper's medium-band controller plus a low-band controller on a
	// 25:1 decimated current stream. The low loop's peak impedance is
	// lower than the medium peak, so its threshold tolerates larger
	// sustained variations (margin / |Z_low| ≈ 40 A for this network).
	dualCfg := engine.DefaultDualBandConfig(supply)
	mediumCfg := dualCfg.Medium

	// All three runs go through the cached engine; the row labels are
	// the experiment's own (the cached Result carries the technique's
	// canonical name, e.g. "resonance-tuning" for the medium-only row).
	base := engine.Spec{Workload: &app, System: &cfg}
	medium := base
	medium.Technique = engine.TechniqueTuning
	medium.Tuning = &mediumCfg
	dual := base
	dual.Technique = engine.TechniqueDualBand
	dual.DualBand = &dualCfg
	c, err := compare(opts, []string{app.Name}, base, medium, dual)
	if err != nil {
		return Report{}, err
	}
	data := &LowFreqData{LowPeak: lowPeak, MediumPeak: medPeak}
	data.Rows = append(data.Rows, LowFreqRow{Technique: "base",
		Violations: c.base[0].Violations, Slowdown: 1, Cycles: c.base[0].Cycles})
	for i, label := range []string{"medium-only", "dual-band"} {
		r := c.variants[i][0]
		data.Rows = append(data.Rows, LowFreqRow{Technique: label,
			Violations: r.Violations, Slowdown: c.sums[i].AvgSlowdown, Cycles: r.Cycles})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Low-frequency resonance (Section 2.2) on the two-stage supply\n\n")
	fmt.Fprintf(&b, "impedance peaks: low %.2f mΩ at %.1f MHz, medium %.2f mΩ at %.1f MHz\n",
		lowPeak.Ohms*1e3, lowPeak.FrequencyHz/1e6, medPeak.Ohms*1e3, medPeak.FrequencyHz/1e6)
	fmt.Fprintf(&b, "workload oscillation period: ≈%.0f cycles (the low resonant period)\n\n", lowPeriod)
	tab := metrics.Table{Headers: []string{"technique", "violations", "slowdown"}}
	for _, r := range data.Rows {
		tab.AddRow(r.Technique, r.Violations, fmt.Sprintf("%.3f", r.Slowdown))
	}
	b.WriteString(tab.String())
	b.WriteString("\nthe medium-band detector is blind at 2500-cycle periods; the\n" +
		"decimated low-band controller sees them with the same hardware at a\n" +
		"25:1 slower sensor, as Section 2.2 of the paper anticipates.\n")
	return Report{ID: "lowfreq", Text: b.String(), Data: data}, nil
}
