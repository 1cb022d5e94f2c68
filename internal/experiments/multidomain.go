package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/engine/batchkernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// MultiDomainRow is one (network, technique) configuration of the
// multi-domain experiment.
type MultiDomainRow struct {
	Network    string
	Technique  string
	Violations uint64
	Slowdown   float64
	Cycles     uint64
}

// MultiDomainDomainRow is one supply domain's per-domain accounting: the
// uncontrolled violations on its own rail, what per-domain tuning left,
// and its controller's detection and response activity.
type MultiDomainDomainRow struct {
	Name            string
	BaseViolations  uint64
	TunedViolations uint64
	BasePeakDevV    float64
	Events          uint64
	ResponseCycles  uint64
}

// MultiDomainData holds the multi-domain PDN demonstration.
type MultiDomainData struct {
	// Peaks is the die-node impedance profile of the core domain — one
	// local maximum per resonant tier of the stack (board, package, die),
	// where the lumped Table 1 model has exactly one.
	Peaks []circuit.ImpedancePoint
	// PackagePeakHz is the shared package-tier resonance the workload
	// drives.
	PackagePeakHz float64
	Rows          []MultiDomainRow
	Domains       []MultiDomainDomainRow
}

// MultiDomain demonstrates what the multi-domain PDN stack represents
// that the single lumped RLC cannot: both supply domains' current
// variations superpose on the shared package rail, so a workload
// oscillating at the package resonance (~500 cycles per period — far
// below the die-level band) drives constructive interference that
// violates both domains' noise margins at once, while the same workload
// on the lumped Table 1 network is electrically invisible. Per-domain
// resonance tuning — one controller per rail, each watching its own
// domain sensor in the package band — detects the oscillation on each
// rail independently and prevents the violations.
func MultiDomain(opts Options) (Report, error) {
	pdn := circuit.Table1TwoDomain()
	pkgRes := pdn.PackageResonantFrequency()
	pkgPeriod := pdn.ClockHz / pkgRes

	// The die-node impedance profile: LocalPeaks must report one maximum
	// per resonant tier (board, package, die) — the multi-peak profile of
	// the three-supply decap analysis (see EXPERIMENTS.md).
	sweep := pdn.ImpedanceSweep(0, 5e5, 1e9, 600)
	peaks := circuit.LocalPeaks(sweep)
	// The package-tier peak parameterises the detectors below: the peak
	// nearest the loaded package resonance.
	pkgPeak := sweep[0]
	for _, p := range peaks {
		if math.Abs(math.Log(p.FrequencyHz/pkgRes)) < math.Abs(math.Log(pkgPeak.FrequencyHz/pkgRes)) {
			pkgPeak = p
		}
	}

	// A workload that mostly computes steadily — long bursts with an
	// occasional short L2-served dip, electrically invisible at every
	// tier — but periodically aligns into coherent resonant episodes at
	// the package period: stall halves built from chained L2 misses
	// (12 cycles each) and burst halves filling the rest of the period
	// at the measured burst IPC of ≈5. The mix carries enough
	// floating-point and memory work that both domains swing together
	// (the fp domain owns the caches), so the episode drives the shared
	// package tier from both sides at once.
	epStall := int(pkgPeriod / 2 / 12)
	epBurst := (int(pkgPeriod) - 12*epStall) * 5
	app := workload.Params{
		Name: "pkgosc", Seed: 11,
		Mix:     workload.Mix{IntALU: 0.3, FPALU: 0.18, FPMul: 0.05, Load: 0.25, Store: 0.1, Branch: 0.12},
		DepProb: 0.5, DepMean: 4,
		MispredictRate: 0.005, L1MissRate: 0.001, L2MissRate: 0.05,
		Burst: workload.Burst{
			Enabled:     true,
			BurstInsts:  4_000,
			StallMisses: 1,
			StallLevel:  cpu.MemL2,
			JitterFrac:  0.2,
			EpisodeProb: 0.2, EpisodeLen: 10,
			EpisodeBurstInsts:  epBurst,
			EpisodeStallMisses: epStall,
		},
	}
	if err := app.Validate(); err != nil {
		return Report{}, fmt.Errorf("multidomain: %w", err)
	}

	// One controller per domain, its detector band centred on the shared
	// package resonance (in cycles), its threshold scaled to the domain's
	// margin over the package-tier peak impedance (the derivation the
	// dual-band low controller uses), and its response holds stretched to
	// the paper's period ratios — the Section 5.2 configuration holds the
	// first level ten resonant periods and the second a couple, so a
	// ~500-cycle oscillation needs holds of thousands of cycles, not
	// 100/35.
	half := int(math.Round(pkgPeriod / 2))
	domCfgs := make([]tuning.Config, len(pdn.Domains))
	for d := range pdn.Domains {
		margin := pdn.Domains[d].Vdd * pdn.Domains[d].NoiseMargin
		c := paperTuningConfig(half*20, 0)
		c.SecondResponseCycles = half * 4
		c.Detector.HalfPeriodLo = half * 8 / 10
		c.Detector.HalfPeriodHi = half * 12 / 10
		c.Detector.ThresholdAmps = math.Floor(margin / pkgPeak.Ohms)
		domCfgs[d] = c
	}

	netCfg := circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain, MultiDomain: &pdn}
	template := engine.Spec{Workload: &app, Instructions: opts.instructions()}
	rows := []struct {
		network, technique string
		spec               engine.Spec
	}{
		{"lumped", "base", template},
		{"multidomain", "base", template},
		{"multidomain", "domain-tuning", template},
	}
	rows[1].spec.PDN = &netCfg
	rows[2].spec.PDN = &netCfg
	rows[2].spec.Technique = engine.TechniqueDomainTuning
	rows[2].spec.DomainTuning = &engine.DomainTuningConfig{Domains: domCfgs}

	eng := opts.engine()
	specs := make([]engine.Spec, len(rows))
	for i, r := range rows {
		specs[i] = r.spec
	}
	results, err := eng.RunAll(context.Background(), specs, nil)
	if err != nil {
		return Report{}, err
	}
	base := results[0]

	data := &MultiDomainData{Peaks: peaks, PackagePeakHz: pkgPeak.FrequencyHz}
	for i, r := range results {
		slow := 1.0
		if base.Cycles > 0 {
			slow = float64(r.Cycles) / float64(base.Cycles)
		}
		data.Rows = append(data.Rows, MultiDomainRow{
			Network:    rows[i].network,
			Technique:  rows[i].technique,
			Violations: r.Violations,
			Slowdown:   slow,
			Cycles:     r.Cycles,
		})
	}

	// Per-domain detail needs the machine and controller instances, so
	// the two multi-domain rows run once more outside the cache: the
	// uncontrolled run's per-rail violation split and the tuned run's
	// per-controller detection counts, proving each domain detects and
	// responds on its own rail.
	cfg := sim.DefaultConfig()
	cfg.PDN = &netCfg
	baseStats, _, err := runMultiDirect(cfg, app, opts.instructions(), nil)
	if err != nil {
		return Report{}, err
	}
	tech := sim.NewPerDomainTuning(domCfgs)
	tunedStats, ctrlStats, err := runMultiDirect(cfg, app, opts.instructions(), tech)
	if err != nil {
		return Report{}, err
	}
	for d := range baseStats {
		data.Domains = append(data.Domains, MultiDomainDomainRow{
			Name:            baseStats[d].Name,
			BaseViolations:  baseStats[d].Violations,
			TunedViolations: tunedStats[d].Violations,
			BasePeakDevV:    baseStats[d].PeakDeviationV,
			Events:          ctrlStats[d].EventsDetected,
			ResponseCycles:  ctrlStats[d].FirstLevelCycles + ctrlStats[d].SecondLevelCycles,
		})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Multi-domain PDN: shared package resonance and per-domain tuning\n\n")
	fmt.Fprintf(&b, "die-node impedance peaks (core domain):")
	for _, p := range peaks {
		fmt.Fprintf(&b, " %.2f mΩ at %.1f MHz;", p.Ohms*1e3, p.FrequencyHz/1e6)
	}
	fmt.Fprintf(&b, "\n(the lumped Table 1 model has a single %.0f MHz peak)\n", circuit.Table1().ResonantFrequency()/1e6)
	fmt.Fprintf(&b, "workload oscillation period: ≈%.0f cycles (the %.1f MHz package resonance)\n\n",
		pkgPeriod, pkgRes/1e6)
	tab := metrics.Table{Headers: []string{"network", "technique", "violations", "slowdown"}}
	for _, r := range data.Rows {
		tab.AddRow(r.Network, r.Technique, r.Violations, fmt.Sprintf("%.3f", r.Slowdown))
	}
	b.WriteString(tab.String())
	b.WriteString("\n")
	dtab := metrics.Table{Headers: []string{"domain", "base_viol", "tuned_viol", "events", "response_cycles"}}
	for _, d := range data.Domains {
		dtab.AddRow(d.Name, d.BaseViolations, d.TunedViolations, d.Events, d.ResponseCycles)
	}
	b.WriteString(dtab.String())
	b.WriteString("\nboth domains' currents superpose on the shared package rail, so an\n" +
		"oscillation at the package resonance interferes constructively across\n" +
		"domains — a structure the single lumped RLC cannot represent — and\n" +
		"each domain's controller detects and responds on its own rail.\n")
	return Report{ID: "multidomain", Text: b.String(), Data: data}, nil
}

// runMultiDirect runs one multi-domain configuration outside the engine
// cache, as a one-lane kernel group on a machine it keeps, and returns
// the machine's per-domain statistics, plus the per-domain controller
// statistics when tech is non-nil.
func runMultiDirect(cfg sim.Config, app workload.Params, insts uint64, tech *sim.PerDomainTuning) ([]sim.DomainStat, []tuning.Stats, error) {
	m, err := sim.NewMachine(cfg, workload.SharedTraces().Source(app, insts))
	if err != nil {
		return nil, nil, err
	}
	lane := batchkernel.Lane{TechName: "multidomain-direct"}
	if tech != nil {
		lane.Tech = tech
	}
	if outs, _ := batchkernel.Run(m, app.Name, []batchkernel.Lane{lane}); outs[0].Err != nil {
		return nil, nil, outs[0].Err
	}
	var ctrl []tuning.Stats
	if tech != nil {
		ctrl = tech.DomainStats()
	}
	return m.DomainStats(), ctrl, nil
}
