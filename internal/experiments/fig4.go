package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// Fig4Data captures the Figure 4 anatomy of a noise-margin violation in
// parser: a 400-cycle window of supply deviation, core current, and the
// resonant event count, centred on a violation.
type Fig4Data struct {
	// WindowStart is the first cycle of the captured window.
	WindowStart uint64
	// Deviations, Current, EventCount are the per-cycle window traces.
	Deviations []float64
	Current    []float64
	EventCount []int
	// ViolationCycle is the violating cycle (absolute).
	ViolationCycle uint64
	// LeadCycles maps resonant event count → how many cycles before the
	// violation that count was first reached (the "advance warning" the
	// paper emphasises; count 2 arrives ~150 cycles early).
	LeadCycles map[int]int
}

// Fig4 reproduces Figure 4: voltage and current variation in parser
// around a noise-margin violation, with the resonant event count rising
// ahead of the violation.
func Fig4(opts Options) (Report, error) {
	app, err := workload.ByName("parser")
	if err != nil {
		return Report{}, err
	}
	// Ensure a violation occurs quickly by making parser's resonant
	// episodes frequent; this is a zoom-in on one violation, not a rate
	// measurement.
	app.Params.Burst.EpisodeProb = 0.05

	insts := opts.instructions()
	supply := circuit.Table1() // the default network the run simulates
	lo, hi := supply.ResonanceBandCycles().HalfPeriods()
	det := tuning.NewDetector(tuning.DetectorConfig{
		HalfPeriodLo: lo, HalfPeriodHi: hi,
		ThresholdAmps: 32, MaxRepetitionTolerance: 4,
	})

	// The run goes through the engine (a traced spec always simulates,
	// but the result is cached for untraced consumers); the external
	// detector rides along on the trace callback.
	var trace []sim.TracePoint
	spec := engine.Spec{
		App:          "parser",
		Workload:     &app.Params,
		Instructions: insts,
		Trace: func(tp sim.TracePoint) {
			det.Step(tp.TotalAmps)
			tp.EventCount = det.CountNow()
			trace = append(trace, tp)
		},
	}
	if _, err := opts.engine().Run(context.Background(), spec); err != nil {
		return Report{}, err
	}

	margin := supply.NoiseMarginVolts()
	vi := -1
	for i := 2000; i < len(trace); i++ {
		if math.Abs(trace[i].DeviationVolts) > margin {
			vi = i
			break
		}
	}
	if vi < 0 {
		return Report{}, fmt.Errorf("fig4: no violation observed in %d instructions of parser", insts)
	}

	start := vi - 300
	if start < 0 {
		start = 0
	}
	end := start + 400
	if end > len(trace) {
		end = len(trace)
	}
	data := &Fig4Data{
		WindowStart:    uint64(start),
		ViolationCycle: uint64(vi),
		LeadCycles:     map[int]int{},
	}
	for i := start; i < end; i++ {
		data.Deviations = append(data.Deviations, trace[i].DeviationVolts)
		data.Current = append(data.Current, trace[i].TotalAmps)
		data.EventCount = append(data.EventCount, trace[i].EventCount)
	}
	// Lead time: first time each count was reached within the window
	// before the violation.
	for count := 2; count <= 4; count++ {
		for i := start; i <= vi; i++ {
			if trace[i].EventCount >= count {
				data.LeadCycles[count] = vi - i
				break
			}
		}
	}

	var b strings.Builder
	b.WriteString("Figure 4: voltage and current variation in parser\n\n")
	fmt.Fprintf(&b, "noise-margin violation at cycle %d (window %d-%d)\n",
		vi, start, end)
	for count := 2; count <= 4; count++ {
		if lead, ok := data.LeadCycles[count]; ok {
			fmt.Fprintf(&b, "resonant event count %d reached %d cycles before the violation\n", count, lead)
		}
	}
	b.WriteString("\n")
	b.WriteString(asciiWave("supply deviation (mV)", data.Deviations, 1000))
	b.WriteString(asciiWave("core current (A)", data.Current, 1))
	counts := make([]float64, len(data.EventCount))
	for i, c := range data.EventCount {
		counts[i] = float64(c)
	}
	b.WriteString(asciiWave("resonant event count", counts, 1))
	return Report{ID: "fig4", Text: b.String(), Data: data}, nil
}
