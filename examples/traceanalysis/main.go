// Trace analysis: record an application's instruction stream once, replay
// the identical stream under different techniques, and analyse the current
// waveform's frequency content against the resonance band — the workflow a
// user with their own traces would follow.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro"
)

func main() {
	const app = "bzip"
	const insts = 400_000

	// 1. Record the stream once; replays are bit-identical, so the
	// techniques below compete on exactly the same instructions.
	var recorded bytes.Buffer
	n, err := resonance.RecordWorkload(&recorded, app, insts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d instructions of %s (%d bytes)\n\n", n, app, recorded.Len())

	// 2. Replay under each technique.
	for _, kind := range []resonance.TechniqueKind{
		resonance.TechniqueNone,
		resonance.TechniqueTuning,
		resonance.TechniqueDamping,
	} {
		res, err := resonance.ReplayWorkload(bytes.NewReader(recorded.Bytes()), kind)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s %8d cycles  %5d violations  %.4g J\n",
			res.Technique, res.Cycles, res.Violations, res.EnergyJ)
	}

	// 3. Spectral view of the uncontrolled run: where does this app's
	// current variation live relative to the 84-119-cycle band?
	var trace []float64
	if _, err := resonance.SimulateTraced(resonance.SimulationSpec{App: app, Instructions: insts},
		func(tp resonance.TracePoint) { trace = append(trace, tp.TotalAmps) }); err != nil {
		log.Fatal(err)
	}
	sp, err := resonance.AnalyzeSpectrum(trace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nspectrum: total variance %.1f A², in-band %.2f A² (%.1f%%), peak period %.0f cycles\n",
		sp.TotalVarianceA2, sp.BandPowerA2, 100*sp.BandFraction, sp.PeakPeriodCycles)
	fmt.Println("\na violating app concentrates measurable variance inside the band;")
	fmt.Println("re-run with a clean app (e.g. twolf) to see the contrast.")
}
