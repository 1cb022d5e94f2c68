// Command rtsim runs one synthetic SPEC2K application on the paper's
// Table 1 system under a chosen inductive-noise technique and prints the
// run summary, optionally dumping a per-cycle waveform trace as CSV.
//
// Usage:
//
//	rtsim -app parser -insts 1000000 -tech tuning
//	rtsim -app lucas -tech base -trace lucas.csv
//	rtsim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro"
)

func main() {
	var (
		app      = flag.String("app", "parser", "application name (see -list)")
		insts    = flag.Uint64("insts", 1_000_000, "instructions to simulate")
		tech     = flag.String("tech", "base", "technique: base, tuning, voltctl, damping")
		initial  = flag.Int("initial-response", 100, "tuning: initial response time in cycles")
		delay    = flag.Int("delay", 0, "tuning: detection-to-response delay in cycles")
		trace    = flag.String("trace", "", "write per-cycle CSV trace to this file")
		record   = flag.String("record", "", "record the instruction stream to this file and exit")
		replay   = flag.String("replay", "", "replay a recorded instruction stream instead of -app")
		spect    = flag.Bool("spectrum", false, "analyse the run's current spectrum against the resonance band")
		energy   = flag.Bool("energy", false, "print the per-unit energy breakdown")
		cacheDir = flag.String("cache-dir", "", "persistent result-cache directory (a warm re-run replays the finished result without simulating)")
		traceMB  = flag.Int64("trace-budget-mb", 0, "workload trace store budget in MiB (0 = 1024)")
		stats    = flag.Bool("cache-stats", false, "print cache and trace-store counters after the run")
		list     = flag.Bool("list", false, "list applications and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("application  paper-IPC  paper-class")
		for _, a := range resonance.Apps() {
			class := "clean"
			if a.PaperViolating {
				class = "violating"
			}
			fmt.Printf("%-12s %-10.2f %s\n", a.Params.Name, a.PaperIPC, class)
		}
		return
	}

	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fatal(err)
		}
		n, err := resonance.RecordWorkload(f, *app, *insts)
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d instructions of %s to %s\n", n, *app, *record)
		return
	}
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		res, err := resonance.ReplayWorkload(f, resonance.TechniqueKind(*tech))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replayed %s under %s: %d cycles, IPC %.3f, %d violations\n",
			*replay, res.Technique, res.Cycles, res.IPC, res.Violations)
		return
	}

	spec := resonance.SimulationSpec{
		App:          *app,
		Instructions: *insts,
		Technique:    resonance.TechniqueKind(*tech),
	}
	if spec.Technique == resonance.TechniqueTuning {
		cfg := resonance.DefaultTuningConfig(*initial)
		cfg.ResponseDelayCycles = *delay
		spec.Tuning = &cfg
	}

	var currentTrace []float64
	if *spect {
		prev := spec.Trace
		spec.Trace = func(tp resonance.TracePoint) {
			currentTrace = append(currentTrace, tp.TotalAmps)
			if prev != nil {
				prev(tp)
			}
		}
	}

	var traceFile *os.File
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		defer f.Close()
		fmt.Fprintln(f, "cycle,amps,deviation_mv,event_count,response_level")
		prev := spec.Trace
		spec.Trace = func(tp resonance.TracePoint) {
			fmt.Fprintf(f, "%d,%.2f,%.3f,%d,%d\n",
				tp.Cycle, tp.TotalAmps, tp.DeviationVolts*1000, tp.EventCount, tp.ResponseLevel)
			if prev != nil {
				prev(tp)
			}
		}
	}

	// Run through the engine, keeping the process responsive to an
	// interrupt while the simulation executes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	type outcome struct {
		res resonance.Result
		err error
	}
	if *traceMB != 0 {
		resonance.SetTraceStoreBudget(*traceMB << 20)
	}
	eng := resonance.NewEngineWithOptions(resonance.EngineOptions{
		Parallelism:  1,
		DiskCacheDir: *cacheDir,
	})
	ch := make(chan outcome, 1)
	go func() {
		res, err := eng.Run(ctx, spec)
		ch <- outcome{res, err}
	}()
	var res resonance.Result
	select {
	case out := <-ch:
		if out.err != nil {
			fatal(out.err)
		}
		res = out.res
	case <-ctx.Done():
		fatal(ctx.Err())
	}
	fmt.Printf("app:            %s\n", res.App)
	fmt.Printf("technique:      %s\n", res.Technique)
	fmt.Printf("instructions:   %d\n", res.Instructions)
	fmt.Printf("cycles:         %d\n", res.Cycles)
	fmt.Printf("IPC:            %.3f\n", res.IPC)
	fmt.Printf("energy:         %.4g J (%.4g J phantom)\n", res.EnergyJ, res.PhantomJ)
	fmt.Printf("violations:     %d (%.3g of cycles)\n", res.Violations, res.ViolationFraction)
	fmt.Printf("peak deviation: %.1f mV\n", res.PeakDeviationV*1000)
	fmt.Printf("current:        %.1f-%.1f A (mean %.1f)\n", res.MinAmps, res.MaxAmps, res.MeanAmps)
	if traceFile != nil {
		fmt.Printf("trace:          %s\n", traceFile.Name())
	}
	if *spect {
		sp, err := resonance.AnalyzeSpectrum(currentTrace)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("spectrum:       variance %.1f A², in-band %.2f A² (%.1f%%), peak period %.0f cycles\n",
			sp.TotalVarianceA2, sp.BandPowerA2, 100*sp.BandFraction, sp.PeakPeriodCycles)
	}
	if *energy {
		bd, err := resonance.EnergyBreakdown(spec)
		if err != nil {
			fatal(err)
		}
		fmt.Println("energy breakdown:")
		for _, row := range bd {
			fmt.Printf("  %-10s %8.4g J  (%.1f%%)\n", row.Unit, row.Joules, row.Percent)
		}
	}
	if *stats {
		cs := eng.CacheStats()
		ts := resonance.TraceStoreStats()
		fmt.Printf("cache-stats: mem_hits=%d disk_hits=%d sim_misses=%d disk_writes=%d entries=%d\n",
			cs.Hits, cs.DiskHits, cs.Misses, cs.DiskWrites, cs.Entries)
		fmt.Printf("trace-stats: built=%d reused=%d bypassed=%d evicted=%d resident_mb=%.1f\n",
			ts.Builds, ts.Hits, ts.Bypasses, ts.Evictions, float64(ts.Bytes)/(1<<20))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtsim:", err)
	os.Exit(1)
}
