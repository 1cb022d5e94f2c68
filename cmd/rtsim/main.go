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
	"slices"
	"strings"

	"repro"
	"repro/internal/cacheflags"
)

// options are rtsim's flags.
type options struct {
	app, tech, trace, record, replay string
	insts                            uint64
	initial, delay                   int
	spectrum, energy, list           bool
	cache                            *cacheflags.Flags
}

// declare defines rtsim's flags on fs.
func declare(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.app, "app", "parser", "application name (see -list)")
	fs.Uint64Var(&o.insts, "insts", 1_000_000, "instructions to simulate")
	fs.StringVar(&o.tech, "tech", "base", "technique: "+kindList())
	fs.IntVar(&o.initial, "initial-response", 100, "tuning: initial response time in cycles")
	fs.IntVar(&o.delay, "delay", 0, "tuning: detection-to-response delay in cycles")
	fs.StringVar(&o.trace, "trace", "", "write per-cycle CSV trace to this file")
	fs.StringVar(&o.record, "record", "", "record the instruction stream to this file and exit")
	fs.StringVar(&o.replay, "replay", "", "replay a recorded instruction stream instead of -app")
	fs.BoolVar(&o.spectrum, "spectrum", false, "analyse the run's current spectrum against the resonance band")
	fs.BoolVar(&o.energy, "energy", false, "print the per-unit energy breakdown")
	o.cache = cacheflags.Register(fs)
	fs.BoolVar(&o.list, "list", false, "list applications and exit")
	return o
}

// ignored names the selected mode and the flags set on fs's command line
// that it does not read: -list, -record and -replay read only the flags
// listed with them below, and a run reads the tuning flags only under
// -tech tuning.
func ignored(fs *flag.FlagSet) (mode string, flags []string) {
	tech := fs.Lookup("tech").Value.String()
	mode, reads := "-tech "+tech, func(name string) bool {
		return tech == string(resonance.TechniqueTuning) || name != "initial-response" && name != "delay"
	}
	for _, m := range [][]string{{"list"}, {"record", "app", "insts"}, {"replay", "tech"}} {
		if v := fs.Lookup(m[0]).Value.String(); v != "" && v != "false" {
			mode, reads = "-"+m[0], func(name string) bool { return slices.Contains(m, name) }
			break
		}
	}
	fs.Visit(func(f *flag.Flag) {
		if !reads(f.Name) {
			flags = append(flags, "-"+f.Name)
		}
	})
	return mode, flags
}

func main() {
	o := declare(flag.CommandLine)
	flag.Parse()
	if mode, flags := ignored(flag.CommandLine); len(flags) > 0 {
		fmt.Fprintf(os.Stderr, "rtsim: %s does not read %s\n", mode, strings.Join(flags, ", "))
		os.Exit(2)
	}

	if o.list {
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

	if o.record != "" {
		f, err := os.Create(o.record)
		if err != nil {
			fatal(err)
		}
		n, err := resonance.RecordWorkload(f, o.app, o.insts)
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d instructions of %s to %s\n", n, o.app, o.record)
		return
	}
	if o.replay != "" {
		f, err := os.Open(o.replay)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		res, err := resonance.ReplayWorkload(f, resonance.TechniqueKind(o.tech))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replayed %s under %s: %d cycles, IPC %.3f, %d violations\n",
			o.replay, res.Technique, res.Cycles, res.IPC, res.Violations)
		return
	}

	spec := resonance.SimulationSpec{
		App:          o.app,
		Instructions: o.insts,
		Technique:    resonance.TechniqueKind(o.tech),
	}
	if spec.Technique == resonance.TechniqueTuning {
		cfg := resonance.DefaultTuningConfig(o.initial)
		cfg.ResponseDelayCycles = o.delay
		spec.Tuning = &cfg
	}

	var currentTrace []float64
	var traceFn func(resonance.TracePoint)
	if o.spectrum {
		traceFn = func(tp resonance.TracePoint) { currentTrace = append(currentTrace, tp.TotalAmps) }
	}

	var traceFile *os.File
	if o.trace != "" {
		f, err := os.Create(o.trace)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		defer f.Close()
		fmt.Fprintln(f, "cycle,amps,deviation_mv,event_count,response_level")
		prev := traceFn
		traceFn = func(tp resonance.TracePoint) {
			fmt.Fprintf(f, "%d,%.2f,%.3f,%d,%d\n",
				tp.Cycle, tp.TotalAmps, tp.DeviationVolts*1000, tp.EventCount, tp.ResponseLevel)
			if prev != nil {
				prev(tp)
			}
		}
	}

	// Run once, keeping the process responsive to an interrupt while the
	// simulation executes: through the engine's cache, or, for a trace or
	// an energy breakdown, on a machine of its own outside the cache.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	type outcome struct {
		res  resonance.Result
		rows []resonance.EnergyShare
		err  error
	}
	eng := o.cache.Engine(1)
	ch := make(chan outcome, 1)
	go func() {
		var out outcome
		switch {
		case o.energy:
			out.rows, out.res, out.err = resonance.EnergyBreakdown(spec, traceFn)
		case traceFn != nil:
			out.res, out.err = resonance.SimulateTraced(spec, traceFn)
		default:
			out.res, out.err = eng.Run(ctx, spec)
		}
		ch <- out
	}()
	var out outcome
	select {
	case out = <-ch:
		if out.err != nil {
			fatal(out.err)
		}
	case <-ctx.Done():
		fatal(ctx.Err())
	}
	res := out.res
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
	if o.spectrum {
		sp, err := resonance.AnalyzeSpectrum(currentTrace)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("spectrum:       variance %.1f A², in-band %.2f A² (%.1f%%), peak period %.0f cycles\n",
			sp.TotalVarianceA2, sp.BandPowerA2, 100*sp.BandFraction, sp.PeakPeriodCycles)
	}
	if o.energy {
		fmt.Println("energy breakdown:")
		for _, row := range out.rows {
			fmt.Printf("  %-10s %8.4g J  (%.1f%%)\n", row.Unit, row.Joules, row.Percent)
		}
	}
	cacheflags.PrintStats(os.Stdout, eng)
}

// kindList renders every registered technique kind for the usage text.
func kindList() string {
	ks := resonance.TechniqueKinds()
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = string(k)
	}
	return strings.Join(out, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtsim:", err)
	os.Exit(1)
}
