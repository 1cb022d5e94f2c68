// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments table3
//	experiments -insts 500000 all
//	experiments -out results/ all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/cacheflags"
	"repro/internal/profiling"
)

// writeFile creates the parent directory and writes the file, exiting on
// error.
func writeFile(path string, data []byte) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func main() {
	var (
		insts    = flag.Uint64("insts", 0, "instructions per application (0 = 1,000,000)")
		parallel = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cache    = cacheflags.Register(flag.CommandLine)
		out      = flag.String("out", "", "also write each report to <out>/<id>.txt")
		svg      = flag.String("svg", "", "also render figures as SVG into this directory")
		jsonOut  = flag.String("json", "", "also write each report's structured data to <json>/<id>.json")
		htmlOut  = flag.String("html", "", "also write a combined self-contained HTML report to this file")
		list     = flag.Bool("list", false, "list experiments and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *list {
		for _, e := range resonance.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Description)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "experiments: name experiments to run, or 'all' (see -list)")
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = ids[:0]
		for _, e := range resonance.Experiments() {
			ids = append(ids, e.ID)
		}
	}

	// One engine for the whole invocation: experiments share its worker
	// pool and result cache, so e.g. the 26-app baseline suite simulates
	// once even when table2, table3, table4, table5, and fig5 all ask
	// for it. With -cache-dir, finished results also persist across
	// invocations: a warm second run replays them from disk without
	// simulating.
	eng := cache.Engine(*parallel)
	opts := resonance.Options{Instructions: *insts, Engine: eng}
	var reports []resonance.Report
	for _, id := range ids {
		start := time.Now()
		rep, err := resonance.RunExperiment(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("==== %s (%.1fs) ====\n%s\n", id, time.Since(start).Seconds(), rep.Text)
		if *out != "" {
			writeFile(filepath.Join(*out, id+".txt"), []byte(rep.Text))
		}
		if *svg != "" {
			for stem, doc := range resonance.Figures(rep) {
				writeFile(filepath.Join(*svg, stem+".svg"), []byte(doc))
			}
		}
		if *jsonOut != "" {
			blob, err := json.MarshalIndent(rep.Data, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
				os.Exit(1)
			}
			writeFile(filepath.Join(*jsonOut, id+".json"), blob)
		}
		reports = append(reports, rep)
	}
	if *htmlOut != "" {
		writeFile(*htmlOut, []byte(resonance.HTMLReport(reports)))
		fmt.Printf("combined report written to %s\n", *htmlOut)
	}
	cacheflags.PrintStats(os.Stdout, eng)
}
