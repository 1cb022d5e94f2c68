// Command sweep explores the resonance-tuning design space on a chosen
// set of applications: a grid over initial response time, initial
// response threshold, and second-level hold, reporting slowdown,
// energy-delay, and residual violations per point as CSV.
//
// Grid points run through the shared engine (internal/engine) as one
// batch with each application's baseline, which is just another cached
// run rather than a special case: a bounded worker pool executes them in
// parallel and a content-addressed result cache deduplicates identical
// points. Rows stream to the output as points complete, in stable grid
// order.
//
// Large grids (or long instruction streams) shard across processes and
// machines: a coordinator publishes the grid into a shared cache
// directory and workers — forked locally or started anywhere the
// directory is mounted — lease points, steal from stragglers, and
// publish content-addressed results; the merged CSV is byte-identical
// to a single-process run (see internal/shard).
//
// Usage:
//
//	sweep                                   # default grid on the heavy violators
//	sweep -apps lucas,swim -insts 500000
//	sweep -initial 50,100,200 -threshold 1,2 -o grid.csv
//	sweep -parallel 4                       # bound the worker pool
//	sweep -progress ...                     # done/total, rate, ETA on stderr
//	sweep -coordinate -workers 2 -cache-dir /shared/d ...   # sharded sweep
//	sweep -worker -cache-dir /shared/d      # extra worker, local or remote
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/cacheflags"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/profiling"
	"repro/internal/shard"
	"repro/internal/sim"
)

func main() {
	var (
		appsFlag = flag.String("apps", "lucas,swim,bzip,parser", "comma-separated application names")
		insts    = flag.Uint64("insts", 300_000, "instructions per run")
		techFlag = flag.String("technique", string(engine.TechniqueTuning),
			"technique kind to run at each grid point (one of: "+kindList()+"); "+
				"the -initial/-threshold/-second axes configure tuning, every other kind runs its default configuration once per app")
		pdnFlag = flag.String("pdn", "",
			"power-delivery-network kind simulated at every point, baselines included (one of: "+netKindList()+"); "+
				"empty keeps each spec's default lumped supply")
		initials  = flag.String("initial", "75,100,150,200", "initial response times (cycles)")
		thresh    = flag.String("threshold", "1,2", "initial response thresholds (event count)")
		secondMin = flag.String("second", "35", "second-level hold times (cycles)")
		parallel  = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cache     = cacheflags.Register(flag.CommandLine)
		out       = flag.String("o", "", "write CSV to this file instead of stdout")
		progressF = flag.Bool("progress", false, "print points done/total, completion rate, and ETA to stderr")
		coordF    = flag.Bool("coordinate", false, "sharded mode: publish the grid to -cache-dir, fork -workers local workers, wait for completion, and merge the byte-identical CSV")
		workersF  = flag.Int("workers", 2, "local worker processes the coordinator forks (0 = rely on remote workers sharing -cache-dir)")
		workerF   = flag.Bool("worker", false, "sharded mode: claim and simulate points of the grid published to -cache-dir until it completes (grid flags are ignored; the manifest carries the points)")
		leaseF    = flag.Duration("lease-expiry", shard.DefaultLeaseExpiry, "sharded mode: a lease not heartbeat-refreshed for this long is stale and may be stolen (same value on every worker)")
		pollF     = flag.Duration("shard-poll", shard.DefaultPoll, "sharded mode: idle re-scan and completion-wait interval")
		dieAfterF = flag.Int("die-after", 0, "TESTING: worker exits holding an unreleased lease after completing this many points (crash-recovery drills)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	grid := sweepGrid{apps: splitApps(*appsFlag), insts: *insts, technique: engine.TechniqueKind(*techFlag), pdn: *pdnFlag}
	if !validKind(grid.technique) {
		fatal(fmt.Errorf("-technique: unknown kind %q (valid: %s)", *techFlag, kindList()))
	}
	if !validNetKind(grid.pdn) {
		fatal(fmt.Errorf("-pdn: unknown network kind %q (valid: %s)", *pdnFlag, netKindList()))
	}
	if grid.initials, err = parseInts(*initials); err != nil {
		fatal(fmt.Errorf("-initial: %w", err))
	}
	if grid.thresholds, err = parseInts(*thresh); err != nil {
		fatal(fmt.Errorf("-threshold: %w", err))
	}
	if grid.seconds, err = parseInts(*secondMin); err != nil {
		fatal(fmt.Errorf("-second: %w", err))
	}
	if err := shard.CheckLeaseExpiry(*leaseF); err != nil {
		fatal(fmt.Errorf("-lease-expiry: %w", err))
	}

	if *workerF && *coordF {
		fatal(fmt.Errorf("-worker and -coordinate are mutually exclusive"))
	}
	if (*workerF || *coordF) && cache.Dir == "" {
		fatal(fmt.Errorf("sharded modes require -cache-dir: the shared directory is the coordination substrate"))
	}

	eng := cache.Engine(*parallel)
	sh := shardOpts{
		cache:       cache,
		workers:     *workersF,
		leaseExpiry: *leaseF,
		poll:        *pollF,
		parallel:    *parallel,
		progress:    *progressF,
		dieAfter:    *dieAfterF,
	}

	if *workerF {
		_, err := workerMain(context.Background(), eng, sh)
		cacheflags.PrintStats(os.Stderr, eng)
		if errors.Is(err, shard.ErrAbandoned) {
			stopProfiles()
			os.Exit(3)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	if *coordF {
		if err := coordinate(context.Background(), eng, grid, w, sh); err != nil {
			fatal(err)
		}
	} else {
		m := newMeter(os.Stderr, len(grid.apps)+len(grid.points()), *progressF)
		if err := runSweep(context.Background(), eng, grid, w, m); err != nil {
			fatal(err)
		}
		m.finish()
	}
	// The sharded smoke test greps sim_misses off the coordinator's
	// merge to prove nothing re-simulated.
	cacheflags.PrintStats(os.Stderr, eng)
}

// kindList renders every registered technique kind for usage and error
// text.
func kindList() string {
	ks := engine.Kinds()
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = string(k)
	}
	return strings.Join(out, ", ")
}

// validKind reports whether the kind is registered ("" means the default
// tuning sweep).
func validKind(kind engine.TechniqueKind) bool {
	if kind == "" {
		return true
	}
	for _, k := range engine.Kinds() {
		if k == kind {
			return true
		}
	}
	return false
}

// netKindList renders every network kind for usage and error
// text.
func netKindList() string {
	return strings.Join(circuit.NetworkKinds(), ", ")
}

// validNetKind reports whether the PDN kind is known ("" keeps each
// spec's default supply).
func validNetKind(kind string) bool {
	if kind == "" {
		return true
	}
	for _, k := range circuit.NetworkKinds() {
		if k == kind {
			return true
		}
	}
	return false
}

// sweepGrid is the cross product the sweep explores.
type sweepGrid struct {
	apps  []string
	insts uint64
	// technique is the registered kind each grid point runs; empty
	// means TechniqueTuning. The initials/thresholds/seconds axes
	// parameterise tuning only — any other kind runs its default
	// configuration, collapsing the grid to one point per app.
	technique engine.TechniqueKind
	// pdn selects the registered power-delivery-network kind every run
	// (baselines included) simulates; empty keeps the default lumped
	// supply.
	pdn        string
	initials   []int
	thresholds []int
	seconds    []int
}

// pdnConfig returns the grid's network selector, nil when defaulted.
func (g sweepGrid) pdnConfig() *circuit.NetworkConfig {
	if g.pdn == "" {
		return nil
	}
	return &circuit.NetworkConfig{Kind: g.pdn}
}

// tunes reports whether the grid sweeps tuning configurations (the axes
// apply) as opposed to running another registered kind at its defaults.
func (g sweepGrid) tunes() bool {
	return g.technique == "" || g.technique == engine.TechniqueTuning
}

// gridPoint is one tuned configuration of the grid, remembering which
// baseline its relatives are computed against.
type gridPoint struct {
	appIdx              int
	app                 string
	technique           engine.TechniqueKind
	pdn                 string
	initial, th, second int
}

// points enumerates the grid in stable app-major order — the CSV row
// order, regardless of completion order.
func (g sweepGrid) points() []gridPoint {
	initials, thresholds, seconds := g.initials, g.thresholds, g.seconds
	if !g.tunes() {
		// The tuning axes do not parameterise other techniques; one
		// default-configuration point per app.
		initials, thresholds, seconds = []int{0}, []int{0}, []int{0}
	}
	var pts []gridPoint
	for ai, app := range g.apps {
		for _, initial := range initials {
			for _, th := range thresholds {
				for _, second := range seconds {
					pts = append(pts, gridPoint{
						appIdx: ai, app: app, technique: g.technique, pdn: g.pdn,
						initial: initial, th: th, second: second,
					})
				}
			}
		}
	}
	return pts
}

// spec builds the controlled run of one grid point.
func (p gridPoint) spec(insts uint64) engine.Spec {
	kind := p.technique
	if kind == "" {
		kind = engine.TechniqueTuning
	}
	s := engine.Spec{App: p.app, Instructions: insts, Technique: kind}
	if p.pdn != "" {
		s.PDN = &circuit.NetworkConfig{Kind: p.pdn}
	}
	if kind == engine.TechniqueTuning {
		cfg := resonance.DefaultTuningConfig(p.initial)
		cfg.InitialResponseThreshold = p.th
		if cfg.SecondResponseThreshold <= p.th {
			cfg.SecondResponseThreshold = p.th + 1
		}
		cfg.SecondResponseCycles = p.second
		s.Tuning = &cfg
	}
	return s
}

const csvHeader = "app,initial_cycles,initial_threshold,second_cycles,slowdown,rel_energy,rel_energy_delay,base_violations,violations"

// runSweep executes the grid through eng and streams CSV rows to w as
// points complete, preserving grid order. The per-app baselines and the
// points run as one batch, so each baseline shares a lockstep group with
// its own app's points; every spec is validated first, and a bad one
// fails the sweep with its grid coordinates before anything runs. m
// (nil = silent) ticks once per completed spec, baselines included.
func runSweep(ctx context.Context, eng *engine.Engine, g sweepGrid, w io.Writer, m *meter) error {
	if _, err := fmt.Fprintln(w, csvHeader); err != nil {
		return err
	}
	specs, pts, nb := shardSpecs(g), g.points(), len(g.apps)
	keys := make([]engine.Key, len(specs))
	for i, s := range specs {
		k, err := s.ValidKey()
		if err != nil {
			label := "baseline app=" + s.App
			if i >= nb {
				p := pts[i-nb]
				label = fmt.Sprintf("app=%s initial=%d threshold=%d second=%d", p.app, p.initial, p.th, p.second)
				if !g.tunes() {
					label = fmt.Sprintf("app=%s technique=%s", p.app, p.technique)
				}
			}
			if g.pdn != "" {
				label += " pdn=" + g.pdn
			}
			return fmt.Errorf("%s: %w", label, err)
		}
		keys[i] = k
	}

	// The progress callback is serialized by the engine; a row is
	// written once its point and its app's baseline have both finished,
	// flushing the contiguous prefix in grid order.
	res := make([]sim.Result, len(specs))
	done := make([]bool, len(specs))
	next := 0
	var werr error
	_, err := eng.RunAllKeyed(ctx, specs, keys, func(i int, r sim.Result) {
		res[i], done[i] = r, true
		m.add(1)
		for ; next < len(pts) && done[nb+next] && done[pts[next].appIdx]; next++ {
			p := pts[next]
			base, pr := res[p.appIdx], res[nb+next]
			slow := float64(pr.Cycles) / float64(base.Cycles)
			energy := pr.EnergyJ / base.EnergyJ
			row := fmt.Sprintf("%s,%d,%d,%d,%.4f,%.4f,%.4f,%d,%d\n",
				p.app, p.initial, p.th, p.second, slow, energy, slow*energy,
				base.Violations, pr.Violations)
			if _, err := io.WriteString(w, row); err != nil && werr == nil {
				werr = err
			}
		}
	})
	if err != nil {
		return err
	}
	return werr
}

// splitApps splits and trims the -apps list.
func splitApps(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(part))
	}
	return out
}

// parseInts splits a comma-separated integer list, rejecting junk.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
