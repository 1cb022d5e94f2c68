// Package cacheflags is the cache surface the commands share: the
// -cache-dir, -cache-gc and -trace-budget-mb flags, the engine they
// configure, and the cache-stats: and trace-stats: lines a run ends
// with (CI and the smoke scripts grep sim_misses= off the first).
package cacheflags

import (
	"flag"
	"fmt"
	"io"
	"strconv"

	"repro/internal/engine"
	"repro/internal/workload"
)

// Flags holds the parsed cache flags.
type Flags struct {
	Dir     string
	GC      bool
	TraceMB int64
}

// Register declares the cache flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Dir, "cache-dir", "", "persistent result-cache directory (a warm re-run replays finished results without simulating)")
	fs.BoolVar(&f.GC, "cache-gc", false, "sweep the cache directory at startup, removing old-schema and corrupt entries")
	fs.Int64Var(&f.TraceMB, "trace-budget-mb", 0, "workload trace store budget in MiB (0 = 1024)")
	return f
}

// Engine sets the shared trace store's budget and builds an engine over
// the cache directory running at most parallelism simulations at once
// (<= 0 means GOMAXPROCS).
func (f *Flags) Engine(parallelism int) *engine.Engine {
	if f.TraceMB != 0 {
		workload.SharedTraces().SetBudget(f.TraceMB << 20)
	}
	return engine.New(engine.Options{Parallelism: parallelism, DiskCacheDir: f.Dir, DiskCacheGC: f.GC})
}

// WorkerArgs renders the flags a forked worker process needs to share
// this process's cache directory and trace budget; sweeping the
// directory stays with this process.
func (f *Flags) WorkerArgs() []string {
	args := []string{"-cache-dir", f.Dir}
	if f.TraceMB != 0 {
		args = append(args, "-trace-budget-mb", strconv.FormatInt(f.TraceMB, 10))
	}
	return args
}

// PrintStats writes eng's cache-stats: line and the shared trace store's
// trace-stats: line to w.
func PrintStats(w io.Writer, eng *engine.Engine) {
	fmt.Fprintln(w, eng.CacheStats())
	fmt.Fprintln(w, workload.SharedTraces().Stats())
}
