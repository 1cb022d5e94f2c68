// Command perfbench is the repository's benchmark of record. It drives
// the simulator only from outside, through the public calls of its
// modules, and measures one named workload per invocation:
//
//	perfbench --workload table3 --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it runs the measured phases (set-up, cold passes, warm
// replays, an open-loop and a closed-loop service phase) and prints the
// end-to-end metrics. With --trace 1 it runs the workload again split at
// module boundaries, plus a per-layer cycle budget, and prints the
// per-layer metrics. Both modes check every output they produce; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// and any mismatch makes the exit code non-zero. README.md in this
// directory documents the workloads, the metrics and which per-layer
// metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"time"
)

// clients bounds the engine's parallelism and the load generator's
// connections: the benchmark runs on two cores and in one process.
const clients = 2

// gcLimit is the heap size at which the collector runs. The default pace,
// a collection each time the heap doubles its live part, made every pass
// slower or faster with whatever the benchmark held at the time (answered
// requests, the servers' memory tiers): cold passes sped up by a quarter
// over one run as the live heap grew. At a fixed limit far above the live
// heap, how often the collector runs depends on what a pass allocates.
const gcLimit = 256 << 20

func main() {
	name := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	secs := flag.Int("seconds", 40, "how long the measured phases run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced decomposition and prints per-layer metrics")
	flag.Parse()
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	sc, err := newScenario(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(tmp)

	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(gcLimit)
	chk := &checker{}
	out := metrics{}
	budget := time.Duration(*secs) * time.Second
	if *trace == 1 {
		err = runTraced(sc, tmp, chk, out)
	} else {
		err = runMeasured(sc, budget, tmp, chk, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		chk.fail("run aborted: %v", err)
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{chk.failed == 0, max(chk.attempted, 1), chk.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(tmp)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if chk.failed != 0 {
		os.RemoveAll(tmp)
		os.Exit(1)
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// checker counts the checked operations and the ones that failed.
type checker struct {
	attempted, failed int
}

// check counts one checked operation, logging it when it failed.
func (c *checker) check(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: MISMATCH: "+format+"\n", args...)
	}
	return ok
}

// fail counts one failed operation.
func (c *checker) fail(format string, args ...any) { c.check(false, format, args...) }

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.999999999) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// residentMB returns the process's resident set in MiB after a full
// collection that returns freed memory to the OS: the memory the run
// holds, without the garbage the collector's timing leaves behind.
func residentMB() float64 {
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

// logf prints a progress or count line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
