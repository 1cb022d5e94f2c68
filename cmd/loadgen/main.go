// Command loadgen drives a running resonanced with Zipf-distributed
// spec traffic and reports achieved throughput and latency quantiles.
//
// The population is -population distinct specs (the same application at
// stepped instruction counts, so every spec is a distinct cache key);
// workers draw from it with Zipf(s, v) skew, which models the real
// sweep workload: a few hot points hammered from many clients, a long
// tail of colder ones. -cold mixes in never-before-seen specs (a
// monotonic instruction counter) to force simulation misses at a
// controlled rate, so the warm/cold ratio of the server under test is
// an input, not an accident.
//
// Two driving modes:
//
//	-conns N            closed loop: N connections, each issuing the next
//	                    request as soon as the previous one finishes
//	-rate R             open loop: R requests/second paced independently
//	                    of response times (exposes queueing collapse)
//
// Usage:
//
//	loadgen -url http://localhost:8080 -duration 10s -conns 8
//	loadgen -rate 20000 -population 256 -zipf-s 1.2 -cold 0.01
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/server"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.URL, "url", "http://localhost:8080", "resonanced base URL")
	flag.DurationVar(&cfg.Duration, "duration", 10*time.Second, "measurement window")
	flag.IntVar(&cfg.Conns, "conns", 8, "closed-loop connections (ignored when -rate > 0)")
	flag.Float64Var(&cfg.Rate, "rate", 0, "open-loop request rate per second (0 = closed loop)")
	flag.IntVar(&cfg.Population, "population", 64, "distinct specs in the hot set")
	flag.Float64Var(&cfg.ZipfS, "zipf-s", 1.1, "Zipf skew s (> 1; larger = hotter head)")
	flag.Float64Var(&cfg.ZipfV, "zipf-v", 1, "Zipf offset v (>= 1)")
	flag.Float64Var(&cfg.Cold, "cold", 0, "fraction of requests carrying a never-seen spec (forced miss)")
	flag.StringVar(&cfg.App, "app", "swim", "application every spec runs")
	flag.Uint64Var(&cfg.Insts, "insts", 30_000, "base instruction count (spec i runs insts+i)")
	flag.BoolVar(&cfg.Prewarm, "prewarm", true, fmt.Sprintf(
		"POST the whole population once before timing, in grids of at most %d specs (a resonanced started with a smaller -max-specs answers 413)",
		server.DefaultMaxSpecs))
	seed := flag.Int64("seed", 1, "PRNG seed for the traffic pattern")
	flag.Parse()
	cfg.Seed = *seed

	sum, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(sum)
	if sum.Errors > 0 {
		os.Exit(1)
	}
}
