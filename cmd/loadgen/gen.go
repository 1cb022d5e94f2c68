package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// config is the full description of one load run; main fills it from
// flags, tests fill it directly.
type config struct {
	URL        string
	Duration   time.Duration
	Conns      int
	Rate       float64 // > 0 switches to open loop
	Population int
	ZipfS      float64
	ZipfV      float64
	Cold       float64
	App        string
	Insts      uint64
	Prewarm    bool
	Seed       int64
}

// summary is what a run measured.
type summary struct {
	Requests  int
	Errors    int
	Elapsed   time.Duration
	Quantiles map[string]time.Duration // p50 p90 p99 p999 max
}

func (s summary) String() string {
	var b strings.Builder
	rate := float64(s.Requests) / s.Elapsed.Seconds()
	fmt.Fprintf(&b, "requests=%d errors=%d elapsed=%.2fs achieved=%.0f req/s\n",
		s.Requests, s.Errors, s.Elapsed.Seconds(), rate)
	for _, q := range []string{"p50", "p90", "p99", "p999", "max"} {
		fmt.Fprintf(&b, "%s=%s\n", q, s.Quantiles[q])
	}
	return b.String()
}

// population pre-marshals the request body for each of the n distinct
// specs: the same app at stepped instruction counts, so each body is a
// distinct content-addressed key and the Zipf draw decides hotness.
func population(app string, insts uint64, n int) [][]byte {
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = specBody(app, insts+uint64(i))
	}
	return bodies
}

func specBody(app string, insts uint64) []byte {
	b, err := json.Marshal(server.RunRequest{
		Spec: &server.SpecRequest{App: app, Instructions: insts},
	})
	if err != nil {
		panic(err) // static struct, cannot fail
	}
	return b
}

// quantile reads the q-quantile (0 < q <= 1) from an ascending-sorted
// sample set using the nearest-rank method.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// traffic is the shared request-picking state: the Zipf draw over the
// warm population plus the cold-spec counter. Each worker owns its own
// rng (and therefore its own Zipf state); the cold counter is shared so
// cold specs never collide.
type traffic struct {
	bodies [][]byte
	cold   float64
	app    string
	next   atomic.Uint64 // next never-seen instruction count
}

func newTraffic(cfg config) *traffic {
	t := &traffic{bodies: population(cfg.App, cfg.Insts, cfg.Population), cold: cfg.Cold, app: cfg.App}
	// Cold specs start far above the warm band so the two never overlap.
	t.next.Store(cfg.Insts + uint64(cfg.Population) + 1_000_000)
	return t
}

// pick returns the next request body for one worker's rng.
func (t *traffic) pick(r *rand.Rand, z *rand.Zipf) []byte {
	if t.cold > 0 && r.Float64() < t.cold {
		return specBody(t.app, t.next.Add(1))
	}
	return t.bodies[z.Uint64()]
}

// post issues one request and reports its latency; any transport error,
// non-200 status, or NDJSON error line counts as an error.
func post(client *http.Client, url string, body []byte) (time.Duration, error) {
	start := time.Now()
	resp, err := client.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if bytes.Contains(raw, []byte(`"error"`)) {
		return d, fmt.Errorf("run failed: %s", bytes.TrimSpace(raw))
	}
	return d, nil
}

// run executes one load generation pass and summarizes it.
func run(cfg config) (summary, error) {
	if cfg.Population < 1 {
		return summary{}, fmt.Errorf("population must be positive")
	}
	if cfg.ZipfS <= 1 || cfg.ZipfV < 1 {
		return summary{}, fmt.Errorf("zipf needs s > 1 and v >= 1 (got s=%g v=%g)", cfg.ZipfS, cfg.ZipfV)
	}
	workers := cfg.Conns
	if cfg.Rate > 0 {
		// Open loop: enough workers that pacing, not conns, is the limit.
		workers = 4 * max(cfg.Conns, 8)
	}
	if workers < 1 {
		return summary{}, fmt.Errorf("need at least one connection")
	}
	tr := newTraffic(cfg)
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        workers,
		MaxIdleConnsPerHost: workers,
	}}

	if cfg.Prewarm {
		if err := prewarm(client, cfg); err != nil {
			return summary{}, fmt.Errorf("prewarm: %w", err)
		}
	}

	// Open loop hands paced ticks to workers through a channel; closed
	// loop lets each worker self-pace (nil channel = no gating).
	var ticks chan struct{}
	deadline := time.Now().Add(cfg.Duration)
	if cfg.Rate > 0 {
		ticks = make(chan struct{}, workers)
		go pace(ticks, cfg.Rate, deadline)
	}

	lats := make([][]time.Duration, workers)
	errCounts := make([]int, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			z := rand.NewZipf(r, cfg.ZipfS, cfg.ZipfV, uint64(cfg.Population-1))
			for {
				if ticks != nil {
					if _, ok := <-ticks; !ok {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				d, err := post(client, cfg.URL, tr.pick(r, z))
				if err != nil {
					errCounts[w]++
					continue
				}
				lats[w] = append(lats[w], d)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	var errs int
	for w := range lats {
		all = append(all, lats[w]...)
		errs += errCounts[w]
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return summary{
		Requests: len(all) + errs,
		Errors:   errs,
		Elapsed:  elapsed,
		Quantiles: map[string]time.Duration{
			"p50":  quantile(all, 0.50),
			"p90":  quantile(all, 0.90),
			"p99":  quantile(all, 0.99),
			"p999": quantile(all, 0.999),
			"max":  quantile(all, 1),
		},
	}, nil
}

// prewarm POSTs the whole population once so the measured window runs
// against a warm cache (the server coalesces and caches; a grid is the
// cheapest way to install many entries), in grids of at most
// server.DefaultMaxSpecs specs, the largest a server started with the
// default limit accepts.
func prewarm(client *http.Client, cfg config) error {
	for lo := 0; lo < cfg.Population; lo += server.DefaultMaxSpecs {
		specs := make([]server.SpecRequest, min(server.DefaultMaxSpecs, cfg.Population-lo))
		for i := range specs {
			specs[i] = server.SpecRequest{App: cfg.App, Instructions: cfg.Insts + uint64(lo+i)}
		}
		body, err := json.Marshal(server.RunRequest{Specs: specs})
		if err != nil {
			return err
		}
		if _, err := post(client, cfg.URL, body); err != nil {
			return err
		}
	}
	return nil
}

// pace feeds ticks at the target rate until the deadline, then closes
// the channel. Sends never block the clock: if workers fall behind, the
// tick is dropped and the shortfall shows up as achieved < target.
func pace(ticks chan<- struct{}, rate float64, deadline time.Time) {
	defer close(ticks)
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	for next := time.Now(); next.Before(deadline); next = next.Add(interval) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		select {
		case ticks <- struct{}{}:
		default:
		}
	}
}
