package main

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

func TestPopulationBodiesAreDistinctValidSpecs(t *testing.T) {
	bodies := population("swim", 30_000, 8)
	seen := make(map[string]bool)
	for i, b := range bodies {
		var req server.RunRequest
		if err := json.Unmarshal(b, &req); err != nil {
			t.Fatalf("body %d is not a RunRequest: %v", i, err)
		}
		if req.Spec == nil || req.Spec.App != "swim" || req.Spec.Instructions != 30_000+uint64(i) {
			t.Fatalf("body %d = %+v, want swim at %d instructions", i, req.Spec, 30_000+i)
		}
		if seen[string(b)] {
			t.Fatalf("body %d duplicates an earlier spec", i)
		}
		seen[string(b)] = true
	}
}

func TestQuantileNearestRank(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond // 1ms..100ms sorted
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.90, 90 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{0.999, 100 * time.Millisecond},
		{1, 100 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := quantile(samples, tc.q); got != tc.want {
			t.Errorf("quantile(%g) = %s, want %s", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of empty set = %s, want 0", got)
	}
}

// TestPrewarmAboveGridLimit: a population larger than the grid a server
// accepts by default prewarms as several grids, simulating every spec
// once, instead of failing on one grid the server refuses with 413.
func TestPrewarmAboveGridLimit(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 2})
	ts := httptest.NewServer(server.New(server.Options{Engine: eng}).Handler())
	defer ts.Close()

	cfg := config{URL: ts.URL, Population: server.DefaultMaxSpecs + 1, App: "swim", Insts: 1}
	if err := prewarm(ts.Client(), cfg); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Misses != uint64(cfg.Population) {
		t.Errorf("misses = %d, want %d (each spec once)", st.Misses, cfg.Population)
	}
}

// TestRunAgainstLiveServer drives the real handler end to end: a short
// closed-loop burst over a tiny warm population must complete without a
// single error, and the cold fraction must force fresh simulations.
func TestRunAgainstLiveServer(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 2})
	ts := httptest.NewServer(server.New(server.Options{Engine: eng}).Handler())
	defer ts.Close()

	cfg := config{
		URL:        ts.URL,
		Duration:   300 * time.Millisecond,
		Conns:      4,
		Population: 4,
		ZipfS:      1.1,
		ZipfV:      1,
		App:        "swim",
		Insts:      20_000,
		Prewarm:    true,
		Seed:       1,
	}
	sum, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 {
		t.Fatalf("summary reported %d errors: %+v", sum.Errors, sum)
	}
	if sum.Requests == 0 {
		t.Fatal("no requests completed in the window")
	}
	if sum.Quantiles["p50"] <= 0 || sum.Quantiles["max"] < sum.Quantiles["p99"] {
		t.Errorf("quantiles inconsistent: %+v", sum.Quantiles)
	}
	// Prewarm simulated the population; the measured window must have
	// been all cache hits.
	if st := eng.CacheStats(); st.Misses != uint64(cfg.Population) {
		t.Errorf("misses = %d, want %d (prewarm only)", st.Misses, cfg.Population)
	}

	// A cold fraction of 1 forces every request to a fresh spec.
	before := eng.CacheStats().Misses
	cfg.Cold = 1
	cfg.Prewarm = false
	cfg.Duration = 150 * time.Millisecond
	sum, err = run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 {
		t.Fatalf("cold run reported %d errors", sum.Errors)
	}
	gained := eng.CacheStats().Misses - before
	if int(gained) != sum.Requests {
		t.Errorf("cold run: %d new misses for %d requests, want equal", gained, sum.Requests)
	}
}
