package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/workload"
)

// latencyBuckets are the histogram upper bounds in seconds: 100 µs to
// 10 s, dense at the low end where the warm cached path lives.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram with lock-free
// observation (one atomic add per bucket hit plus count and sum).
type histogram struct {
	buckets  []atomic.Uint64 // one per bound, plus a final +Inf bucket
	count    atomic.Uint64
	sumNanos atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{buckets: make([]atomic.Uint64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	secs := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, secs)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// endpointMetrics accumulates one handled path's traffic: a latency
// histogram and per-status-code request counts.
type endpointMetrics struct {
	hist *histogram

	mu    sync.Mutex
	codes map[int]uint64
}

func newEndpointMetrics() *endpointMetrics {
	return &endpointMetrics{hist: newHistogram(), codes: make(map[int]uint64)}
}

func (m *endpointMetrics) record(code int, d time.Duration) {
	m.hist.observe(d)
	m.mu.Lock()
	m.codes[code]++
	m.mu.Unlock()
}

// metricsSet is the server's whole metrics surface: per-endpoint HTTP
// traffic plus whatever the engine reports at scrape time.
type metricsSet struct {
	endpoints map[string]*endpointMetrics // fixed key set, built at New
}

func newMetricsSet(paths ...string) *metricsSet {
	eps := make(map[string]*endpointMetrics, len(paths))
	for _, p := range paths {
		eps[p] = newEndpointMetrics()
	}
	return &metricsSet{endpoints: eps}
}

func (s *metricsSet) endpoint(path string) *endpointMetrics { return s.endpoints[path] }

// writeProm renders the full scrape in Prometheus text exposition
// format (version 0.0.4): cache tiers, lockstep fork counters, queue
// depth, in-flight lanes, the shared trace store, and per-endpoint
// request counts and latency histograms. Output order is deterministic
// so scrapes diff cleanly.
func (s *metricsSet) writeProm(w io.Writer, eng *engine.Engine) {
	cs := eng.CacheStats()
	ld := eng.Load()
	ts := workload.SharedTraces().Stats()

	fmt.Fprintf(w, "# HELP resonanced_cache_hits_total Runs served from a cache tier without simulating.\n")
	fmt.Fprintf(w, "# TYPE resonanced_cache_hits_total counter\n")
	fmt.Fprintf(w, "resonanced_cache_hits_total{tier=\"mem\"} %d\n", cs.Hits)
	fmt.Fprintf(w, "resonanced_cache_hits_total{tier=\"disk\"} %d\n", cs.DiskHits)
	fmt.Fprintf(w, "# HELP resonanced_sim_misses_total Simulations actually executed.\n")
	fmt.Fprintf(w, "# TYPE resonanced_sim_misses_total counter\n")
	fmt.Fprintf(w, "resonanced_sim_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "# TYPE resonanced_cache_disk_writes_total counter\n")
	fmt.Fprintf(w, "resonanced_cache_disk_writes_total %d\n", cs.DiskWrites)
	fmt.Fprintf(w, "# HELP resonanced_cache_disk_write_errors_total Results the disk tier failed to persist.\n")
	fmt.Fprintf(w, "# TYPE resonanced_cache_disk_write_errors_total counter\n")
	fmt.Fprintf(w, "resonanced_cache_disk_write_errors_total %d\n", cs.DiskWriteErrors)
	fmt.Fprintf(w, "# HELP resonanced_cache_disk_read_errors_total Disk probes that found the entry's file but no readable current entry in it, for specs no other file of the batch served.\n")
	fmt.Fprintf(w, "# TYPE resonanced_cache_disk_read_errors_total counter\n")
	fmt.Fprintf(w, "resonanced_cache_disk_read_errors_total %d\n", cs.DiskReadErrors)
	fmt.Fprintf(w, "# TYPE resonanced_cache_disk_gc_removed counter\n")
	fmt.Fprintf(w, "resonanced_cache_disk_gc_removed %d\n", cs.DiskGCRemoved)
	fmt.Fprintf(w, "# HELP resonanced_cache_entries Distinct specs resident in the memory tier.\n")
	fmt.Fprintf(w, "# TYPE resonanced_cache_entries gauge\n")
	fmt.Fprintf(w, "resonanced_cache_entries %d\n", cs.Entries)
	fmt.Fprintf(w, "# HELP resonanced_batch_lanes_forked_total Lockstep lanes that diverged and resumed on a forked machine.\n")
	fmt.Fprintf(w, "# TYPE resonanced_batch_lanes_forked_total counter\n")
	fmt.Fprintf(w, "resonanced_batch_lanes_forked_total %d\n", cs.LanesForked)
	fmt.Fprintf(w, "# HELP resonanced_batch_cohorts_reformed_total Forked machines created, each a fresh lockstep cohort.\n")
	fmt.Fprintf(w, "# TYPE resonanced_batch_cohorts_reformed_total counter\n")
	fmt.Fprintf(w, "resonanced_batch_cohorts_reformed_total %d\n", cs.CohortsReformed)
	fmt.Fprintf(w, "# HELP resonanced_batch_fork_cycles_saved_total Speculative prefix cycles retained by forking instead of re-running from cycle zero.\n")
	fmt.Fprintf(w, "# TYPE resonanced_batch_fork_cycles_saved_total counter\n")
	fmt.Fprintf(w, "resonanced_batch_fork_cycles_saved_total %d\n", cs.ForkCyclesSaved)

	fmt.Fprintf(w, "# HELP resonanced_engine_inflight Simulations (or lockstep lane groups) occupying a worker slot.\n")
	fmt.Fprintf(w, "# TYPE resonanced_engine_inflight gauge\n")
	fmt.Fprintf(w, "resonanced_engine_inflight %d\n", ld.InFlight)
	fmt.Fprintf(w, "# HELP resonanced_engine_queue_depth Runs waiting for a free worker slot.\n")
	fmt.Fprintf(w, "# TYPE resonanced_engine_queue_depth gauge\n")
	fmt.Fprintf(w, "resonanced_engine_queue_depth %d\n", ld.Queued)

	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"builds", "Instruction streams the trace store built from scratch.", ts.Builds},
		{"extensions", "Stored instruction streams extended to serve a longer run.", ts.Extensions},
		{"hits", "Runs served from stored instructions.", ts.Hits},
		{"bypasses", "Runs whose stream exceeds the trace budget, generated live.", ts.Bypasses},
		{"evictions", "Instruction streams evicted to stay within the trace budget.", ts.Evictions},
	} {
		fmt.Fprintf(w, "# HELP resonanced_trace_store_%s_total %s\n", c.name, c.help)
		fmt.Fprintf(w, "# TYPE resonanced_trace_store_%s_total counter\n", c.name)
		fmt.Fprintf(w, "resonanced_trace_store_%s_total %d\n", c.name, c.v)
	}
	fmt.Fprintf(w, "# HELP resonanced_trace_store_entries Applications with a resident instruction stream.\n")
	fmt.Fprintf(w, "# TYPE resonanced_trace_store_entries gauge\n")
	fmt.Fprintf(w, "resonanced_trace_store_entries %d\n", ts.Entries)
	fmt.Fprintf(w, "# HELP resonanced_trace_store_bytes Packed instruction bytes resident in the trace store.\n")
	fmt.Fprintf(w, "# TYPE resonanced_trace_store_bytes gauge\n")
	fmt.Fprintf(w, "resonanced_trace_store_bytes %d\n", ts.Bytes)

	paths := make([]string, 0, len(s.endpoints))
	for p := range s.endpoints {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	fmt.Fprintf(w, "# TYPE resonanced_http_requests_total counter\n")
	for _, p := range paths {
		ep := s.endpoints[p]
		ep.mu.Lock()
		codes := make([]int, 0, len(ep.codes))
		for c := range ep.codes {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "resonanced_http_requests_total{path=%q,code=\"%d\"} %d\n", p, c, ep.codes[c])
		}
		ep.mu.Unlock()
	}

	fmt.Fprintf(w, "# TYPE resonanced_http_request_duration_seconds histogram\n")
	for _, p := range paths {
		h := s.endpoints[p].hist
		var cum uint64
		for i, bound := range latencyBuckets {
			cum += h.buckets[i].Load()
			fmt.Fprintf(w, "resonanced_http_request_duration_seconds_bucket{path=%q,le=%q} %d\n",
				p, strconv.FormatFloat(bound, 'g', -1, 64), cum)
		}
		cum += h.buckets[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "resonanced_http_request_duration_seconds_bucket{path=%q,le=\"+Inf\"} %d\n", p, cum)
		fmt.Fprintf(w, "resonanced_http_request_duration_seconds_sum{path=%q} %g\n",
			p, time.Duration(h.sumNanos.Load()).Seconds())
		fmt.Fprintf(w, "resonanced_http_request_duration_seconds_count{path=%q} %d\n", p, h.count.Load())
	}
}
