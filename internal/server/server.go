// Package server is the sim-as-a-service HTTP front-end over
// internal/engine: POST /v1/run accepts one spec or a grid as JSON and
// streams results back as NDJSON in spec order as they complete;
// GET /metrics exposes the engine's cache tiers, queue depth, and
// per-endpoint latency histograms in Prometheus text format.
//
// The server adds no execution machinery of its own: every request is
// validated through the technique registry's Normalize/Validate path,
// keyed by its canonical content address, and handed to the shared
// engine, whose entry/waiter singleflight makes identical in-flight
// requests from any number of connections coalesce onto one simulation.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/engine"
	"repro/internal/sim"
)

// DefaultMaxSpecs bounds the grid size of one request.
const DefaultMaxSpecs = 4096

// DefaultMaxBodyBytes bounds the request body size.
const DefaultMaxBodyBytes = 32 << 20

// Options configures a Server.
type Options struct {
	// Engine executes the requests. Required.
	Engine *engine.Engine
	// MaxSpecs bounds the number of specs in one grid request;
	// 0 means DefaultMaxSpecs.
	MaxSpecs int
	// MaxBodyBytes bounds the request body; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
}

// Server serves the engine over HTTP. Create with New, mount with
// Handler, drain with http.Server.Shutdown (in-flight batches finish
// because handlers only return when their batch does).
type Server struct {
	eng      *engine.Engine
	maxSpecs int
	maxBody  int64
	metrics  *metricsSet
}

// New builds a server over the given engine.
func New(o Options) *Server {
	if o.Engine == nil {
		panic("server.New: nil engine")
	}
	maxSpecs := o.MaxSpecs
	if maxSpecs <= 0 {
		maxSpecs = DefaultMaxSpecs
	}
	maxBody := o.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	return &Server{
		eng:      o.Engine,
		maxSpecs: maxSpecs,
		maxBody:  maxBody,
		metrics:  newMetricsSet("/v1/run", "/metrics", "/healthz"),
	}
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.instrument("/v1/run", s.handleRun))
	mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("/healthz", s.instrument("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}))
	return mux
}

// statusWriter records the status code a handler sent (200 when the
// handler wrote a body without an explicit WriteHeader).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so NDJSON lines reach the
// connection as they are produced.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the endpoint's latency histogram and
// status-code counters.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.metrics.endpoint(path)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		ep.record(sw.code, time.Since(start))
	}
}

// SpecRequest is the JSON wire form of one simulation spec: the
// engine's shared wire schema (engine.SpecWire), which the sharded
// sweep's grid manifest also speaks. Zero-valued fields resolve to the
// same defaults every other driver uses (Table 1 system, 1M
// instructions, base technique).
type SpecRequest = engine.SpecWire

// RunRequest is the POST /v1/run body: exactly one of Spec (single run)
// or Specs (grid).
type RunRequest struct {
	Spec  *SpecRequest  `json:"spec,omitempty"`
	Specs []SpecRequest `json:"specs,omitempty"`
}

// RunLine is one NDJSON response line: the spec's position in the
// request, its content-address key, and its result — or, on a terminal
// line, the error that aborted the batch.
type RunLine struct {
	Index  int         `json:"index"`
	Key    string      `json:"key,omitempty"`
	Result *sim.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// keyHex renders a spec's full content address (the cache key) for the
// wire; clients can use it to correlate or content-address results
// themselves.
func keyHex(k engine.Key) string { return k.Hex() }

// errorJSON is the body of a non-streaming error response.
type errorJSON struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorJSON{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "metrics is GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeProm(w, s.eng)
}

// handleRun is POST /v1/run. Every spec is validated through the
// registry before anything executes, so a malformed grid is a 400
// naming the offending spec rather than a half-streamed failure;
// runtime errors that survive validation (and cancel the batch, per
// engine semantics) surface as a terminal NDJSON error line.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "run is POST only")
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	var req RunRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var reqs []SpecRequest
	switch {
	case req.Spec != nil && req.Specs != nil:
		httpError(w, http.StatusBadRequest, `body must carry "spec" or "specs", not both`)
		return
	case req.Spec != nil:
		reqs = []SpecRequest{*req.Spec}
	case len(req.Specs) > 0:
		reqs = req.Specs
	default:
		httpError(w, http.StatusBadRequest, `body must carry one "spec" or a non-empty "specs" grid`)
		return
	}
	if len(reqs) > s.maxSpecs {
		httpError(w, http.StatusRequestEntityTooLarge, "grid of %d specs exceeds the %d-spec limit", len(reqs), s.maxSpecs)
		return
	}

	// Validate and key everything up front: the registry's
	// Normalize/Validate path plus application resolution, so
	// configuration mistakes are client errors, not failed batches.
	specs := make([]engine.Spec, len(reqs))
	keys := make([]engine.Key, len(reqs))
	for i, sr := range reqs {
		specs[i] = sr.Spec()
		if err := specs[i].Validate(); err != nil {
			httpError(w, http.StatusBadRequest, "spec %d: %v", i, err)
			return
		}
		k, err := specs[i].Key()
		if err != nil {
			httpError(w, http.StatusBadRequest, "spec %d: %v", i, err)
			return
		}
		keys[i] = k
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	writeLine := func(line RunLine) {
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Single spec: the keyed path, skipping batch machinery (this is the
	// high-rate cached path a load generator hammers).
	if len(specs) == 1 {
		res, err := s.eng.RunKeyed(r.Context(), keys[0], specs[0])
		if err != nil {
			writeLine(RunLine{Index: 0, Key: keyHex(keys[0]), Error: err.Error()})
			return
		}
		writeLine(RunLine{Index: 0, Key: keyHex(keys[0]), Result: &res})
		return
	}

	// Grid: stream lines in spec order as results complete. The
	// progress callback is serialized by the engine; finished-early
	// results buffer until the contiguous prefix reaches them.
	results := make([]*sim.Result, len(specs))
	next := 0
	_, err := s.eng.RunAll(r.Context(), specs, func(i int, res sim.Result) {
		r := res
		results[i] = &r
		for next < len(specs) && results[next] != nil {
			writeLine(RunLine{Index: next, Key: keyHex(keys[next]), Result: results[next]})
			next++
		}
	})
	if err != nil {
		// The batch aborted (first failing spec cancels the rest, or the
		// client went away); anything unstreamed is lost to this error.
		if !errors.Is(err, r.Context().Err()) || r.Context().Err() == nil {
			writeLine(RunLine{Index: next, Error: err.Error()})
		}
		return
	}
}
