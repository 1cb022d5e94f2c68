// Package server is the sim-as-a-service HTTP front-end over
// internal/engine: POST /v1/run accepts one spec or a grid as JSON and
// streams results back as NDJSON in spec order as they complete;
// GET /metrics exposes the engine's cache tiers, queue depth, and
// per-endpoint latency histograms in Prometheus text format.
//
// The server adds no execution machinery of its own: every request is
// validated through the technique table's Normalize/Validate path,
// keyed by its canonical content address, and handed to the shared
// engine, whose entry/waiter singleflight makes identical in-flight
// requests from any number of connections coalesce onto one simulation.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/sim"
)

// DefaultMaxSpecs bounds the grid size of one request.
const DefaultMaxSpecs = 4096

// DefaultMaxBodyBytes bounds the request body size; a larger body is
// answered 413.
const DefaultMaxBodyBytes = 32 << 20

// Options configures a Server.
type Options struct {
	// Engine executes the requests. Required.
	Engine *engine.Engine
	// MaxSpecs bounds the number of specs in one grid request;
	// 0 means DefaultMaxSpecs.
	MaxSpecs int
}

// Server serves the engine over HTTP. Create with New, mount with
// Handler, drain with http.Server.Shutdown (in-flight batches finish
// because handlers only return when their batch does).
type Server struct {
	eng      *engine.Engine
	maxSpecs int
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
	return &Server{
		eng:      o.Engine,
		maxSpecs: maxSpecs,
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
// engine's Spec itself, whose JSON tags the sharded sweep's grid
// manifest also speaks. Zero-valued fields resolve to the same defaults
// every other driver uses (Table 1 system, 1M instructions, base
// technique).
type SpecRequest = engine.Spec

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

// decodeRun decodes a /v1/run body, which is one JSON value: anything
// after it but white space is an error, not a second request dropped
// unread.
func decodeRun(body io.Reader, req *RunRequest) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			return errors.New("data after the request's JSON value")
		}
		return fmt.Errorf("after the request's JSON value: %w", err)
	}
	return nil
}

// handleRun is POST /v1/run. Every spec is validated through the
// technique table before anything executes, so a malformed grid is a 400
// naming the offending spec rather than a half-streamed failure;
// runtime errors that survive validation (and cancel the batch, per
// engine semantics) surface as a terminal NDJSON error line.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "run is POST only")
		return
	}
	var req RunRequest
	if err := decodeRun(http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes), &req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", tooLarge.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var specs []engine.Spec
	switch {
	case req.Spec != nil && req.Specs != nil:
		httpError(w, http.StatusBadRequest, `body must carry "spec" or "specs", not both`)
		return
	case req.Spec != nil:
		specs = []engine.Spec{*req.Spec}
	case len(req.Specs) > 0:
		specs = req.Specs
	default:
		httpError(w, http.StatusBadRequest, `body must carry one "spec" or a non-empty "specs" grid`)
		return
	}
	if len(specs) > s.maxSpecs {
		httpError(w, http.StatusRequestEntityTooLarge, "grid of %d specs exceeds the %d-spec limit", len(specs), s.maxSpecs)
		return
	}

	// Validate and key everything up front, one normalization per spec:
	// the technique table's Normalize/Validate path plus application
	// resolution, so configuration mistakes are client errors, not
	// failed batches.
	keys := make([]engine.Key, len(specs))
	for i := range specs {
		k, err := specs[i].ValidKey()
		if err != nil {
			httpError(w, http.StatusBadRequest, "spec %d: %v", i, err)
			return
		}
		keys[i] = k
	}

	w.Header().Set("Content-Type", "application/x-ndjson")

	// Single spec: the keyed path, skipping batch machinery (this is the
	// high-rate cached path a load generator hammers). Its one line is
	// the whole body, so it goes out unflushed, in one write with a
	// Content-Length.
	if len(specs) == 1 {
		line := RunLine{Index: 0, Key: keys[0].Hex()}
		res, err := s.eng.RunKeyed(r.Context(), keys[0], specs[0])
		if err != nil {
			line.Error = err.Error()
		} else {
			line.Result = &res
		}
		body, _ := json.Marshal(line) // a RunLine always encodes: the engine fails a run whose result holds NaN or Inf
		body = append(body, '\n')
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
		return
	}

	// Grid: stream lines in spec order as results complete, each flushed
	// as it is written. The progress callback is serialized by the
	// engine; finished-early results buffer until the contiguous prefix
	// reaches them.
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	writeLine := func(line RunLine) {
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	results := make([]*sim.Result, len(specs))
	next := 0
	_, err := s.eng.RunAllKeyed(r.Context(), specs, keys, func(i int, res sim.Result) {
		r := res
		results[i] = &r
		for next < len(specs) && results[next] != nil {
			writeLine(RunLine{Index: next, Key: keys[next].Hex(), Result: results[next]})
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
