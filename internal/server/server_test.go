package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/sim"
)

func newTestServer(t *testing.T, o Options) (*Server, *httptest.Server) {
	t.Helper()
	if o.Engine == nil {
		o.Engine = engine.New(engine.Options{Parallelism: 2})
	}
	srv := New(o)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postRun posts body to /v1/run and reads the response to EOF before
// returning it with the body buffered. The server ends a response only
// after its handler — and the instrument wrapper that records the
// request in /metrics — has returned, so a scrape made after postRun
// always sees this request.
func postRun(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return resp
}

func decodeLines(t *testing.T, r io.Reader) []RunLine {
	t.Helper()
	var lines []RunLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line RunLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestSingleSpecRun: one spec in, one NDJSON line out, carrying the full
// 64-hex-char content address and a result identical to a direct
// engine run of the same spec.
func TestSingleSpecRun(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postRun(t, ts.URL, `{"spec":{"app":"swim","instructions":30000}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := decodeLines(t, resp.Body)
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	line := lines[0]
	if line.Index != 0 || line.Error != "" || line.Result == nil {
		t.Fatalf("line = %+v, want index 0 with a result", line)
	}
	if len(line.Key) != 64 {
		t.Errorf("key %q is not a full 32-byte hex content address", line.Key)
	}
	want, err := engine.Execute(engine.Spec{App: "swim", Instructions: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if *line.Result != want {
		t.Errorf("served result diverged from direct execution:\n%+v\n%+v", *line.Result, want)
	}
}

// TestPDNRunOverWire: a spec selecting the multi-domain PDN and the
// per-domain tuning technique travels the wire, validates, and serves a
// result identical to direct execution — and the wire spec keys the same
// as the equivalent in-process Spec (the PDN section folds into the
// system on both paths).
func TestPDNRunOverWire(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postRun(t, ts.URL,
		`{"spec":{"app":"swim","instructions":30000,"technique":"domain-tuning","pdn":{"Kind":"multidomain"}}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	lines := decodeLines(t, resp.Body)
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	line := lines[0]
	if line.Error != "" || line.Result == nil {
		t.Fatalf("line = %+v, want a result", line)
	}
	spec := engine.Spec{
		App: "swim", Instructions: 30_000,
		Technique: engine.TechniqueDomainTuning,
		PDN:       &circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain},
	}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	if line.Key != key.Hex() {
		t.Errorf("wire spec keyed %s, direct spec %s", line.Key, key.Hex())
	}
	want, err := engine.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if *line.Result != want {
		t.Errorf("served result diverged from direct execution:\n%+v\n%+v", *line.Result, want)
	}
}

// TestGridStreamsInSpecOrder: a grid with a duplicate streams its lines
// strictly in request order, duplicates share a key and a result, and
// the duplicate never simulates twice.
func TestGridStreamsInSpecOrder(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 2})
	_, ts := newTestServer(t, Options{Engine: eng})
	resp := postRun(t, ts.URL, `{"specs":[
		{"app":"swim","instructions":30000},
		{"app":"swim","instructions":30000,"technique":"tuning"},
		{"app":"lucas","instructions":30000},
		{"app":"swim","instructions":30000}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	lines := decodeLines(t, resp.Body)
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	for i, line := range lines {
		if line.Index != i {
			t.Fatalf("line %d carries index %d: NDJSON out of spec order", i, line.Index)
		}
		if line.Error != "" || line.Result == nil {
			t.Fatalf("line %d = %+v, want a result", i, line)
		}
	}
	if lines[0].Key != lines[3].Key {
		t.Errorf("duplicate specs keyed differently: %s vs %s", lines[0].Key, lines[3].Key)
	}
	if *lines[0].Result != *lines[3].Result {
		t.Errorf("duplicate specs diverged:\n%+v\n%+v", *lines[0].Result, *lines[3].Result)
	}
	if st := eng.CacheStats(); st.Misses != 3 {
		t.Errorf("misses = %d, want 3 (duplicate must coalesce)", st.Misses)
	}
}

// TestConcurrentIdenticalRequestsCoalesce is the acceptance criterion:
// N identical in-flight single-spec requests produce exactly one
// simulation; every other request rides the same entry.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 2})
	_, ts := newTestServer(t, Options{Engine: eng})

	const n = 16
	body := `{"spec":{"app":"swim","instructions":40000}}`
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, n)
	results := make(chan sim.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var line RunLine
			if err := json.NewDecoder(resp.Body).Decode(&line); err != nil {
				errs <- err
				return
			}
			if line.Error != "" || line.Result == nil {
				errs <- fmt.Errorf("line = %+v", line)
				return
			}
			results <- *line.Result
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	close(results)
	for err := range errs {
		t.Fatal(err)
	}
	var first *sim.Result
	for res := range results {
		if first == nil {
			r := res
			first = &r
		} else if res != *first {
			t.Fatalf("coalesced requests diverged:\n%+v\n%+v", *first, res)
		}
	}

	st := eng.CacheStats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (identical in-flight requests must coalesce)", st.Misses)
	}
	if st.Hits+st.DiskHits+st.Misses != n {
		t.Errorf("hits(%d) + diskHits(%d) + misses(%d) != %d requests", st.Hits, st.DiskHits, st.Misses, n)
	}
}

// TestRequestValidation: configuration mistakes are client errors with
// JSON bodies naming the problem, never half-streamed batches.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxSpecs: 2})
	cases := []struct {
		name string
		body string
		code int
		want string // substring of the error message
	}{
		{"empty body", `{}`, http.StatusBadRequest, "spec"},
		{"both spec and specs", `{"spec":{"app":"swim"},"specs":[{"app":"swim"}]}`, http.StatusBadRequest, "not both"},
		{"unknown field", `{"spec":{"app":"swim","warp_factor":9}}`, http.StatusBadRequest, "warp_factor"},
		{"malformed json", `{"spec":`, http.StatusBadRequest, "bad request body"},
		{"unknown technique", `{"spec":{"app":"swim","technique":"prayer"}}`, http.StatusBadRequest, "prayer"},
		{"unknown network kind", `{"spec":{"app":"swim","pdn":{"Kind":"mesh"}}}`, http.StatusBadRequest, "registered kinds"},
		{"retired supply selector", `{"spec":{"app":"swim","system":{"Supply":{"R":0.001}}}}`, http.StatusBadRequest, "Supply"},
		{"unusable network parameters", `{"spec":{"app":"swim","pdn":{"Kind":"lumped","Lumped":{"R":-1}}}}`, http.StatusBadRequest, "circuit"},
		{"sensor domain out of range", `{"spec":{"app":"swim","pdn":{"Kind":"multidomain"},"system":{"SensorDomain":7}}}`, http.StatusBadRequest, "sensor domain"},
		{"unknown app in grid", `{"specs":[{"app":"swim"},{"app":"no-such-app"}]}`, http.StatusBadRequest, "spec 1"},
		{"grid over limit", `{"specs":[{"app":"swim"},{"app":"lucas"},{"app":"art"}]}`, http.StatusRequestEntityTooLarge, "2-spec limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postRun(t, ts.URL, tc.body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.code)
			}
			var e errorJSON
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("error body not JSON: %v", err)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Errorf("error %q does not mention %q", e.Error, tc.want)
			}
		})
	}

	// Wrong method on both endpoints.
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run status = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status = %d, want 405", resp.StatusCode)
	}
}

// runtimeFailingSystem builds a system that passes Spec.Validate (the
// network's electricals, CPU and power are fine) but fails machine
// construction: a multi-domain network assigning an unknown power unit
// to a domain is only caught when the power model is split. This is the
// class of error the NDJSON terminal line exists for.
func runtimeFailingSystem() *sim.Config {
	p := circuit.Table1TwoDomain()
	p.Domains = append([]circuit.DomainParams(nil), p.Domains...)
	p.Domains[1].PowerUnits = []string{"warp-core"}
	cfg := sim.DefaultConfig()
	cfg.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain, MultiDomain: &p}
	return &cfg
}

// TestRuntimeErrorsStreamAsErrorLines: errors that survive upfront
// validation surface inside the NDJSON stream, not as HTTP errors.
func TestRuntimeErrorsStreamAsErrorLines(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// Single spec: the line carries the key and the error.
	body, err := json.Marshal(RunRequest{Spec: &SpecRequest{App: "swim", Instructions: 30_000, System: runtimeFailingSystem()}})
	if err != nil {
		t.Fatal(err)
	}
	resp := postRun(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (stream already committed)", resp.StatusCode)
	}
	lines := decodeLines(t, resp.Body)
	if len(lines) != 1 || lines[0].Error == "" || lines[0].Result != nil {
		t.Fatalf("lines = %+v, want one terminal error line", lines)
	}
	if !strings.Contains(lines[0].Error, "power") {
		t.Errorf("error %q does not name the failing subsystem", lines[0].Error)
	}

	// Grid: the batch aborts and the stream ends with a terminal error
	// line; any lines before it are well-formed results.
	body, err = json.Marshal(RunRequest{Specs: []SpecRequest{
		{App: "swim", Instructions: 30_000},
		{App: "swim", Instructions: 30_000, System: runtimeFailingSystem()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp = postRun(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid status = %d, want 200", resp.StatusCode)
	}
	lines = decodeLines(t, resp.Body)
	if len(lines) == 0 {
		t.Fatal("grid with runtime error streamed nothing")
	}
	last := lines[len(lines)-1]
	if last.Error == "" {
		t.Fatalf("final line %+v is not a terminal error line", last)
	}
	for _, line := range lines[:len(lines)-1] {
		if line.Error != "" || line.Result == nil {
			t.Errorf("non-terminal line %+v is not a result", line)
		}
	}
}

// TestMetricsEndpoint: the scrape reflects the engine's cache counters
// and the server's own traffic in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 2})
	_, ts := newTestServer(t, Options{Engine: eng})

	postRun(t, ts.URL, `{"spec":{"app":"swim","instructions":30000}}`)
	postRun(t, ts.URL, `{"spec":{"app":"swim","instructions":30000}}`) // warm repeat
	postRun(t, ts.URL, `{"bogus":`)                                    // a 400

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition format", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	scrape := string(raw)

	for _, want := range []string{
		"resonanced_sim_misses_total 1\n",
		"resonanced_cache_hits_total{tier=\"mem\"} 1\n",
		"resonanced_cache_entries 1\n",
		"resonanced_engine_inflight 0\n",
		"resonanced_engine_queue_depth 0\n",
		"resonanced_batch_lanes_forked_total 0\n",
		"resonanced_batch_cohorts_reformed_total 0\n",
		"resonanced_batch_fork_cycles_saved_total 0\n",
		"resonanced_http_requests_total{path=\"/v1/run\",code=\"200\"} 2\n",
		"resonanced_http_requests_total{path=\"/v1/run\",code=\"400\"} 1\n",
		"resonanced_http_request_duration_seconds_count{path=\"/v1/run\"} 3\n",
		"resonanced_http_request_duration_seconds_bucket{path=\"/v1/run\",le=\"+Inf\"} 3\n",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", strings.TrimSpace(want))
		}
	}

	// Histogram buckets must be cumulative and end at the count.
	var lastCum uint64
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, "resonanced_http_request_duration_seconds_bucket{path=\"/v1/run\"") {
			continue
		}
		var cum uint64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &cum); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if cum < lastCum {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		lastCum = cum
	}
	if lastCum != 3 {
		t.Errorf("+Inf bucket = %d, want 3", lastCum)
	}
}

// TestHealthz: the liveness probe answers without touching the engine.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(bytes.TrimSpace(body), []byte("ok")) {
		t.Errorf("healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}
}
