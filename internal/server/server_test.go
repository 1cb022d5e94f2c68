package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
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

// TestSingleSpecResponseIsOneWrite: a single-spec response, result or
// error, is sent whole with a Content-Length equal to its body, which is
// the one NDJSON line an encoder writes for it; a grid response still
// streams chunked, a flush per line.
func TestSingleSpecResponseIsOneWrite(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := engine.Spec{App: "swim", Instructions: 30_000}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	failing, err := json.Marshal(RunRequest{Spec: &SpecRequest{App: "swim", Instructions: 30_000, System: runtimeFailingSystem()}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, body string
		want       func(lines []RunLine) RunLine
	}{
		{"result", `{"spec":{"app":"swim","instructions":30000}}`, func([]RunLine) RunLine {
			return RunLine{Index: 0, Key: key.Hex(), Result: &res}
		}},
		{"error", string(failing), func(lines []RunLine) RunLine {
			if len(lines) != 1 || lines[0].Error == "" {
				t.Fatalf("lines %+v, want one error line", lines)
			}
			return RunLine{Index: 0, Key: lines[0].Key, Error: lines[0].Error}
		}},
	} {
		resp := postRun(t, ts.URL, c.body)
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, transfer encoding %v for a %d-byte body, want the body's length and none",
				c.name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(c.want(decodeLines(t, bytes.NewReader(body)))); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%s: body\n%s\nwant\n%s", c.name, body, want.Bytes())
		}
	}

	resp := postRun(t, ts.URL, `{"specs":[{"app":"swim","instructions":30000},{"app":"lucas","instructions":30000}]}`)
	if resp.ContentLength != -1 || len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
		t.Errorf("grid: Content-Length %d, transfer encoding %v, want a chunked stream", resp.ContentLength, resp.TransferEncoding)
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

// validationCase is a request body the server must refuse, the status
// it must refuse it with, and a substring of the error it must name.
type validationCase struct {
	name string
	body string
	code int
	want string
}

// validationCases are TestRequestValidation's bodies, for a server with
// MaxSpecs 2.
func validationCases() []validationCase {
	return []validationCase{
		{"empty body", `{}`, http.StatusBadRequest, "spec"},
		{"both spec and specs", `{"spec":{"app":"swim"},"specs":[{"app":"swim"}]}`, http.StatusBadRequest, "not both"},
		{"unknown field", `{"spec":{"app":"swim","warp_factor":9}}`, http.StatusBadRequest, "warp_factor"},
		{"malformed json", `{"spec":`, http.StatusBadRequest, "bad request body"},
		{"unknown technique", `{"spec":{"app":"swim","technique":"prayer"}}`, http.StatusBadRequest, "prayer"},
		{"unknown network kind", `{"spec":{"app":"swim","pdn":{"Kind":"mesh"}}}`, http.StatusBadRequest, "registered kinds"},
		{"retired supply selector", `{"spec":{"app":"swim","system":{"Supply":{"R":0.001}}}}`, http.StatusBadRequest, "Supply"},
		{"unusable network parameters", `{"spec":{"app":"swim","pdn":{"Kind":"lumped","Lumped":{"R":-1}}}}`, http.StatusBadRequest, "circuit"},
		{"convctl supply clock past its bound", `{"spec":{"app":"swim","technique":"convctl","pdn":{"Kind":"lumped","Lumped":{"R":0.000375,"L":1.69e-12,"C":1.5e-6,"Vdd":1,"NoiseMargin":0.05,"ClockHz":1e300,"IMax":105,"IMin":35}}}}`,
			http.StatusBadRequest, "impulse response"},
		{"sensor domain out of range", `{"spec":{"app":"swim","pdn":{"Kind":"multidomain"},"system":{"SensorDomain":7}}}`, http.StatusBadRequest, "sensor domain"},
		{"unknown app in grid", `{"specs":[{"app":"swim"},{"app":"no-such-app"}]}`, http.StatusBadRequest, "spec 1"},
		{"grid over limit", `{"specs":[{"app":"swim"},{"app":"lucas"},{"app":"art"}]}`, http.StatusRequestEntityTooLarge, "2-spec limit"},
		{"body over limit", `{"spec":{"app":"` + strings.Repeat("x", DefaultMaxBodyBytes+1-len(`{"spec":{"app":""}}`)) + `"}}`,
			http.StatusRequestEntityTooLarge, fmt.Sprintf("%d-byte limit", DefaultMaxBodyBytes)},
		// The body is one JSON value: a second request or any other data
		// after it is refused, not dropped.
		{"second object", `{"spec":{"app":"swim"}}{"spec":{"app":"lucas"}}`, http.StatusBadRequest, "after the request's JSON value"},
		{"trailing garbage", `{"spec":{"app":"swim"}}garbage`, http.StatusBadRequest, "after the request's JSON value"},
		{"stray brace", `{"spec":{"app":"swim"}}}`, http.StatusBadRequest, "after the request's JSON value"},
		{"data after a newline", "{\"spec\":{\"app\":\"swim\"}}\n[]", http.StatusBadRequest, "after the request's JSON value"},
		{"tail over limit", `{"spec":{"app":"swim"}}` + strings.Repeat(" ", DefaultMaxBodyBytes),
			http.StatusRequestEntityTooLarge, fmt.Sprintf("%d-byte limit", DefaultMaxBodyBytes)},
	}
}

// TestRequestValidation: configuration mistakes are client errors with
// JSON bodies naming the problem, never half-streamed batches.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxSpecs: 2})
	for _, tc := range validationCases() {
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

	// White space after the body's value is not data: a body ending in
	// a newline, as curl and most clients send one, is served.
	resp := postRun(t, ts.URL, "{\"spec\":{\"app\":\"swim\",\"instructions\":20000}}\n\t \r\n")
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("body ending in white space: status %d (%s), want 200", resp.StatusCode, body)
	}
	if lines := decodeLines(t, resp.Body); len(lines) != 1 || lines[0].Result == nil {
		t.Errorf("body ending in white space: lines %+v, want one result", lines)
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

// TestNonFiniteResultIsAnErrorLine: a spec that passes validation but
// simulates to a result holding +Inf is answered with the engine's error
// naming the field, which JSON can carry where the value cannot: a
// single spec's body is one line with the key and the error, and a grid
// ends with a terminal error line.
func TestNonFiniteResultIsAnErrorLine(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cfg := sim.DefaultConfig()
	cfg.Power.PeakWatts = 1e308
	bad := SpecRequest{App: "swim", Instructions: 2_000, System: &cfg}
	const want = "result field PeakDeviationV is +Inf"

	body, err := json.Marshal(RunRequest{Spec: &bad})
	if err != nil {
		t.Fatal(err)
	}
	resp := postRun(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	lines := decodeLines(t, resp.Body)
	if len(lines) != 1 || lines[0].Result != nil || lines[0].Key == "" || !strings.Contains(lines[0].Error, want) {
		t.Fatalf("lines = %+v, want one line with the key and an error containing %q", lines, want)
	}

	body, err = json.Marshal(RunRequest{Specs: []SpecRequest{{App: "swim", Instructions: 2_000}, bad}})
	if err != nil {
		t.Fatal(err)
	}
	resp = postRun(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid status = %d, want 200", resp.StatusCode)
	}
	lines = decodeLines(t, resp.Body)
	if len(lines) == 0 || !strings.Contains(lines[len(lines)-1].Error, want) {
		t.Fatalf("grid lines = %+v, want a terminal error line containing %q", lines, want)
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
	// A directory squats on the spec's entry name: the disk probe finds
	// it but cannot read it, and the store cannot replace it.
	spec := engine.Spec{App: "swim", Instructions: 30000}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, key.Hex()+".json"), 0o755); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Parallelism: 2, DiskCacheDir: dir})
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
		"resonanced_cache_disk_writes_total 0\n",
		"resonanced_cache_disk_write_errors_total 1\n",
		"resonanced_cache_disk_read_errors_total 1\n",
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

	// The shared trace store is process-wide, so other tests move its
	// numbers: check each series is exported with a value.
	for _, name := range []string{
		"resonanced_trace_store_builds_total",
		"resonanced_trace_store_extensions_total",
		"resonanced_trace_store_hits_total",
		"resonanced_trace_store_bypasses_total",
		"resonanced_trace_store_evictions_total",
		"resonanced_trace_store_entries",
		"resonanced_trace_store_bytes",
	} {
		if !regexp.MustCompile(`(?m)^` + name + ` \d+$`).MatchString(scrape) {
			t.Errorf("scrape missing a %s sample", name)
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

// raceEnabled is set in a build with the race detector (race_test.go).
var raceEnabled bool

// TestSingleSpecRequestAllocations bounds the allocations of the
// server's hot path, a memory-hit single-spec POST /v1/run through
// Handler(), measured over requests and recorders built beforehand.
// Go 1.24 measured 29 allocations per request (37 before ValidKey
// resolved specs in a pooled holder); the ceiling of 33 leaves 4 for
// other Go versions. CI runs it without the race detector under Go
// 1.22, whose count has not been measured here: if CI reports more, set
// the ceiling from that count, not from a larger guess. It does not run
// under the race detector, whose sync.Pool drops a random share of the
// buffers put back, so the count there is not the server's.
func TestSingleSpecRequestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are randomized under the race detector")
	}
	const (
		body    = `{"spec":{"app":"swim","instructions":2000}}`
		runs    = 50
		ceiling = 33
	)
	h := New(Options{Engine: engine.New(engine.Options{Parallelism: 1})}).Handler()
	// One request primes the memory tier, and AllocsPerRun makes one
	// call more than runs to warm up.
	reqs := make([]*http.Request, runs+2)
	recs := make([]*httptest.ResponseRecorder, runs+2)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
		recs[i] = httptest.NewRecorder()
	}
	h.ServeHTTP(recs[0], reqs[0])
	n := 1
	allocs := testing.AllocsPerRun(runs, func() {
		h.ServeHTTP(recs[n], reqs[n])
		n++
	})
	for i, rec := range recs {
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Fatalf("request %d: status %d, body %q; want 200 and the first request's body", i, rec.Code, rec.Body)
		}
	}
	if allocs > ceiling {
		t.Errorf("a memory-hit single-spec request made %v allocations, want at most %d", allocs, ceiling)
	}
}
