package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The measured phases run in rounds, each round one slice of every
// phase, so a slow spell of the host is shared out over all the metrics
// instead of landing on one of them. Each phase gets a fixed share of
// --seconds; the two service loops send a number of requests fixed by
// --seconds, so the counts do not depend on timing.
const (
	rounds       = 10
	coldShare    = 0.35
	warmShare    = 0.15
	openShare    = 0.30
	closedShare  = 0.20
	openRate     = 1000  // offered requests per second
	closedRate   = 15000 // about the closed loop's cached capacity, per second
	setupReps    = 5
	minWarm      = 3  // warm passes per round at least
	closedPieces = 12 // closed-loop slices per round
)

// runMeasured runs the measured phases with tracing off and fills out
// with the end-to-end metrics.
func runMeasured(sc *scenario, budget time.Duration, tmp string, chk *checker, out metrics) error {
	dir := filepath.Join(tmp, "disk")

	// Set-up: materialise the workload's traces (the last repetition into
	// the process-wide store the engine reads) and start the two servers
	// the open and the closed loop talk to. Their engines serve from the
	// disk tier the first cold pass writes.
	var setups []float64
	var open, closed *liveServer
	for rep := 0; rep < setupReps; rep++ {
		store := workload.NewTraceStore(0)
		if rep == setupReps-1 {
			store = workload.SharedTraces()
		}
		t0 := time.Now()
		materialize(sc, store)
		o, err := startServer(engine.New(engine.Options{Parallelism: clients, DiskCacheDir: dir}))
		if err != nil {
			return err
		}
		c, err := startServer(engine.New(engine.Options{Parallelism: clients, DiskCacheDir: dir}))
		if err != nil {
			o.stop()
			return err
		}
		setups = append(setups, seconds(time.Since(t0)))
		if rep == setupReps-1 {
			open, closed = o, c
			break
		}
		if err := errors.Join(o.stop(), c.stop()); err != nil {
			return err
		}
	}
	defer open.stop()
	defer closed.stop()
	out.set("setup_s", median(setups), "s")

	var (
		cold, warm []float64
		first      passResult
		exp        *expectations
		openPhase  = &phase{}
		closedN    int // closed-loop requests sent
		openReqs   = sc.newRequestStream(1, false)
		closedReqs = sc.newRequestStream(2, true)
		warmed     engine.CacheStats // the closed loop's engine after its warm-up
		p50        []float64         // per round
		rps        []float64         // per closed-loop slice
	)
	perRound := int(openRate * dur(budget, openShare).Seconds() / rounds)
	perPiece := max(int(closedRate*dur(budget, closedShare).Seconds()/(rounds*closedPieces)), 1)
	for r := 0; r < rounds; r++ {
		// Cold passes: a fresh engine over an empty disk-cache directory
		// simulates every spec. The first writes the directory the warm
		// passes and the servers read.
		for start := time.Now(); time.Since(start) < dur(budget, coldShare/rounds); {
			d := dir
			if len(cold) > 0 {
				d = filepath.Join(tmp, fmt.Sprintf("cold-%d", len(cold)))
			}
			runtime.GC()
			p, err := sc.pass(engine.New(engine.Options{Parallelism: clients, DiskCacheDir: d}), true)
			if err != nil {
				return err
			}
			if d != dir {
				os.RemoveAll(d)
			}
			cold = append(cold, seconds(p.wall))
			if len(cold) > 1 {
				chk.check(p.digest == first.digest, "cold pass %d digest %s, first %s", len(cold), p.digest, first.digest)
				chk.check(p.counts == first.counts, "cold pass %d counts %+v, first %+v", len(cold), p.counts, first.counts)
				continue
			}
			first = p
			checkDigest(sc, p.resultsDigest, chk)
			printCounts("cold", first.counts)
			if exp, err = newExpectations(sc, first.results); err != nil {
				return err
			}
			// The closed loop measures cached capacity: load every spec
			// into its engine's memory tier before any slice is timed.
			res, err := closed.eng.RunAll(context.Background(), sc.specs, nil)
			if err != nil {
				return err
			}
			chk.check(digestOf(res) == first.resultsDigest, "the closed loop's warm-up differs from the cold pass")
			warmed = closed.eng.CacheStats()
		}

		// Warm passes: fresh engines replay every spec from the disk tier.
		for start, n := time.Now(), 0; n < minWarm || time.Since(start) < dur(budget, warmShare/rounds); n++ {
			eng := engine.New(engine.Options{Parallelism: clients, DiskCacheDir: dir})
			runtime.GC()
			p, err := sc.pass(eng, false)
			if err != nil {
				return err
			}
			warm = append(warm, ms(p.wall))
			st := eng.CacheStats()
			chk.check(p.report == first.report && (sc.table3 || p.resultsDigest == first.resultsDigest),
				"warm pass %d differs from the cold pass", len(warm))
			chk.check(st.Misses == 0, "warm pass %d simulated %d specs", len(warm), st.Misses)
		}

		// Service: an open-loop slice at the fixed rate, then a
		// closed-loop slice cut into short pieces, each loop on its own
		// server. The closed loop sends only specs its server holds in
		// memory, so it measures the cached path's capacity; the open
		// loop's never-seen specs carry the cost of misses.
		runtime.GC()
		o := openLoop(open, exp, openReqs, perRound, openRate)
		p50 = append(p50, quantile(o.latencies(false), 0.50))
		openPhase.append(o)
		runtime.GC()
		for k := 0; k < closedPieces; k++ {
			wall, bad := closedLoop(closed, exp, closedReqs, perPiece)
			rps = append(rps, float64(perPiece)/wall.Seconds())
			closedN += perPiece
			chk.attempted += perPiece - len(bad)
			for _, b := range bad {
				chk.fail("closed loop: %s", b)
			}
		}
	}
	logf("cold passes (s): %.4g", cold)
	logf("warm passes (ms): %.4g", warm)
	logf("closed-loop slices (1/s): %.5g", rps)
	out.set("cold_s", median(cold), "s")
	out.set("warm_ms", median(warm), "ms")
	openPhase.check(exp, chk)
	lat, missLat := openPhase.latencies(false), openPhase.latencies(true)
	logf("open loop: p50 per round %.4g ms; all requests p99 %.4g ms, p99.9 %.4g ms; never-seen p50 %.4g ms, p90 %.4g ms",
		p50, quantile(lat, 0.99), quantile(lat, 0.999), quantile(missLat, 0.5), quantile(missLat, 0.9))
	out.set("p50_ms", median(p50), "ms")
	out.set("miss_ms", median(missLat), "ms")
	// Capacity is read off the fast end of the pieces: the host's busy
	// spells, which come and go over seconds, only ever slow a piece
	// down, and a run's median moved with how much of it they covered.
	out.set("closed_rps", quantile(rps, 0.90), "1/s")
	out.set("rss_mb", residentMB(), "MiB")
	exp.verifyMisses(openPhase.missed(), chk)

	st := open.eng.CacheStats()
	n := len(openPhase.reqs)
	printCounts("open-loop", tierCounts{Requests: n, Hits: st.Hits, DiskHits: st.DiskHits, Misses: st.Misses})
	chk.check(st.Hits+st.DiskHits+st.Misses == uint64(n), "open-loop tiers %d+%d+%d != %d requests", st.Hits, st.DiskHits, st.Misses, n)
	chk.check(st.Misses == uint64(openReqs.misses), "open loop simulated %d specs for %d never-seen requests", st.Misses, openReqs.misses)
	st = closed.eng.CacheStats()
	chk.check(st.Hits-warmed.Hits == uint64(closedN) && st.DiskHits == warmed.DiskHits && st.Misses == warmed.Misses,
		"closed loop: %d memory hits, %d disk hits, %d misses for %d requests to a warm engine",
		st.Hits-warmed.Hits, st.DiskHits-warmed.DiskHits, st.Misses-warmed.Misses, closedN)
	return nil
}

// dur is share of the run budget.
func dur(budget time.Duration, share float64) time.Duration {
	return time.Duration(float64(budget) * share)
}

// materialize builds every trace the workload's cold pass replays.
func materialize(sc *scenario, store *workload.TraceStore) {
	for _, s := range sc.specs {
		store.Get(appParams(s.App), s.Instructions)
	}
}

func appParams(name string) workload.Params {
	app, err := workload.ByName(name)
	if err != nil {
		panic(err) // scenario application names are constants
	}
	return app.Params
}

// workCounts are the exact work counts of one cold pass: a change that
// only speeds the simulator up must leave every one of them unchanged.
type workCounts struct {
	Specs         uint64 `json:"specs_simulated"`
	SpecCycles    uint64 `json:"sim.spec_cycles"`
	Violations    uint64 `json:"sim.violations"`
	MemoHits      uint64 `json:"power.memo_hits"`
	MemoLookups   uint64 `json:"power.memo_lookups"`
	LanesForked   uint64 `json:"batchkernel.lanes_forked"`
	CohortsForked uint64 `json:"batchkernel.cohorts_forked"`
	DiskWrites    uint64 `json:"engine.disk_writes"`
}

// tierCounts are the engine tier counts of a service phase.
type tierCounts struct {
	Requests int    `json:"requests"`
	Hits     uint64 `json:"engine.hits"`
	DiskHits uint64 `json:"engine.disk_hits"`
	Misses   uint64 `json:"engine.misses"`
}

// printCounts prints exact counts on standard output, beside (before)
// the result line.
func printCounts(phase string, v any) {
	b, _ := json.Marshal(v) // plain structs of integers always encode
	fmt.Printf("counts %s %s\n", phase, b)
}

// passResult is the outcome of one cold or warm pass.
type passResult struct {
	wall time.Duration
	// report is the Table 3 report (text and data) on table3, empty
	// elsewhere; results are the per-spec results in spec order.
	report        string
	results       []sim.Result
	resultsDigest string
	digest        string
	counts        workCounts
}

// pass runs the workload's specs once on eng and times it. On table3 the
// pass is experiments.Table3, which also builds the report. With
// collect, the per-spec results are read back from eng afterwards
// (untimed; on table3 these are memory hits) together with the work
// counts.
func (sc *scenario) pass(eng *engine.Engine, collect bool) (passResult, error) {
	var p passResult
	var res []sim.Result
	t0 := time.Now()
	if sc.table3 {
		rep, err := experiments.Table3(experiments.Options{Instructions: table3Insts, Engine: eng})
		if err != nil {
			return p, err
		}
		p.wall = time.Since(t0)
		data, err := json.Marshal(rep.Data)
		if err != nil {
			return p, err
		}
		p.report = rep.Text + string(data)
	} else {
		var err error
		res, err = eng.RunAll(context.Background(), sc.specs, nil)
		if err != nil {
			return p, err
		}
		p.wall = time.Since(t0)
	}
	if !collect && sc.table3 {
		return p, nil
	}
	st := eng.CacheStats()
	if res == nil {
		var err error
		if res, err = eng.RunAll(context.Background(), sc.specs, nil); err != nil {
			return p, err
		}
		if after := eng.CacheStats(); after.Misses != st.Misses || after.DiskHits != st.DiskHits {
			return p, fmt.Errorf("the rebuilt Table 3 specs are not the ones experiments.Table3 ran")
		}
	}
	p.results = res
	p.resultsDigest = digestOf(res)
	p.digest = digestOf(p.report, p.resultsDigest)
	p.counts = workCounts{
		Specs:         st.Misses,
		MemoHits:      st.PowerMemoHits,
		MemoLookups:   st.PowerMemoLookups,
		LanesForked:   st.LanesForked,
		CohortsForked: st.CohortsReformed,
		DiskWrites:    st.DiskWrites,
	}
	for _, r := range res {
		p.counts.SpecCycles += r.Cycles
		p.counts.Violations += r.Violations
	}
	return p, nil
}

// digestOf is the hex SHA-256 of the values' JSON encodings.
func digestOf(vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // results and strings always encode
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest compares the digest of a cold pass's results with the one
// recorded for the workload.
func checkDigest(sc *scenario, got string, chk *checker) {
	want := recordedDigests[sc.name]
	chk.check(got == want, "%s cold pass results digest %s, recorded %s", sc.name, got, want)
}

// liveServer is resonanced's handler served in-process on loopback.
type liveServer struct {
	eng    *engine.Engine
	url    string
	hs     *http.Server
	client *http.Client
	done   chan error
}

func startServer(eng *engine.Engine) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{
		eng:  eng,
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: server.New(server.Options{Engine: eng}).Handler()},
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	return err
}

// post sends one request body and returns the response body.
func (s *liveServer) post(body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return b, nil
}

// expectations holds each spec's request body and the exact response
// line the server must answer it with.
type expectations struct {
	bodies [][]byte
	lines  [][]byte
}

func newExpectations(sc *scenario, results []sim.Result) (*expectations, error) {
	e := &expectations{}
	for i, s := range sc.specs {
		body, line, err := requestAndLine(s, results[i])
		if err != nil {
			return nil, err
		}
		e.bodies = append(e.bodies, body)
		e.lines = append(e.lines, line)
	}
	return e, nil
}

// requestAndLine renders a spec's single-spec request body and the
// NDJSON line that answers it with res.
func requestAndLine(s engine.Spec, res sim.Result) (body, line []byte, err error) {
	w := engine.WireSpec(s)
	body, err = json.Marshal(server.RunRequest{Spec: &w})
	if err != nil {
		return nil, nil, err
	}
	key, err := s.Key()
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(server.RunLine{Key: key.Hex(), Result: &res}); err != nil {
		return nil, nil, err
	}
	return body, buf.Bytes(), nil
}

// body returns the request body of r.
func (e *expectations) body(r request) []byte {
	if r.miss == nil {
		return e.bodies[r.idx]
	}
	w := engine.WireSpec(*r.miss)
	b, err := json.Marshal(server.RunRequest{Spec: &w})
	if err != nil {
		panic(err) // wire specs always encode
	}
	return b
}

// verifyMisses checks each never-seen spec's response against a direct
// simulation of the spec.
func (e *expectations) verifyMisses(ms []answered, chk *checker) {
	for _, m := range ms {
		res, err := engine.Execute(*m.req.miss)
		if !chk.check(err == nil, "direct run of a never-seen spec: %v", err) {
			continue
		}
		_, line, err := requestAndLine(*m.req.miss, res)
		chk.check(err == nil && bytes.Equal(line, m.body), "never-seen spec answered %q, direct run gives %q", m.body, line)
	}
}

// answered is one request with its response.
type answered struct {
	req  request
	body []byte
	err  error
}

// phase is the record of one service phase.
type phase struct {
	reqs      []answered
	lat, late []time.Duration // open loop only
	queued    float64         // mean engine queue depth seen at each send
}

// check verifies every response of the phase; never-seen specs are left
// to verifyMisses.
func (p *phase) check(e *expectations, chk *checker) {
	for i, a := range p.reqs {
		ok := a.err == nil
		if ok && a.req.miss == nil {
			ok = bytes.Equal(a.body, e.lines[a.req.idx])
		}
		if a.req.miss == nil || !ok {
			chk.check(ok, "request %d: err %v, body %q", i, a.err, a.body)
		}
	}
}

// latencies returns the open-loop latencies in milliseconds of every
// request, or with misses of the never-seen-spec requests only; a failed
// request counts as slower than any other.
func (p *phase) latencies(misses bool) []float64 {
	var lat []float64
	for i, d := range p.lat {
		if misses && p.reqs[i].req.miss == nil {
			continue
		}
		l := ms(d)
		if p.reqs[i].err != nil {
			l = math.MaxFloat64
		}
		lat = append(lat, l)
	}
	return lat
}

// append adds q's requests to p.
func (p *phase) append(q *phase) {
	p.reqs = append(p.reqs, q.reqs...)
	p.lat = append(p.lat, q.lat...)
	p.late = append(p.late, q.late...)
}

// missed returns the phase's successful never-seen-spec requests.
func (p *phase) missed() []answered {
	var out []answered
	for _, a := range p.reqs {
		if a.req.miss != nil && a.err == nil {
			out = append(out, a)
		}
	}
	return out
}

// openLoop sends n requests at a fixed offered rate over clients
// connections: request i is due at start + i/rate and goes out on
// connection i mod clients. Latency is timed from the due instant, so a
// stall also counts against the requests queued behind it on the
// connection. The one delay not charged is the generator's own: when the
// connection was idle at the due instant, the time the timer woke late
// (Go's sleep overshoots by up to a millisecond) is reported as
// lateness instead.
func openLoop(srv *liveServer, e *expectations, rs *requestStream, n int, rate float64) *phase {
	p := &phase{reqs: make([]answered, n), lat: make([]time.Duration, n), late: make([]time.Duration, n)}
	for i := range p.reqs {
		p.reqs[i].req = rs.next()
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	queued := make([]int64, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var prevDone time.Time
			for i := w; i < n; i += clients {
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				from := due
				if prevDone.Before(due) {
					from = sent
					p.late[i] = sent.Sub(due)
				}
				queued[w] += int64(srv.eng.Load().Queued)
				a := &p.reqs[i]
				a.body, a.err = srv.post(e.body(a.req))
				prevDone = time.Now()
				p.lat[i] = prevDone.Sub(from)
			}
		}(w)
	}
	wg.Wait()
	var q int64
	for _, v := range queued {
		q += v
	}
	p.queued = float64(q) / float64(max(n, 1))
	return p
}

// closedLoop sends the next n requests of rs, which name only cached
// specs, back to back on clients connections, each connection sending its
// next request when its last one is answered. It checks each response as
// it arrives, keeping none, and returns the wall time and a description
// of every wrong answer.
func closedLoop(srv *liveServer, e *expectations, rs *requestStream, n int) (time.Duration, []string) {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = rs.next()
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		bad  []string
	)
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				body, err := srv.post(e.body(reqs[i]))
				if err != nil || !bytes.Equal(body, e.lines[reqs[i].idx]) {
					mu.Lock()
					bad = append(bad, fmt.Sprintf("spec %d: err %v, body %q", reqs[i].idx, err, body))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), bad
}
