package workload

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cpu"
)

// TestTraceMatchesGenerator: for every Table 2 application, the
// materialized trace replays the exact instruction sequence the live
// Generator produces — same classes, distances, memory levels, and
// misprediction flags, and the same end of stream.
func TestTraceMatchesGenerator(t *testing.T) {
	const insts = 50_000
	for _, app := range Apps() {
		app := app
		t.Run(app.Params.Name, func(t *testing.T) {
			gen := NewGenerator(app.Params, insts)
			src := Materialize(app.Params, insts)
			if src.Len() != insts {
				t.Fatalf("trace has %d instructions, want %d", src.Len(), insts)
			}
			for i := 0; ; i++ {
				want, wok := gen.Next()
				got, gok := src.Next()
				if wok != gok {
					t.Fatalf("inst %d: stream end mismatch (generator %v, trace %v)", i, wok, gok)
				}
				if !wok {
					break
				}
				if want != got {
					t.Fatalf("inst %d: generator %+v, trace replay %+v", i, want, got)
				}
			}
		})
	}
}

// TestTraceIndependentCursors: two cursors over one trace do not
// interfere, and Reset rewinds to the identical stream.
func TestTraceIndependentCursors(t *testing.T) {
	app, err := ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	s := NewTraceStore(0)
	a, b := s.Get(app.Params, 1_000), s.Get(app.Params, 1_000)
	for i := 0; i < 500; i++ {
		a.Next()
	}
	first, _ := s.Get(app.Params, 1_000).Next()
	if got, _ := b.Next(); got != first {
		t.Errorf("second cursor perturbed by first: %+v != %+v", got, first)
	}
	a.Reset()
	if got, _ := a.Next(); got != first {
		t.Errorf("reset cursor diverged: %+v != %+v", got, first)
	}
}

// TestStoreCoalescesAndCounts: repeated and concurrent requests for one
// trace materialize it exactly once; each caller gets its own cursor.
func TestStoreCoalescesAndCounts(t *testing.T) {
	app, err := ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	s := NewTraceStore(0)
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Get(app.Params, 10_000)
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Builds != 1 {
		t.Errorf("materialized %d times, want 1", st.Builds)
	}
	if st.Hits != callers-1 {
		t.Errorf("hits = %d, want %d", st.Hits, callers-1)
	}
	if st.Entries != 1 || st.Bytes != 10_000*bytesPerInst {
		t.Errorf("store holds %d entries / %d bytes, want 1 / %d", st.Entries, st.Bytes, 10_000*bytesPerInst)
	}
}

// TestStoreBudgetBypass: a stream that alone exceeds the budget is not
// materialized; Source falls back to a live generator with the identical
// stream.
func TestStoreBudgetBypass(t *testing.T) {
	app, err := ByName("lucas")
	if err != nil {
		t.Fatal(err)
	}
	const insts = 10_000
	s := NewTraceStore(insts * bytesPerInst / 2)
	if tr := s.Get(app.Params, insts); tr != nil {
		t.Fatal("over-budget trace was materialized")
	}
	src := s.Source(app.Params, insts)
	if _, isTrace := src.(interface{ Reset() }); isTrace {
		t.Fatal("over-budget Source did not fall back to a generator")
	}
	gen := NewGenerator(app.Params, insts)
	for i := 0; i < insts; i++ {
		want, _ := gen.Next()
		got, ok := src.Next()
		if !ok || want != got {
			t.Fatalf("inst %d: fallback stream diverged (%+v vs %+v)", i, want, got)
		}
	}
	st := s.Stats()
	if st.Bypasses != 2 || st.Builds != 0 || st.Entries != 0 {
		t.Errorf("stats = %s, want 2 bypasses and an empty store", counters(st))
	}
}

// TestStoreLRUEviction: filling the store past its budget evicts the
// least recently used trace, and a shrunken budget evicts immediately.
func TestStoreLRUEviction(t *testing.T) {
	apps := Apps()
	const insts = 1_000
	// Room for exactly two traces.
	s := NewTraceStore(2 * insts * bytesPerInst)
	a, b, c := apps[0].Params, apps[1].Params, apps[2].Params
	s.Get(a, insts)
	s.Get(b, insts)
	s.Get(a, insts) // touch a: b becomes LRU
	s.Get(c, insts) // evicts b
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after fill = %s, want 1 eviction, 2 entries", counters(st))
	}
	if s.Stats().Hits != 1 {
		t.Errorf("hits = %d, want 1 (the re-touch of %s)", st.Hits, a.Name)
	}
	// b was evicted: asking again rebuilds it.
	s.Get(b, insts)
	if st := s.Stats(); st.Builds != 4 {
		t.Errorf("builds = %d, want 4 (b rebuilt after eviction)", st.Builds)
	}
	// Shrinking the budget below one trace empties the store.
	s.SetBudget(insts * bytesPerInst / 2)
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("store not emptied by budget shrink: %s", counters(st))
	}
}

// counters renders every TraceStats field by name, for failure
// messages: %+v on a TraceStats calls its String method, which prints
// only the trace-stats line, where a test store's bytes round to
// resident_mb=0.0.
func counters(st TraceStats) string {
	type fields TraceStats // the same fields without the String method
	return fmt.Sprintf("%+v", fields(st))
}

// replayMatches rewinds src and reports the first instruction at which
// its replay differs from the live Generator's n-instruction stream, or
// -1 when the two agree through the end.
func replayMatches(src *cpu.TraceSource, p Params, n uint64) int {
	src.Reset()
	gen := NewGenerator(p, n)
	for i := 0; ; i++ {
		want, wok := gen.Next()
		got, gok := src.Next()
		if wok != gok || wok && got != want {
			return i
		}
		if !wok {
			return -1
		}
	}
}

// TestStoreServesPrefixesAndExtensions: one application requested at
// mixed lengths — shorter, equal, longer, then shorter again — replays
// exactly the stream the live Generator produces for each length, from
// one build and one extension. Cursors handed out before the extension
// still replay their own prefix afterwards.
func TestStoreServesPrefixesAndExtensions(t *testing.T) {
	app, err := ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	s := NewTraceStore(0)
	lengths := []uint64{4_000, 1_500, 4_000, 9_000, 2_500}
	traces := make([]*cpu.TraceSource, len(lengths))
	for k, n := range lengths {
		traces[k] = s.Get(app.Params, n)
		if at := replayMatches(traces[k], app.Params, n); at >= 0 {
			t.Fatalf("request %d (%d insts): replay diverges at instruction %d", k, n, at)
		}
	}
	for k, n := range lengths {
		if at := replayMatches(traces[k], app.Params, n); at >= 0 {
			t.Errorf("request %d (%d insts) changed after later requests: diverges at %d", k, n, at)
		}
	}
	want := TraceStats{Builds: 1, Extensions: 1, Hits: 3, Entries: 1, Bytes: 9_000 * bytesPerInst}
	if st := s.Stats(); st != want {
		t.Errorf("stats = %s, want %s", counters(st), counters(want))
	}
}

// TestStoreOneEntryPerApplication: any number of distinct lengths of one
// application leave one stream, the longest, resident. The 7,000 request
// grows the 3,000-instruction arrays to exactly 7,000 (twice 3,000 is too
// short); the 8,000 request doubles them to 14,000.
func TestStoreOneEntryPerApplication(t *testing.T) {
	app, err := ByName("lucas")
	if err != nil {
		t.Fatal(err)
	}
	s := NewTraceStore(0)
	lengths := []uint64{3_000, 1_000, 7_000, 5_000, 2_000, 8_000, 6_000, 4_000}
	for _, n := range lengths {
		s.Get(app.Params, n)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Bytes != 14_000*bytesPerInst {
		t.Errorf("store holds %d entries / %d bytes, want 1 / %d", st.Entries, st.Bytes, 14_000*bytesPerInst)
	}
	if st.Builds != 1 || st.Extensions != 2 || st.Hits != uint64(len(lengths))-3 {
		t.Errorf("stats = %s, want 1 build, 2 extensions, %d hits", counters(st), len(lengths)-3)
	}
}

// TestStoreConcurrentPrefixesAndExtensions: goroutines replaying short
// prefixes of one application while others extend its stream all see
// the exact stream, and the store ends with the longest one resident.
func TestStoreConcurrentPrefixesAndExtensions(t *testing.T) {
	app, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const longest, steps, workers = 12_000, 6, 8
	ref := make([]cpu.Inst, longest)
	gen := NewGenerator(app.Params, longest)
	for i := range ref {
		ref[i], _ = gen.Next()
	}
	s := NewTraceStore(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 1; k <= steps; k++ {
				// Even workers lengthen the stream step by step; odd
				// ones replay ever shorter prefixes of it.
				n := k*longest/steps - w
				if w%2 == 1 {
					n = (steps+1-k)*500 + w
				}
				src := s.Get(app.Params, uint64(n))
				for i := 0; i < n; i++ {
					if got, ok := src.Next(); !ok || got != ref[i] {
						t.Errorf("worker %d, %d insts: instruction %d is %+v (ok %v), want %+v", w, n, i, got, ok, ref[i])
						return
					}
				}
				if _, ok := src.Next(); ok {
					t.Errorf("worker %d: replay runs past %d instructions", w, n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Which extension ran first decides how far the arrays grew; Bytes
	// counts exactly their capacity.
	st, en := s.Stats(), s.entries[app.Params]
	if st.Entries != 1 || st.Builds != 1 || len(en.meta) != longest || st.Bytes != en.size() {
		t.Errorf("stats = %s, want 1 build and one %d-instruction entry of %d bytes (%d held)",
			counters(st), longest, en.size(), len(en.meta))
	}
	if got := st.Builds + st.Extensions + st.Hits; got != workers*steps {
		t.Errorf("builds+extensions+hits = %d, want one per request (%d)", got, workers*steps)
	}
}

// TestStoreGrowsGeometrically: requests that each ask for one more
// instruction than the stored stream extend it in place, so its arrays
// grow once, to twice the stream, rather than once per request.
func TestStoreGrowsGeometrically(t *testing.T) {
	app, err := ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	s := NewTraceStore(0)
	s.Get(app.Params, 2_000)
	bytes, grown := s.Stats().Bytes, 0
	for n := uint64(2_001); n <= 4_000; n++ {
		s.Get(app.Params, n)
		if b := s.Stats().Bytes; b != bytes {
			bytes, grown = b, grown+1
		}
	}
	if st := s.Stats(); grown != 1 || st.Bytes != 4_000*bytesPerInst || st.Extensions != 2_000 {
		t.Errorf("resident bytes changed %d times, to %d, over %d extensions; want one change, to %d, over 2000",
			grown, st.Bytes, st.Extensions, 4_000*bytesPerInst)
	}
	if at := replayMatches(s.Get(app.Params, 4_000), app.Params, 4_000); at >= 0 {
		t.Errorf("grown stream diverges at instruction %d", at)
	}
}

// TestStoreBuildPanicReleasesEntry: a build that panics (invalid Params)
// leaves no entry behind, so a second, longer request for the same
// application panics again instead of waiting for the first build
// forever, the store counts no entry and no bytes, and other
// applications in it still serve.
func TestStoreBuildPanicReleasesEntry(t *testing.T) {
	s := NewTraceStore(0)
	bad := Params{Name: "bad"}
	// get fails the test unless Get(bad, n) panics within 10 s.
	get := func(n uint64) {
		t.Helper()
		panicked := make(chan bool, 1)
		go func() {
			defer func() { panicked <- recover() != nil }()
			s.Get(bad, n)
		}()
		select {
		case p := <-panicked:
			if !p {
				t.Fatalf("Get(%q, %d) returned, want a panic", bad.Name, n)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Get(%q, %d) still blocked after 10s: the failed build left its entry busy", bad.Name, n)
		}
	}
	get(100)
	get(200)
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats after two failed builds = %s, want no entries and no bytes", counters(st))
	}
	app, err := ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	if at := replayMatches(s.Get(app.Params, 1_000), app.Params, 1_000); at >= 0 {
		t.Errorf("a valid application's replay diverges at instruction %d", at)
	}
	if st := s.Stats(); st.Entries != 1 || st.Bytes != 1_000*bytesPerInst {
		t.Errorf("stats after a valid build = %s, want one entry of %d bytes", counters(st), 1_000*bytesPerInst)
	}
}
