package workload

import (
	"sync"
	"testing"
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
			tr := Materialize(app.Params, insts)
			src := tr.Source()
			if tr.Len() != insts {
				t.Fatalf("trace has %d instructions, want %d", tr.Len(), insts)
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
	tr := Materialize(app.Params, 1_000)
	a, b := tr.Source(), tr.Source()
	for i := 0; i < 500; i++ {
		a.Next()
	}
	first, _ := tr.Source().Next()
	if got, _ := b.Next(); got != first {
		t.Errorf("second cursor perturbed by first: %+v != %+v", got, first)
	}
	a.Reset()
	if got, _ := a.Next(); got != first {
		t.Errorf("reset cursor diverged: %+v != %+v", got, first)
	}
}

// TestStoreCoalescesAndCounts: repeated and concurrent requests for one
// trace materialize it exactly once.
func TestStoreCoalescesAndCounts(t *testing.T) {
	app, err := ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	s := NewTraceStore(0)
	const callers = 16
	var wg sync.WaitGroup
	traces := make([]*Trace, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			traces[i] = s.Get(app.Params, 10_000)
		}(i)
	}
	wg.Wait()
	for i, tr := range traces {
		if tr != traces[0] {
			t.Fatalf("caller %d got a different trace instance", i)
		}
	}
	st := s.Stats()
	if st.Builds != 1 {
		t.Errorf("materialized %d times, want 1", st.Builds)
	}
	if st.Hits != callers-1 {
		t.Errorf("hits = %d, want %d", st.Hits, callers-1)
	}
	if st.Entries != 1 || st.Bytes != traces[0].SizeBytes() {
		t.Errorf("store holds %d entries / %d bytes, want 1 / %d", st.Entries, st.Bytes, traces[0].SizeBytes())
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
		t.Errorf("stats = %+v, want 2 bypasses and an empty store", st)
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
		t.Fatalf("stats after fill = %+v, want 1 eviction, 2 entries", st)
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
		t.Errorf("store not emptied by budget shrink: %+v", st)
	}
}

// replayMatches reports the first instruction at which tr's replay
// differs from the live Generator's n-instruction stream and from
// Materialize(p, n), or -1 when all three agree through the end.
func replayMatches(tr *Trace, p Params, n uint64) int {
	ref := Materialize(p, n)
	gen := NewGenerator(p, n)
	src := tr.Source()
	for i := 0; ; i++ {
		want, wok := gen.Next()
		got, gok := src.Next()
		if wok != gok || wok && (got != want || got != ref.At(i)) {
			return i
		}
		if !wok {
			return -1
		}
	}
}

// TestStoreServesPrefixesAndExtensions: one application requested at
// mixed lengths — shorter, equal, longer, then shorter again — replays
// exactly the stream Materialize and the live Generator produce for each
// length, from one build and one extension. Traces handed out before the
// extension still replay their own prefix afterwards.
func TestStoreServesPrefixesAndExtensions(t *testing.T) {
	app, err := ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	s := NewTraceStore(0)
	lengths := []uint64{4_000, 1_500, 4_000, 9_000, 2_500}
	traces := make([]*Trace, len(lengths))
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
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

// TestStoreOneEntryPerApplication: any number of distinct lengths of one
// application leave one stream, the longest, resident.
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
	if st.Entries != 1 || st.Bytes != 8_000*bytesPerInst {
		t.Errorf("store holds %d entries / %d bytes, want 1 / %d", st.Entries, st.Bytes, 8_000*bytesPerInst)
	}
	if st.Builds != 1 || st.Extensions != 2 || st.Hits != uint64(len(lengths))-3 {
		t.Errorf("stats = %+v, want 1 build, 2 extensions, %d hits", st, len(lengths)-3)
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
	ref := Materialize(app.Params, longest)
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
				src := s.Get(app.Params, uint64(n)).Source()
				for i := 0; i < n; i++ {
					if got, ok := src.Next(); !ok || got != ref.At(i) {
						t.Errorf("worker %d, %d insts: instruction %d is %+v (ok %v), want %+v", w, n, i, got, ok, ref.At(i))
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
	st := s.Stats()
	if st.Entries != 1 || st.Bytes != longest*bytesPerInst || st.Builds != 1 {
		t.Errorf("stats = %+v, want 1 build and one %d-instruction entry", st, longest)
	}
	if got := st.Builds + st.Extensions + st.Hits; got != workers*steps {
		t.Errorf("builds+extensions+hits = %d, want one per request (%d)", got, workers*steps)
	}
}
