package cpu

import "testing"

// The paired benchmarks below run the frozen scan-based reference
// (scanref_test.go) and the event-driven scheduler on the same repeated
// random stream, so the scheduler rewrite's speedup stays measurable
// apples-to-apples:
//
//	go test -run '^$' -bench 'ScanReference|EventScheduler' ./internal/cpu

// cycling replays a trace endlessly, one Next call per instruction, so a
// benchmark can step any number of cycles.
type cycling struct{ t *TraceSource }

func (c cycling) Next() (Inst, bool) {
	if c.t.pos == c.t.Len() {
		c.t.Reset()
	}
	return c.t.Next()
}

func BenchmarkScanReference(b *testing.B) {
	stream := randomStream(7, 4096)
	c := newScanCore(DefaultConfig(), cycling{packTrace(stream)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Step(Unlimited)
	}
}

func BenchmarkEventScheduler(b *testing.B) {
	stream := randomStream(7, 4096)
	c := New(DefaultConfig(), cycling{packTrace(stream)})
	var act Activity
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.StepInto(Unlimited, &act)
	}
}
