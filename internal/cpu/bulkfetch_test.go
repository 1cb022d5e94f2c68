package cpu

import (
	"math/rand"
	"testing"
)

// randomTrace builds a packed pseudo-trace of n instructions.
func randomTrace(r *rand.Rand, n int) (meta []uint8, src1, src2 []uint16) {
	meta = make([]uint8, n)
	src1 = make([]uint16, n)
	src2 = make([]uint16, n)
	for i := 0; i < n; i++ {
		in := Inst{
			Class:        Class(r.Intn(int(NumClasses))),
			SrcDist1:     uint16(r.Intn(40)),
			SrcDist2:     uint16(r.Intn(40)),
			Mispredicted: r.Intn(20) == 0,
		}
		if in.Class == Load || in.Class == Store {
			in.Mem = MemLevel(r.Intn(3))
		}
		meta[i] = PackMeta(in)
		src1[i] = in.SrcDist1
		src2[i] = in.SrcDist2
	}
	return meta, src1, src2
}

// nextOnly hides a TraceSource's type so a core reads it through Next
// into its fetch ring instead of opening a window on the trace.
type nextOnly struct{ t *TraceSource }

func (n nextOnly) Next() (Inst, bool) { return n.t.Next() }

// TestBulkFetchMatchesScalarFetch runs two cores over the same trace —
// one reading it in place through the trace window, one through the
// Next-filled ring — under a throttle schedule that exercises partial
// fetches, and requires bit-identical per-cycle Activity.
func TestBulkFetchMatchesScalarFetch(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	meta, src1, src2 := randomTrace(r, 20000)
	cfg := DefaultConfig()
	bulk := New(cfg, NewTraceSource(meta, src1, src2))
	scalar := New(cfg, nextOnly{NewTraceSource(meta, src1, src2)})
	if bulk.trace == nil || bulk.fqWrap != 0 || scalar.trace != nil || scalar.fqWrap != cfg.FetchQueue {
		t.Fatalf("test wiring: trace window not selected as intended")
	}
	var actA, actB Activity
	for cyc := 0; ; cyc++ {
		th := Unlimited
		if cyc%13 == 5 {
			th.StallFetch = true
		}
		if cyc%31 == 7 {
			th.StallIssue = true
		}
		bulk.StepInto(th, &actA)
		scalar.StepInto(th, &actB)
		if actA != actB {
			t.Fatalf("cycle %d: bulk activity %+v != scalar %+v", cyc, actA, actB)
		}
		if bulk.Done() != scalar.Done() {
			t.Fatalf("cycle %d: Done diverged", cyc)
		}
		if bulk.Done() {
			break
		}
		if cyc > 1<<20 {
			t.Fatalf("cores did not drain")
		}
	}
	if bulk.Committed() != scalar.Committed() {
		t.Fatalf("committed %d != %d", bulk.Committed(), scalar.Committed())
	}
}
