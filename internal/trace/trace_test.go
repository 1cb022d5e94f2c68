package trace

import (
	"bytes"
	"testing"

	"repro/internal/cpu"
	"repro/internal/workload"
)

// packed returns a trace cursor over insts.
func packed(insts []cpu.Inst) *cpu.TraceSource {
	meta := make([]uint8, len(insts))
	src1 := make([]uint16, len(insts))
	src2 := make([]uint16, len(insts))
	for i, in := range insts {
		meta[i], src1[i], src2[i] = cpu.PackMeta(in), in.SrcDist1, in.SrcDist2
	}
	return cpu.NewTraceSource(meta, src1, src2)
}

func TestRoundTrip(t *testing.T) {
	app, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	const n = 20_000
	var buf bytes.Buffer
	count, err := Write(&buf, workload.NewGenerator(app.Params, n))
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("wrote %d instructions, want %d", count, n)
	}

	rd, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Len() != n {
		t.Fatalf("read %d instructions, want %d", rd.Len(), n)
	}
	// Replay must match a fresh generation exactly.
	fresh := workload.NewGenerator(app.Params, n)
	for i := 0; i < n; i++ {
		a, okA := rd.Next()
		b, okB := fresh.Next()
		if !okA || !okB || a != b {
			t.Fatalf("instruction %d: replay %+v vs fresh %+v", i, a, b)
		}
	}
	if _, ok := rd.Next(); ok {
		t.Error("reader yielded past the end")
	}
}

func TestReplayOnCoreMatchesGenerator(t *testing.T) {
	app, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	const n = 30_000
	var buf bytes.Buffer
	if _, err := Write(&buf, workload.NewGenerator(app.Params, n)); err != nil {
		t.Fatal(err)
	}
	rd, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	run := func(src cpu.Source) (uint64, uint64) {
		core := cpu.New(cpu.DefaultConfig(), src)
		core.Run(1<<40, cpu.Unlimited)
		return core.Cycle(), core.Committed()
	}
	c1, n1 := run(rd)
	c2, n2 := run(workload.NewGenerator(app.Params, n))
	if c1 != c2 || n1 != n2 {
		t.Errorf("replayed run (%d cycles, %d insts) differs from generated (%d, %d)", c1, n1, c2, n2)
	}
}

func TestReset(t *testing.T) {
	var buf bytes.Buffer
	src := packed([]cpu.Inst{{Class: cpu.IntALU}, {Class: cpu.Load, Mem: cpu.MemL2}})
	if _, err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	rd, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := rd.Next()
	rd.Next()
	if _, ok := rd.Next(); ok {
		t.Fatal("expected exhaustion")
	}
	rd.Reset()
	again, ok := rd.Next()
	if !ok || again != first {
		t.Errorf("reset replay %+v, want %+v", again, first)
	}
}

func TestAllFieldsSurvive(t *testing.T) {
	insts := []cpu.Inst{
		{Class: cpu.Branch, Mispredicted: true, SrcDist1: 1},
		{Class: cpu.Load, Mem: cpu.MemMain, SrcDist1: 65535, SrcDist2: 1234},
		{Class: cpu.FPMul, SrcDist2: 7},
		{Class: cpu.Store, Mem: cpu.MemL2},
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, packed(insts)); err != nil {
		t.Fatal(err)
	}
	rd, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range insts {
		got, ok := rd.Next()
		if !ok || got != want {
			t.Errorf("instruction %d: %+v, want %+v", i, got, want)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("RTI1"),                     // missing count
		append([]byte("RTI1"), 5, 0, 0, 0), // count 5, no records
		append([]byte("RTI1"), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0), // count 2^32-1, one record
		append([]byte("RTI1"), 1, 0, 0, 0, 200, 0, 0, 0, 0, 0, 0),           // bad class
	}
	for i, blob := range cases {
		if _, err := Read(bytes.NewReader(blob)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	count, err := Write(&buf, packed(nil))
	if err != nil || count != 0 {
		t.Fatalf("empty write: count %d err %v", count, err)
	}
	rd, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Len() != 0 {
		t.Errorf("empty stream read %d instructions", rd.Len())
	}
}
