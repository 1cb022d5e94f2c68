package cpu

import (
	"math"
	"testing"
)

// repeatTrace packs n instructions that cycle through pattern.
func repeatTrace(pattern []Inst, n uint64) *TraceSource {
	s := make([]Inst, n)
	for i := range s {
		s[i] = pattern[i%len(pattern)]
	}
	return packTrace(s)
}

// runIPC executes n instructions of the given repeating pattern and
// returns the achieved IPC.
func runIPC(t *testing.T, pattern []Inst, n uint64, th Throttle) float64 {
	t.Helper()
	core := New(DefaultConfig(), repeatTrace(pattern, n))
	cycles := core.Run(n*200+10_000, th)
	if !core.Done() {
		t.Fatalf("core did not drain after %d cycles (committed %d/%d)", cycles, core.Committed(), n)
	}
	if core.Committed() != n {
		t.Fatalf("committed %d, want %d", core.Committed(), n)
	}
	return float64(n) / float64(cycles)
}

func TestIndependentALUSaturatesIssueWidth(t *testing.T) {
	ipc := runIPC(t, []Inst{{Class: IntALU}}, 20_000, Unlimited)
	if ipc < 7.5 || ipc > 8.0 {
		t.Errorf("independent IntALU IPC = %.2f, want ≈ 8", ipc)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	ipc := runIPC(t, []Inst{{Class: IntALU, SrcDist1: 1}}, 5_000, Unlimited)
	if math.Abs(ipc-1) > 0.1 {
		t.Errorf("dependent chain IPC = %.2f, want ≈ 1", ipc)
	}
}

func TestLoadLatencySerialization(t *testing.T) {
	cases := []struct {
		level MemLevel
		want  float64
	}{
		{MemL1, 1.0 / 2},
		{MemL2, 1.0 / 12},
		{MemMain, 1.0 / 80},
	}
	for _, tc := range cases {
		t.Run(tc.level.String(), func(t *testing.T) {
			ipc := runIPC(t, []Inst{{Class: Load, SrcDist1: 1, Mem: tc.level}}, 2_000, Unlimited)
			if math.Abs(ipc-tc.want)/tc.want > 0.1 {
				t.Errorf("dependent %s load IPC = %.4f, want ≈ %.4f", tc.level, ipc, tc.want)
			}
		})
	}
}

func TestCachePortsLimitLoads(t *testing.T) {
	// Independent loads are bounded by the two L1 ports.
	ipc := runIPC(t, []Inst{{Class: Load, Mem: MemL1}}, 10_000, Unlimited)
	if math.Abs(ipc-2) > 0.2 {
		t.Errorf("independent load IPC = %.2f, want ≈ 2 (two ports)", ipc)
	}
	// Throttling to one port halves it.
	ipc = runIPC(t, []Inst{{Class: Load, Mem: MemL1}}, 10_000, Throttle{CachePorts: 1, IssueCurrentBudget: -1})
	if math.Abs(ipc-1) > 0.15 {
		t.Errorf("one-port load IPC = %.2f, want ≈ 1", ipc)
	}
}

func TestIssueWidthThrottle(t *testing.T) {
	ipc := runIPC(t, []Inst{{Class: IntALU}}, 20_000, Throttle{IssueWidth: 4, IssueCurrentBudget: -1})
	if math.Abs(ipc-4) > 0.3 {
		t.Errorf("width-4 IPC = %.2f, want ≈ 4", ipc)
	}
	// A throttle wider than the machine changes nothing.
	ipc = runIPC(t, []Inst{{Class: IntALU}}, 20_000, Throttle{IssueWidth: 64, IssueCurrentBudget: -1})
	if ipc < 7.5 {
		t.Errorf("width-64 throttle IPC = %.2f, want ≈ 8", ipc)
	}
}

func TestFunctionalUnitLimits(t *testing.T) {
	// Independent integer multiplies bound by the 2 multipliers.
	ipc := runIPC(t, []Inst{{Class: IntMul}}, 10_000, Unlimited)
	if math.Abs(ipc-2) > 0.2 {
		t.Errorf("IntMul IPC = %.2f, want ≈ 2", ipc)
	}
	// FP adds bound by the 4 FP ALUs.
	ipc = runIPC(t, []Inst{{Class: FPALU}}, 10_000, Unlimited)
	if math.Abs(ipc-4) > 0.3 {
		t.Errorf("FPALU IPC = %.2f, want ≈ 4", ipc)
	}
}

func TestStallIssueFreezesPipeline(t *testing.T) {
	core := New(DefaultConfig(), repeatTrace([]Inst{{Class: IntALU}}, 100_000))
	stall := Throttle{StallIssue: true, IssueCurrentBudget: -1}
	for i := 0; i < 1000; i++ {
		core.Step(stall)
	}
	if core.Committed() != 0 {
		t.Errorf("committed %d instructions under issue stall, want 0", core.Committed())
	}
	// The window fills to the issue-queue capacity (nothing ever
	// issues, so dispatch stops there) and no further.
	act := core.Step(stall)
	if act.IQOccupancy != DefaultConfig().IQSize {
		t.Errorf("IQ occupancy %d under stall, want full %d", act.IQOccupancy, DefaultConfig().IQSize)
	}
	// Releasing the stall lets the machine catch up.
	for i := 0; i < 100; i++ {
		core.Step(Unlimited)
	}
	if core.Committed() == 0 {
		t.Error("no instructions committed after stall released")
	}
}

func TestStallFetchStarvesFrontend(t *testing.T) {
	core := New(DefaultConfig(), repeatTrace([]Inst{{Class: IntALU}}, 100_000))
	for i := 0; i < 50; i++ {
		core.Step(Unlimited)
	}
	before := core.Fetched()
	for i := 0; i < 100; i++ {
		act := core.Step(Throttle{StallFetch: true, IssueCurrentBudget: -1})
		if act.Fetched != 0 {
			t.Fatalf("fetched %d under fetch stall", act.Fetched)
		}
	}
	if core.Fetched() != before {
		t.Errorf("fetch count moved under stall: %d → %d", before, core.Fetched())
	}
	// Pipeline drains the in-flight instructions meanwhile.
	if core.Committed() == 0 {
		t.Error("backend should keep committing while fetch stalls")
	}
}

func TestMispredictedBranchesCostCycles(t *testing.T) {
	clean := []Inst{{Class: IntALU}, {Class: IntALU}, {Class: IntALU}, {Class: Branch}}
	dirty := []Inst{{Class: IntALU}, {Class: IntALU}, {Class: IntALU}, {Class: Branch, Mispredicted: true}}
	ipcClean := runIPC(t, clean, 20_000, Unlimited)
	ipcDirty := runIPC(t, dirty, 20_000, Unlimited)
	if ipcDirty >= ipcClean/2 {
		t.Errorf("mispredicts too cheap: clean IPC %.2f, dirty IPC %.2f", ipcClean, ipcDirty)
	}
	if ipcDirty < 0.2 {
		t.Errorf("mispredicts too expensive: dirty IPC %.2f", ipcDirty)
	}
}

func TestIssueCurrentBudgetLimitsIssue(t *testing.T) {
	core := New(DefaultConfig(), repeatTrace([]Inst{{Class: IntALU}}, 50_000))
	var est [NumClasses]float64
	est[IntALU] = 1.0
	core.SetClassCurrentEstimates(est)
	if got := core.ClassCurrentEstimates(); got[IntALU] != 1.0 {
		t.Fatalf("estimates not installed: %v", got)
	}
	// Warm the pipeline, then check the cap.
	for i := 0; i < 20; i++ {
		core.Step(Unlimited)
	}
	for i := 0; i < 200; i++ {
		act := core.Step(Throttle{IssueCurrentBudget: 3.0})
		if act.IssuedTotal > 3 {
			t.Fatalf("issued %d ops with budget for 3", act.IssuedTotal)
		}
	}
	// Zero budget means no issue at all.
	act := core.Step(Throttle{IssueCurrentBudget: 0})
	if act.IssuedTotal != 0 {
		t.Errorf("issued %d ops with zero budget", act.IssuedTotal)
	}
}

func TestStoresConsumePortsAtCommit(t *testing.T) {
	// Independent stores: bounded by ports shared between issue (loads)
	// and commit (stores). With 2 ports and stores only, commit sustains
	// at most 2 stores/cycle.
	ipc := runIPC(t, []Inst{{Class: Store, Mem: MemL1}}, 10_000, Unlimited)
	if ipc > 2.1 {
		t.Errorf("store IPC %.2f exceeds port bound 2", ipc)
	}
}

func TestActivityAccounting(t *testing.T) {
	pattern := []Inst{
		{Class: Load, Mem: MemMain},
		{Class: IntALU},
		{Class: Store, Mem: MemL1},
		{Class: Branch},
	}
	const n = 4_000
	core := New(DefaultConfig(), repeatTrace(pattern, n))
	var sum Activity
	for !core.Done() {
		act := core.Step(Unlimited)
		sum.Fetched += act.Fetched
		sum.Dispatched += act.Dispatched
		sum.Committed += act.Committed
		sum.IssuedTotal += act.IssuedTotal
		sum.L1D += act.L1D
		sum.L2 += act.L2
		sum.Mem += act.Mem
		sum.BranchesResolved += act.BranchesResolved
	}
	if sum.Fetched != n || sum.Dispatched != n || sum.Committed != n || sum.IssuedTotal != n {
		t.Errorf("counts fetched/dispatched/committed/issued = %d/%d/%d/%d, want all %d",
			sum.Fetched, sum.Dispatched, sum.Committed, sum.IssuedTotal, n)
	}
	// Every load and store touches L1D; every main-memory load touches
	// L2 and memory.
	if sum.L1D != n/2 {
		t.Errorf("L1D accesses %d, want %d", sum.L1D, n/2)
	}
	if sum.L2 != n/4 || sum.Mem != n/4 {
		t.Errorf("L2/Mem accesses %d/%d, want %d/%d", sum.L2, sum.Mem, n/4, n/4)
	}
	if sum.BranchesResolved != n/4 {
		t.Errorf("branches resolved %d, want %d", sum.BranchesResolved, n/4)
	}
}

func TestROBNeverExceedsCapacity(t *testing.T) {
	// A long-latency dependent head blocks commit and fills the ROB.
	pattern := []Inst{{Class: Load, SrcDist1: 1, Mem: MemMain}, {Class: IntALU}}
	core := New(DefaultConfig(), repeatTrace(pattern, 50_000))
	for i := 0; i < 5_000; i++ {
		act := core.Step(Unlimited)
		if act.ROBOccupancy > DefaultConfig().ROBSize {
			t.Fatalf("ROB occupancy %d exceeds capacity", act.ROBOccupancy)
		}
		if act.IQOccupancy > DefaultConfig().IQSize {
			t.Fatalf("IQ occupancy %d exceeds capacity", act.IQOccupancy)
		}
	}
}

func TestDoneAndDrain(t *testing.T) {
	core := New(DefaultConfig(), packTrace([]Inst{{Class: IntALU}, {Class: IntALU, SrcDist1: 1}}))
	if core.Done() {
		t.Fatal("fresh core with pending stream reports Done")
	}
	core.Run(1_000, Unlimited)
	if !core.Done() {
		t.Fatal("core did not drain a 2-instruction stream")
	}
	if core.Committed() != 2 {
		t.Errorf("committed %d, want 2", core.Committed())
	}
	// Stepping a drained core is harmless.
	act := core.Step(Unlimited)
	if act.Committed != 0 || act.Fetched != 0 {
		t.Error("drained core still produced activity")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config did not panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.ROBSize = 0
	New(cfg, packTrace(nil))
}

func TestIPCZeroBeforeRun(t *testing.T) {
	core := New(DefaultConfig(), packTrace(nil))
	if core.IPC() != 0 {
		t.Error("IPC before any cycle should be 0")
	}
}

func TestConfigValidateCases(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.IQSize = -1 },
		func(c *Config) { c.IntALUs = 0 },
		func(c *Config) { c.CachePorts = 0 },
		func(c *Config) { c.IntALULat = 0 },
		func(c *Config) { c.L2Lat = 1 }, // below L1
		func(c *Config) { c.MemLat = 5 },
		func(c *Config) { c.MispredictPenalty = -1 },
	}
	for i, m := range mutations {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestClassAndMemLevelStrings(t *testing.T) {
	names := map[string]bool{}
	for cl := Class(0); cl < NumClasses; cl++ {
		s := cl.String()
		if s == "" || s == "unknown" {
			t.Errorf("class %d has no name", cl)
		}
		if names[s] {
			t.Errorf("duplicate class name %q", s)
		}
		names[s] = true
	}
	if Class(200).String() != "unknown" {
		t.Error("out-of-range class should be unknown")
	}
	for _, lvl := range []MemLevel{MemL1, MemL2, MemMain} {
		if lvl.String() == "unknown" {
			t.Errorf("level %d has no name", lvl)
		}
	}
	if MemLevel(9).String() != "unknown" {
		t.Error("out-of-range level should be unknown")
	}
}
