package sim

// Machine.Fork's bit-identity contract: fork at any cycle, step the
// original and the clone to completion under identical (throttle,
// phantom) sequences, and both must produce identical per-cycle
// Observations (with the Activity buffer) and final Results — and the
// fork must not perturb the original, which is why the checks run the
// two machines interleaved against an undisturbed reference run. The
// deterministic matrix covers both supply models, sensor delay and
// quantisation, and the live RNG-driven generator source, plus a
// recorded stream read back by trace.Read; the fuzz target randomizes
// seed, fork cycle, and configuration.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// forkMaxDomains bounds the flattened per-domain view; configs in this
// file stay within it.
const forkMaxDomains = 4

// forkObs is one cycle's Observation flattened for value comparison:
// the buffer pointers (Activity, PerDomain) are replaced with value
// copies so == compares the cycle's data, not buffer identity.
type forkObs struct {
	obs    Observation
	act    cpu.Activity
	nd     int
	sensed [forkMaxDomains]float64
	amps   [forkMaxDomains]float64
	devs   [forkMaxDomains]float64
}

func flatObs(o *Observation) forkObs {
	rec := forkObs{obs: *o, act: *o.Activity}
	rec.obs.Activity = nil
	if pd := o.PerDomain; pd != nil {
		rec.obs.PerDomain = nil
		rec.nd = len(pd.SensedAmps)
		copy(rec.sensed[:], pd.SensedAmps)
		copy(rec.amps[:], pd.Amps)
		copy(rec.devs[:], pd.DeviationVolts)
	}
	return rec
}

// forkSchedule is a pure function of the cycle number, so every machine
// in a comparison sees the same control inputs: a periodic throttle
// phase and an occasional phantom firing, enough to exercise the issue
// logic, the phantom energy accounting, and the supply under different
// waveforms.
func forkSchedule(cycle uint64) (cpu.Throttle, Phantom) {
	th := cpu.Unlimited
	if cycle/64%2 == 1 {
		th = cpu.Throttle{IssueWidth: 4, CachePorts: 1, IssueCurrentBudget: -1}
	}
	var ph Phantom
	if cycle%97 == 13 {
		ph.FireAmps = 20
	}
	return th, ph
}

// swimParams returns swim's stream parameters under the given seed.
func swimParams(t testing.TB, seed uint64) workload.Params {
	t.Helper()
	app, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	p := app.Params
	p.Seed = seed
	return p
}

// swimStream returns a constructor of swim's live generator stream.
func swimStream(t testing.TB, seed, insts uint64) func() cpu.Source {
	p := swimParams(t, seed)
	return func() cpu.Source { return workload.NewGenerator(p, insts) }
}

// forkMachine builds one machine over the given config and source.
func forkMachine(t testing.TB, cfg Config, src cpu.Source) *Machine {
	t.Helper()
	m, err := NewMachine(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runForkContract runs the contract for one (config, stream, forkCycle)
// point: a reference machine records the undisturbed stream; a second
// machine forks at forkCycle, and the pair then advances interleaved —
// one cycle each, so any state secretly shared between them corrupts at
// least one stream — with every cycle compared against the reference.
// stream returns a fresh source of the same instructions on each call.
func runForkContract(t testing.TB, cfg Config, stream func() cpu.Source, forkCycle uint64) {
	t.Helper()

	ref := forkMachine(t, cfg, stream())
	var refRecs []forkObs
	limit := ref.CycleLimit()
	for !ref.Done() && ref.Cycles() < limit {
		th, ph := forkSchedule(ref.Cycles())
		refRecs = append(refRecs, flatObs(ref.Step(th, ph)))
	}
	refRes := ref.Result("swim", "forktest")

	m := forkMachine(t, cfg, stream())
	for m.Cycles() < forkCycle && !m.Done() && m.Cycles() < limit {
		th, ph := forkSchedule(m.Cycles())
		got := flatObs(m.Step(th, ph))
		if want := refRecs[got.obs.Cycle]; got != want {
			t.Fatalf("pre-fork cycle %d: %+v != reference %+v", got.obs.Cycle, got, want)
		}
	}
	f, err := m.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if f.Cycles() != m.Cycles() {
		t.Fatalf("fork at cycle %d reports %d", m.Cycles(), f.Cycles())
	}

	step := func(mm *Machine, label string) {
		if mm.Done() || mm.Cycles() >= limit {
			return
		}
		th, ph := forkSchedule(mm.Cycles())
		got := flatObs(mm.Step(th, ph))
		if int(got.obs.Cycle) >= len(refRecs) {
			t.Fatalf("%s: cycle %d past reference end (%d)", label, got.obs.Cycle, len(refRecs))
		}
		if want := refRecs[got.obs.Cycle]; got != want {
			t.Fatalf("%s: cycle %d: %+v != reference %+v", label, got.obs.Cycle, got, want)
		}
	}
	for (!m.Done() && m.Cycles() < limit) || (!f.Done() && f.Cycles() < limit) {
		step(m, "original")
		step(f, "fork")
	}

	if mRes := m.Result("swim", "forktest"); mRes != refRes {
		t.Fatalf("original result %+v != reference %+v", mRes, refRes)
	}
	if fRes := f.Result("swim", "forktest"); fRes != refRes {
		t.Fatalf("fork result %+v != reference %+v", fRes, refRes)
	}
}

// forkConfigs is the deterministic configuration matrix: the default
// single-stage supply, the two-stage supply with a delayed sensor (the
// sensor history must travel with the fork), a quantised capped run, and
// the two-domain PDN with delayed per-rail sensors (the network state,
// per-domain power rings, and sensor bank must all travel with the
// fork).
func forkConfigs() map[string]Config {
	twoStage := DefaultConfig()
	twoStage.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkTwoStage}
	twoStage.SensorDelayCycles = 3
	quantized := DefaultConfig()
	quantized.SensorResolutionAmps = 2
	quantized.MaxCycles = 2500
	multi := DefaultConfig()
	multi.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain}
	multi.SensorDelayCycles = 2
	multi.MaxCycles = 2500
	return map[string]Config{
		"default":            DefaultConfig(),
		"twostage-delay3":    twoStage,
		"quantized":          quantized,
		"multidomain-delay2": multi,
	}
}

func TestMachineForkBitIdentical(t *testing.T) {
	for name, cfg := range forkConfigs() {
		for _, forkCycle := range []uint64{0, 1, 127, 1000} {
			t.Run(fmt.Sprintf("%s/fork%d", name, forkCycle), func(t *testing.T) {
				runForkContract(t, cfg, swimStream(t, 42, 4000), forkCycle)
			})
		}
	}
}

// TestMachineForkRecordedTrace runs the contract on a machine fed by a
// recorded stream: trace.Read's source must fork like a stored trace.
func TestMachineForkRecordedTrace(t *testing.T) {
	var rec bytes.Buffer
	if _, err := trace.Write(&rec, workload.NewGenerator(swimParams(t, 42), 4000)); err != nil {
		t.Fatal(err)
	}
	stream := func() cpu.Source {
		src, err := trace.Read(bytes.NewReader(rec.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	for _, forkCycle := range []uint64{0, 1000} {
		t.Run(fmt.Sprintf("fork%d", forkCycle), func(t *testing.T) {
			runForkContract(t, DefaultConfig(), stream, forkCycle)
		})
	}
}

// TestMachineForkOfFork chains forks: a fork must itself be forkable
// with the same contract, since the batch kernel re-splits cohorts that
// already live on forked machines.
func TestMachineForkOfFork(t *testing.T) {
	stream := swimStream(t, 7, 4000)
	ref := forkMachine(t, DefaultConfig(), stream())
	var refRecs []forkObs
	limit := ref.CycleLimit()
	for !ref.Done() && ref.Cycles() < limit {
		th, ph := forkSchedule(ref.Cycles())
		refRecs = append(refRecs, flatObs(ref.Step(th, ph)))
	}

	m := forkMachine(t, DefaultConfig(), stream())
	machines := []*Machine{m}
	for !allDone(machines, limit) {
		for _, mm := range machines {
			if mm.Done() || mm.Cycles() >= limit {
				continue
			}
			th, ph := forkSchedule(mm.Cycles())
			got := flatObs(mm.Step(th, ph))
			if want := refRecs[got.obs.Cycle]; got != want {
				t.Fatalf("cycle %d: %+v != reference %+v", got.obs.Cycle, got, want)
			}
		}
		// Fork the newest machine at a few depths: original at 100,
		// fork-of-original at 200, fork-of-fork at 300.
		if n := len(machines); n < 4 && machines[n-1].Cycles() >= uint64(n*100) {
			f, err := machines[n-1].Fork()
			if err != nil {
				t.Fatal(err)
			}
			machines = append(machines, f)
		}
	}
	if len(machines) != 4 {
		t.Fatalf("chained %d machines, want 4", len(machines))
	}
}

func allDone(ms []*Machine, limit uint64) bool {
	for _, m := range ms {
		if !m.Done() && m.Cycles() < limit {
			return false
		}
	}
	return true
}

// FuzzMachineFork randomizes the seed, the fork cycle, and the system
// configuration, and requires the full bit-identity contract at every
// point.
func FuzzMachineFork(f *testing.F) {
	f.Add(uint64(1), uint64(50), false, uint8(0), false, false)
	f.Add(uint64(424242), uint64(0), true, uint8(2), true, false)
	f.Add(uint64(7), uint64(2000), true, uint8(5), false, false)
	f.Add(uint64(99), uint64(313), false, uint8(1), true, false)
	f.Add(uint64(11), uint64(500), false, uint8(3), false, true)
	f.Add(uint64(271828), uint64(64), false, uint8(0), true, true)
	f.Fuzz(func(t *testing.T, seed, forkCycle uint64, twoStage bool, delay uint8, quantize, multiDomain bool) {
		cfg := DefaultConfig()
		switch {
		case multiDomain:
			cfg.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkMultiDomain}
			cfg.SensorDomain = int(delay % 3) // 0 aggregate, 1-2 a rail
		case twoStage:
			cfg.PDN = &circuit.NetworkConfig{Kind: circuit.NetworkTwoStage}
		}
		cfg.SensorDelayCycles = int(delay % 8)
		if quantize {
			cfg.SensorResolutionAmps = 2
		}
		cfg.MaxCycles = 3000
		runForkContract(t, cfg, swimStream(t, seed, 4000), forkCycle%3000)
	})
}

// machineAllocBudget bounds what building a machine, or forking one, may
// allocate. Either costs the machine's live state, about ten kilobytes
// on the Table 1 core; the bound leaves room for that to grow but fails
// on any per-machine table of megabyte size.
const machineAllocBudget = 256 << 10

// allocatedBy returns the bytes the process allocated while f ran. The
// count is process-wide, so tests using it must not run in parallel.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMachineAllocationsBounded: a Table 1 lumped machine on a
// materialized swim trace, and a fork of it 1000 cycles in, each
// allocate less than machineAllocBudget.
func TestMachineAllocationsBounded(t *testing.T) {
	app, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	src := workload.Materialize(app.Params, 20_000)
	var m *Machine
	if n := allocatedBy(func() { m, err = NewMachine(DefaultConfig(), src) }); n >= machineAllocBudget {
		t.Errorf("NewMachine allocated %d B, want < %d", n, machineAllocBudget)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		m.Step(cpu.Unlimited, Phantom{})
	}
	if n := allocatedBy(func() { _, err = m.Fork() }); n >= machineAllocBudget {
		t.Errorf("Fork allocated %d B, want < %d", n, machineAllocBudget)
	}
	if err != nil {
		t.Fatal(err)
	}
}
