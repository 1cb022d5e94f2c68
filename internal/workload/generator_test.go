package workload

import (
	"math"
	"testing"

	"repro/internal/cpu"
)

func steadyParams() Params {
	return Params{
		Name: "test", Seed: 1,
		Mix:     intMix(0.25, 0.10, 0.12),
		DepProb: 0.8, DepMean: 3, Dep2Frac: 0.3,
		MispredictRate: 0.02, L1MissRate: 0.05, L2MissRate: 0.2,
	}
}

func TestGeneratorHonoursLimit(t *testing.T) {
	g := NewGenerator(steadyParams(), 1000)
	n := 0
	for {
		_, ok := g.Next()
		if !ok {
			break
		}
		n++
		if n > 1000 {
			t.Fatal("generator exceeded its limit")
		}
	}
	if n != 1000 {
		t.Errorf("generated %d instructions, want 1000", n)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(steadyParams(), 5000)
	b := NewGenerator(steadyParams(), 5000)
	for i := 0; i < 5000; i++ {
		x, okx := a.Next()
		y, oky := b.Next()
		if okx != oky || x != y {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, x, y)
		}
	}
}

func TestGeneratorMixMatchesRequest(t *testing.T) {
	p := steadyParams()
	g := NewGenerator(p, 200_000)
	var counts [cpu.NumClasses]int
	for {
		in, ok := g.Next()
		if !ok {
			break
		}
		counts[in.Class]++
	}
	frac := func(cl cpu.Class) float64 { return float64(counts[cl]) / 200_000 }
	if math.Abs(frac(cpu.Load)-0.25) > 0.01 {
		t.Errorf("load fraction %g, want ≈ 0.25", frac(cpu.Load))
	}
	if math.Abs(frac(cpu.Store)-0.10) > 0.01 {
		t.Errorf("store fraction %g, want ≈ 0.10", frac(cpu.Store))
	}
	if math.Abs(frac(cpu.Branch)-0.12) > 0.01 {
		t.Errorf("branch fraction %g, want ≈ 0.12", frac(cpu.Branch))
	}
	// intMix splits the rest 92/8 between ALU and multiply.
	if counts[cpu.FPALU] != 0 || counts[cpu.FPMul] != 0 {
		t.Error("integer mix produced FP instructions")
	}
}

func TestGeneratorRates(t *testing.T) {
	p := steadyParams()
	g := NewGenerator(p, 300_000)
	var branches, mispred, mem, l1miss, l2miss, deps, dep2 int
	for {
		in, ok := g.Next()
		if !ok {
			break
		}
		switch in.Class {
		case cpu.Branch:
			branches++
			if in.Mispredicted {
				mispred++
			}
		case cpu.Load, cpu.Store:
			mem++
			if in.Mem != cpu.MemL1 {
				l1miss++
			}
			if in.Mem == cpu.MemMain {
				l2miss++
			}
		}
		if in.SrcDist1 != 0 {
			deps++
		}
		if in.SrcDist2 != 0 {
			dep2++
		}
	}
	if r := float64(mispred) / float64(branches); math.Abs(r-0.02) > 0.005 {
		t.Errorf("mispredict rate %g, want ≈ 0.02", r)
	}
	if r := float64(l1miss) / float64(mem); math.Abs(r-0.05) > 0.01 {
		t.Errorf("L1 miss rate %g, want ≈ 0.05", r)
	}
	if r := float64(l2miss) / float64(l1miss); math.Abs(r-0.2) > 0.05 {
		t.Errorf("L2 miss rate %g, want ≈ 0.2", r)
	}
	if r := float64(deps) / 300_000; math.Abs(r-0.8) > 0.02 {
		t.Errorf("dependency rate %g, want ≈ 0.8", r)
	}
	if dep2 == 0 || dep2 >= deps {
		t.Errorf("second-dependency count %d implausible vs %d", dep2, deps)
	}
}

func TestBurstOscillationStructure(t *testing.T) {
	p := steadyParams()
	// Disable dependencies and misses in the steady mix so a chained
	// L2 load can only come from the stall phase.
	p.DepProb = 0
	p.L1MissRate = 0
	p.Burst = Burst{
		Enabled: true, BurstInsts: 100, StallMisses: 8,
		StallLevel: cpu.MemL2, JitterFrac: 0,
	}
	g := NewGenerator(p, 10_000)
	// Expect a strict alternation: 100 steady, 8 chained loads, ...
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < 100; i++ {
			in, ok := g.Next()
			if !ok {
				t.Fatal("stream ended early")
			}
			if in.Class == cpu.Load && in.Mem == cpu.MemL2 && in.SrcDist1 == 1 {
				t.Fatalf("rep %d pos %d: stall-chain load inside burst", rep, i)
			}
		}
		for i := 0; i < 8; i++ {
			in, _ := g.Next()
			if in.Class != cpu.Load || in.SrcDist1 != 1 || in.Mem != cpu.MemL2 {
				t.Fatalf("rep %d stall pos %d: got %+v, want chained L2 load", rep, i, in)
			}
		}
	}
}

func TestEpisodeBurstsAreCoherent(t *testing.T) {
	p := steadyParams()
	p.Burst = Burst{
		Enabled: true, BurstInsts: 100, StallMisses: 8, StallLevel: cpu.MemL2,
		JitterFrac: 0.2, EpisodeProb: 1, EpisodeLen: 3,
		EpisodeBurstInsts: 50, EpisodeStallMisses: 4, EpisodeILP: true,
	}
	g := NewGenerator(p, 400)
	// With probability 1 the very first burst is an episode burst of
	// exactly 50 dependency-free instructions.
	for i := 0; i < 50; i++ {
		in, _ := g.Next()
		if in.SrcDist1 != 0 || in.SrcDist2 != 0 {
			t.Fatalf("episode instruction %d carries dependencies: %+v", i, in)
		}
		if in.Class == cpu.Branch && in.Mispredicted {
			t.Fatalf("episode instruction %d is a mispredicted branch", i)
		}
	}
	// Episode stall: 4 chained loads then the barrier branch.
	for i := 0; i < 4; i++ {
		in, _ := g.Next()
		if in.Class != cpu.Load || in.SrcDist1 != 1 {
			t.Fatalf("episode stall %d: got %+v", i, in)
		}
	}
	in, _ := g.Next()
	if in.Class != cpu.Branch || !in.Mispredicted || in.SrcDist1 != 1 {
		t.Fatalf("episode barrier: got %+v, want dependent mispredicted branch", in)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.Name = "" },
		func(p *Params) { p.Mix = Mix{} },
		func(p *Params) { p.Mix.Load = -1 },
		func(p *Params) { p.DepProb = 1.5 },
		func(p *Params) { p.DepProb = 0.5; p.DepMean = 0.5 },
		func(p *Params) { p.Dep2Frac = -0.1 },
		func(p *Params) { p.MispredictRate = 2 },
		func(p *Params) { p.L1MissRate = -0.1 },
		func(p *Params) { p.L2MissRate = 1.1 },
		func(p *Params) { p.Burst = Burst{Enabled: true} },
		func(p *Params) { p.Burst = Burst{Enabled: true, BurstInsts: 10, StallMisses: 1, JitterFrac: 1} },
		func(p *Params) { p.Burst = Burst{Enabled: true, BurstInsts: 10, StallMisses: 1, EpisodeProb: 2} },
		func(p *Params) { p.Burst = Burst{Enabled: true, BurstInsts: 10, StallMisses: 1, EpisodeProb: 0.1} },
	}
	for i, mutate := range bad {
		p := steadyParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := steadyParams().Validate(); err != nil {
		t.Errorf("good params rejected: %v", err)
	}
}

func TestNewGeneratorPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGenerator(Params{}, 10)
}

// TestPrefixDeterminism: for every application, the first n
// instructions of a longer run are identical to an n-instruction run —
// the phase and episode state must not depend on the budget. The trace
// store relies on this to serve every run length as a prefix of one
// stream per application.
func TestPrefixDeterminism(t *testing.T) {
	for _, a := range Apps() {
		short := NewGenerator(a.Params, 5_000)
		long := NewGenerator(a.Params, 50_000)
		for i := 0; i < 5_000; i++ {
			x, okX := short.Next()
			y, okY := long.Next()
			if !okX || !okY || x != y {
				t.Fatalf("%s: instruction %d differs between budgets", a.Params.Name, i)
			}
		}
	}
}

// TestEpisodeCadenceIsDeterministic: two generators of the same app enter
// episodes at exactly the same instruction offsets.
func TestEpisodeCadenceIsDeterministic(t *testing.T) {
	a, err := ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	record := func() []int {
		g := NewGenerator(a.Params, 400_000)
		var offsets []int
		prevBarrier := false
		for i := 0; ; i++ {
			in, ok := g.Next()
			if !ok {
				break
			}
			// Episode stalls end with a mispredicted barrier branch;
			// record each one as an episode marker.
			isBarrier := in.Class == cpu.Branch && in.Mispredicted && in.SrcDist1 == 1
			if isBarrier && !prevBarrier {
				offsets = append(offsets, i)
			}
			prevBarrier = isBarrier
		}
		return offsets
	}
	a1, a2 := record(), record()
	if len(a1) == 0 {
		t.Fatal("no episodes fired in 400k instructions of swim")
	}
	if len(a1) != len(a2) {
		t.Fatalf("episode counts differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("episode %d at different offsets: %d vs %d", i, a1[i], a2[i])
		}
	}
}
