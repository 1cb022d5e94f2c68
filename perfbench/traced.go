package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/batchkernel"
	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tracedOpenSeconds is the length of the traced run's open-loop phase.
const tracedOpenSeconds = 2

// runTraced runs the workload again split at module boundaries, with
// spans and counts recorded around each public call, checks that every
// result equals the untraced run's, and fills out with the per-layer
// metrics.
func runTraced(sc *scenario, tmp string, chk *checker, out metrics) error {
	ctx := context.Background()
	dir := filepath.Join(tmp, "disk")

	// workload: materialisation through fresh stores, the last the
	// process-wide one the engine reads.
	var mat []float64
	for rep := 0; rep < setupReps; rep++ {
		store := workload.NewTraceStore(0)
		if rep == setupReps-1 {
			store = workload.SharedTraces()
		}
		t0 := time.Now()
		materialize(sc, store)
		mat = append(mat, ms(time.Since(t0)))
	}
	out.set("workload.materialize_ms", median(mat), "ms")
	out.set("workload.trace_mb", float64(workload.SharedTraces().Stats().Bytes)/(1<<20), "MiB")

	// The untraced reference: one cold RunAll on one worker without a
	// disk tier, so its wall time compares with the serial decomposition
	// below, which writes no disk entries either.
	t0 := time.Now()
	want, err := engine.New(engine.Options{Parallelism: 1}).RunAll(ctx, sc.specs, nil)
	if err != nil {
		return err
	}
	refWall := time.Since(t0)
	checkDigest(sc, digestOf(want), chk)

	if err := decompose(sc, want, refWall, chk, out); err != nil {
		return err
	}
	// Populate the disk tier the tier timings and the service phase read.
	got, err := engine.New(engine.Options{Parallelism: clients, DiskCacheDir: dir}).RunAll(ctx, sc.specs, nil)
	if err != nil {
		return err
	}
	chk.check(digestOf(got) == digestOf(want), "the disk-tier pass differs from the untraced reference")
	if err := tiers(sc, dir, want, chk, out); err != nil {
		return err
	}

	// Open loop against a fresh engine over the same disk tier.
	exp, err := newExpectations(sc, want)
	if err != nil {
		return err
	}
	srv, err := startServer(engine.New(engine.Options{Parallelism: clients, DiskCacheDir: dir}))
	if err != nil {
		return err
	}
	defer srv.stop()
	open := openLoop(srv, exp, sc.newRequestStream(1, false), openRate*tracedOpenSeconds, openRate)
	open.check(exp, chk)
	exp.verifyMisses(open.missed(), chk)
	late := make([]float64, len(open.late))
	for i, d := range open.late {
		late[i] = ms(d)
	}
	out.set("loadgen.p99_ms", quantile(open.latencies(false), 0.99), "ms")
	st := srv.eng.CacheStats()
	chk.check(st.Hits+st.DiskHits+st.Misses == uint64(len(open.reqs)), "service tiers %d+%d+%d != %d requests", st.Hits, st.DiskHits, st.Misses, len(open.reqs))
	out.set("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	out.set("engine.hits", float64(st.Hits), "count")
	out.set("engine.disk_hits", float64(st.DiskHits), "count")
	out.set("engine.misses", float64(st.Misses), "count")
	out.set("engine.queued_mean", open.queued, "count")

	return cycleBudget(chk, out)
}

// decompose re-runs the cold pass serially through the calls the engine
// makes for it — keying, machine-key grouping, trace source, machine
// construction, technique construction and one batchkernel.Run per
// group — timing each and checking every lane's result against want.
func decompose(sc *scenario, want []sim.Result, refWall time.Duration, chk *checker, out metrics) error {
	var keyT, kernelT time.Duration
	start := time.Now()

	for _, s := range sc.specs {
		t := time.Now()
		if _, err := s.Key(); err != nil {
			return err
		}
		keyT += time.Since(t)
	}
	var order []engine.Key
	groups := map[engine.Key][]int{}
	for i, s := range sc.specs {
		mk, err := s.MachineKey()
		if err != nil {
			return err
		}
		if _, ok := groups[mk]; !ok {
			order = append(order, mk)
		}
		groups[mk] = append(groups[mk], i)
	}

	var st batchkernel.Stats
	var laneCycles, allocs, allocBytes uint64
	var ms0, ms1 runtime.MemStats
	for _, mk := range order {
		idx := groups[mk]
		s0 := sc.specs[idx[0]]
		src := workload.SharedTraces().Source(appParams(s0.App), s0.Instructions)
		m, err := sim.NewMachine(machineConfig(s0), src)
		if err != nil {
			return err
		}
		lanes := make([]batchkernel.Lane, len(idx))
		for li, i := range idx {
			tech, _, err := engine.BuildTechnique(sc.specs[i])
			if err != nil {
				return err
			}
			name := string(engine.TechniqueNone)
			if tech != nil {
				name = tech.Name()
			}
			lanes[li] = batchkernel.Lane{Tech: tech, TechName: name}
		}
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		outs, gs := batchkernel.Run(m, s0.App, lanes)
		kernelT += time.Since(t)
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc

		st.Steps += gs.Steps
		st.LanesForked += gs.LanesForked
		st.CohortsForked += gs.CohortsForked
		st.PowerMemo.Hits += gs.PowerMemo.Hits
		st.PowerMemo.Misses += gs.PowerMemo.Misses
		st.PowerMemo.Bypasses += gs.PowerMemo.Bypasses
		for li, o := range outs {
			i := idx[li]
			chk.check(o.Status == batchkernel.Finished && o.Result == want[i],
				"decomposed spec %d (%s/%s): %v %v, untraced %+v", i, sc.specs[i].App, sc.specs[i].Technique, o.Status, o.Err, want[i])
			laneCycles += o.Result.Cycles
		}
	}
	wall := time.Since(start)

	var cycles, violations uint64
	for _, r := range want {
		cycles += r.Cycles
		violations += r.Violations
	}
	n := float64(len(sc.specs))
	out.set("engine.key_us", us(keyT)/n, "us")
	out.set("engine.overhead_share", (refWall-kernelT).Seconds()/refWall.Seconds(), "share")
	out.set("trace.overhead_share", (wall-refWall).Seconds()/refWall.Seconds(), "share")
	out.set("sim.spec_cycles", float64(cycles), "count")
	out.set("sim.violations", float64(violations), "count")
	out.set("power.memo_hits", float64(st.PowerMemo.Hits), "count")
	out.set("power.memo_lookups", float64(st.PowerMemo.Lookups()), "count")
	out.set("power.memo_hit_rate", st.PowerMemo.HitRate(), "share")
	out.set("batchkernel.steps", float64(st.Steps), "count")
	out.set("batchkernel.sharing", float64(laneCycles)/float64(st.Steps), "lanes")
	out.set("batchkernel.lanes_forked", float64(st.LanesForked), "count")
	out.set("batchkernel.cohorts_forked", float64(st.CohortsForked), "count")
	out.set("batchkernel.ns_per_step", float64(kernelT)/float64(st.Steps), "ns")
	out.set("batchkernel.allocs_per_run", float64(allocs)/float64(len(order)), "count")
	out.set("batchkernel.bytes_per_run", float64(allocBytes)/float64(len(order)), "B")
	printCounts("traced", map[string]uint64{
		"sim.spec_cycles": cycles, "sim.violations": violations,
		"batchkernel.steps": st.Steps, "batchkernel.lanes_forked": st.LanesForked,
		"batchkernel.cohorts_forked": st.CohortsForked,
		"power.memo_hits":            st.PowerMemo.Hits, "power.memo_lookups": st.PowerMemo.Lookups(),
	})
	return nil
}

// machineConfig is the simulated system a spec describes.
func machineConfig(s engine.Spec) sim.Config {
	cfg := sim.DefaultConfig()
	if s.PDN != nil {
		p := *s.PDN
		cfg.PDN = &p
	}
	return cfg
}

// tiers times the engine's cache tiers and the server's layers on the
// workload's keys: disk hits and memory hits through Engine.RunKeyed,
// then one single-spec request per key through the handler into a
// recorder, through loopback, and directly through RunKeyed.
func tiers(sc *scenario, dir string, want []sim.Result, chk *checker, out metrics) error {
	ctx := context.Background()
	keys := make([]engine.Key, len(sc.specs))
	for i, s := range sc.specs {
		k, err := s.Key()
		if err != nil {
			return err
		}
		keys[i] = k
	}
	runAll := func(eng *engine.Engine, what string) time.Duration {
		t := time.Now()
		for i, s := range sc.specs {
			res, err := eng.RunKeyed(ctx, keys[i], s)
			chk.check(err == nil && res == want[i], "%s of spec %d: %v", what, i, err)
		}
		return time.Since(t)
	}
	n := float64(len(sc.specs))
	var disk, mem []float64
	var eng *engine.Engine
	for rep := 0; rep < setupReps; rep++ {
		eng = engine.New(engine.Options{Parallelism: 1, DiskCacheDir: dir})
		disk = append(disk, us(runAll(eng, "disk hit"))/n)
		mem = append(mem, us(runAll(eng, "memory hit"))/n)
		st := eng.CacheStats()
		chk.check(st.Misses == 0 && st.DiskHits == uint64(len(sc.specs)), "tier pass simulated %d specs, %d disk hits", st.Misses, st.DiskHits)
	}
	memHit := median(mem)
	out.set("engine.disk_hit_us", median(disk), "us")
	out.set("engine.mem_hit_us", memHit, "us")

	if sc.table3 {
		t := time.Now()
		if _, err := experiments.Table3(experiments.Options{Instructions: table3Insts, Engine: eng}); err != nil {
			return err
		}
		wall := ms(time.Since(t))
		out.set("experiments.report_ms", wall-n*(out["engine.key_us"].Value+memHit)/1000, "ms")
	} else {
		out.set("experiments.report_ms", 0, "ms")
	}

	exp, err := newExpectations(sc, want)
	if err != nil {
		return err
	}
	h := server.New(server.Options{Engine: eng}).Handler()
	srv, err := startServer(eng)
	if err != nil {
		return err
	}
	defer srv.stop()
	var handlerT, loopT, directT time.Duration
	for i, s := range sc.specs {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/run", bytes.NewReader(exp.bodies[i]))
		t := time.Now()
		h.ServeHTTP(rec, req)
		handlerT += time.Since(t)
		chk.check(bytes.Equal(rec.Body.Bytes(), exp.lines[i]), "handler answered spec %d with %q", i, rec.Body.Bytes())

		t = time.Now()
		body, err := srv.post(exp.bodies[i])
		loopT += time.Since(t)
		chk.check(err == nil && bytes.Equal(body, exp.lines[i]), "loopback answered spec %d with %q (%v)", i, body, err)

		t = time.Now()
		res, err := eng.RunKeyed(ctx, keys[i], s)
		directT += time.Since(t)
		chk.check(err == nil && res == want[i], "direct run of spec %d: %v", i, err)
	}
	out.set("server.handler_us", us(handlerT-directT)/n, "us")
	out.set("server.transport_us", us(loopT-handlerT)/n, "us")
	return nil
}
