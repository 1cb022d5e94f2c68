// Sharded sweep: -coordinate publishes the grid manifest into the
// shared cache directory, forks local -workers, waits for every point
// to land in the disk cache, and then emits the CSV by running the
// ordinary sweep over the now-warm cache — byte-identical to a
// single-process run because it *is* the single-process run, served
// entirely from disk hits. -worker joins any grid published to the
// directory (local or on a shared filesystem) and claims points until
// the grid completes. Crash recovery and work stealing live in
// internal/shard.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/cacheflags"
	"repro/internal/engine"
	"repro/internal/shard"
)

// shardOpts carries the sharded-mode flag values.
type shardOpts struct {
	cache       *cacheflags.Flags
	workers     int
	leaseExpiry time.Duration
	poll        time.Duration
	parallel    int
	progress    bool
	dieAfter    int
}

// shardSpecs flattens the sweep's full work list — the per-app
// baselines the grid's relative columns are computed against, then every
// grid point in stable grid order — into the one batch the sweep submits
// and the manifest's point set.
func shardSpecs(g sweepGrid) []engine.Spec {
	var specs []engine.Spec
	for _, app := range g.apps {
		specs = append(specs, engine.Spec{App: app, Instructions: g.insts, PDN: g.pdnConfig()})
	}
	for _, p := range g.points() {
		specs = append(specs, p.spec(g.insts))
	}
	return specs
}

// workerMain runs the worker mode: open the directory's active grid
// (waiting for a coordinator to publish one if necessary) and claim
// points until the grid is complete everywhere.
func workerMain(ctx context.Context, eng *engine.Engine, o shardOpts) (shard.WorkerStats, error) {
	b, err := shard.Open(ctx, o.cache.Dir, o.poll)
	if err != nil {
		return shard.WorkerStats{}, err
	}
	m := newMeter(os.Stderr, len(b.Keys), o.progress)
	st, err := shard.RunWorker(ctx, eng, b, shard.WorkerOptions{
		LeaseExpiry: o.leaseExpiry,
		Poll:        o.poll,
		DieAfter:    o.dieAfter,
		Log:         os.Stderr,
		OnPoint:     func() { m.add(1) },
	})
	m.finish()
	fmt.Fprintf(os.Stderr, "shard-stats: grid=%s completed=%d stolen=%d batches=%d\n",
		b.GridID, st.Completed, st.Stolen, st.Batches)
	return st, err
}

// coordinate runs the coordinator mode: publish the manifest, fork
// local workers, wait for grid completion, then merge by running the
// ordinary sweep against the warm shared cache. When every local
// worker exits before the grid completes (all crashed, or -workers 0
// with no remote help), the merge pass itself finishes the stragglers
// in-process — the output is byte-identical either way, only the
// wall-clock story differs.
func coordinate(ctx context.Context, eng *engine.Engine, g sweepGrid, w io.Writer, o shardOpts) error {
	specs := shardSpecs(g)
	b, err := shard.Publish(o.cache.Dir, specs)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "coordinator: published grid %s (%d points) to %s\n",
		b.GridID, len(specs), shard.Dir(o.cache.Dir))

	exited, err := startWorkers(o)
	if err != nil {
		return err
	}
	m := newMeter(os.Stderr, len(specs), o.progress)
	complete, err := b.Wait(ctx, o.poll, exited, func(done, total int) { m.set(done) })
	if err != nil {
		return err
	}
	m.finish()
	if !complete {
		fmt.Fprintf(os.Stderr, "coordinator: workers exited with %d/%d points finished; completing stragglers in-process\n",
			b.DoneCount(), len(specs))
	} else if exited != nil {
		// Reap the forked workers before merging: they observe grid
		// completion within one poll and exit, and waiting keeps their
		// final stats lines ahead of the merge's in the shared stderr.
		<-exited
	}
	return runSweep(ctx, eng, g, w, nil)
}

// startWorkers forks o.workers local worker processes (this binary
// with -worker) against the shared cache directory and returns a
// channel closed when the last of them exits — or a nil channel
// (blocks forever) when no local workers were requested and remote
// workers sharing the directory are expected to finish the grid. A
// worker's exit status is not fatal to the coordinator: a crashed
// worker's leases expire and its points are stolen, which is the
// protocol working, not an error.
func startWorkers(o shardOpts) (<-chan struct{}, error) {
	if o.workers <= 0 {
		return nil, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("coordinator: cannot locate own binary to fork workers: %w", err)
	}
	args := append([]string{
		"-worker",
		"-lease-expiry", o.leaseExpiry.String(),
		"-shard-poll", o.poll.String(),
	}, o.cache.WorkerArgs()...)
	if o.parallel > 0 {
		args = append(args, "-parallel", strconv.Itoa(o.parallel))
	}
	cmds := make([]*exec.Cmd, o.workers)
	for i := range cmds {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("coordinator: start worker %d: %w", i, err)
		}
		cmds[i] = cmd
	}
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		for i, cmd := range cmds {
			if err := cmd.Wait(); err != nil {
				fmt.Fprintf(os.Stderr, "coordinator: worker %d exited: %v (its points will be stolen or merged in-process)\n", i, err)
			}
		}
	}()
	return ch, nil
}
