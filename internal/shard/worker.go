package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/sim"
)

// WorkerOptions configures one worker process's claim loop.
type WorkerOptions struct {
	// ID identifies this worker in lease files and logs; empty means
	// "<hostname>-<pid>".
	ID string
	// LeaseExpiry is how long a lease may go unrefreshed before other
	// workers treat its holder as dead and steal it; zero means
	// DefaultLeaseExpiry. Every cooperating worker must use the same
	// expiry; a holder refreshes its leases every LeaseExpiry/4.
	LeaseExpiry time.Duration
	// Poll is how long an idle worker (nothing claimable, grid
	// incomplete) sleeps before re-scanning; zero means DefaultPoll.
	Poll time.Duration
	// Batch bounds how many points one claim pass gathers before
	// running them as a single engine batch — claimed neighbours share
	// the lockstep kernel exactly as a single-process sweep's points
	// do. Zero means the engine's parallelism.
	Batch int
	// DieAfter is a crash-recovery test hook: after completing this
	// many points the worker claims one more lease and exits with
	// ErrAbandoned without running or releasing it, simulating a
	// worker that died mid-point. Zero disables the hook.
	DieAfter int
	// Log, when non-nil, receives one line per batch, steal, and
	// completion.
	Log io.Writer
	// OnPoint, when non-nil, is invoked after each point this worker
	// completes (calls are serialized).
	OnPoint func()
}

// WorkerStats summarizes one worker run.
type WorkerStats struct {
	// Completed counts points this worker claimed and ran to a
	// finished result (including points served from the shared cache
	// after a redundant claim).
	Completed int
	// Stolen counts completed points whose lease was taken over from
	// an expired holder.
	Stolen int
	// Batches counts engine batches (claim passes that found work).
	Batches int
}

// ErrAbandoned is returned when the DieAfter test hook fires: the
// worker exited holding an unreleased, unrun lease.
var ErrAbandoned = errors.New("shard: worker died holding a claimed lease (die-after test hook)")

// CheckLeaseExpiry reports whether d can serve as
// WorkerOptions.LeaseExpiry: zero or less means DefaultLeaseExpiry, and
// a positive expiry must leave a holder a heartbeat interval (d/4) of
// at least a nanosecond.
func CheckLeaseExpiry(d time.Duration) error {
	if d > 0 && d/4 == 0 {
		return fmt.Errorf("lease expiry %v leaves no heartbeat interval (expiry/4); use at least 4ns", d)
	}
	return nil
}

func (o WorkerOptions) withDefaults(eng *engine.Engine) WorkerOptions {
	if o.ID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		o.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.LeaseExpiry <= 0 {
		o.LeaseExpiry = DefaultLeaseExpiry
	}
	if o.Poll <= 0 {
		o.Poll = DefaultPoll
	}
	if o.Batch <= 0 {
		o.Batch = eng.Parallelism()
	}
	return o
}

// rotation spreads workers' scan origins around the grid so N workers
// starting together mostly race for different points instead of
// serializing on the same lease files.
func rotation(id string, n int) int {
	if n == 0 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}

// RunWorker claims and simulates points of b's grid through eng until
// every point has a finished entry in the shared cache, then returns.
// eng must be backed by the board's cache directory — the disk tier is
// how results are published to the other workers and the coordinator.
//
// The loop: scan the grid (from a per-worker rotation offset), claim
// up to Batch unfinished, unleased points and run them as one engine
// batch under a heartbeat; when nothing is claimable, steal leases
// whose holders stopped heartbeating for LeaseExpiry; when neither
// yields work, sleep Poll and re-scan. A simulation error is terminal:
// the worker releases its leases and returns the error (manifest specs
// are validated at publish time, so a runtime error is not retryable
// configuration noise but a real defect every retry would hit too).
func RunWorker(ctx context.Context, eng *engine.Engine, b *Board, o WorkerOptions) (WorkerStats, error) {
	var st WorkerStats
	if err := CheckLeaseExpiry(o.LeaseExpiry); err != nil {
		return st, fmt.Errorf("shard: %w", err)
	}
	o = o.withDefaults(eng)
	if err := os.MkdirAll(b.leaseDir, 0o755); err != nil {
		return st, fmt.Errorf("shard: %w", err)
	}
	logf := func(format string, args ...any) {
		if o.Log != nil {
			fmt.Fprintf(o.Log, "shard-worker %s: %s\n", o.ID, fmt.Sprintf(format, args...))
		}
	}
	n := len(b.Keys)
	rot := rotation(o.ID, n)
	for {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		done := b.doneSet()
		remaining := 0
		for _, k := range b.Keys {
			if _, ok := done[k]; !ok {
				remaining++
			}
		}
		if remaining == 0 {
			logf("grid %s complete: %d points, %d run here (%d stolen) in %d batches",
				b.GridID, n, st.Completed, st.Stolen, st.Batches)
			return st, nil
		}

		if o.DieAfter > 0 && st.Completed >= o.DieAfter {
			// Test hook: die holding a fresh lease, like a worker killed
			// between claim and result.
			for j := 0; j < n; j++ {
				i := (rot + j) % n
				if _, ok := done[b.Keys[i]]; ok {
					continue
				}
				if b.claim(i, o.ID) {
					logf("die-after %d: abandoning claimed lease for point %d (%s)", o.DieAfter, i, b.Keys[i])
					break
				}
			}
			return st, ErrAbandoned
		}

		// Claim pass: unfinished points nobody leases.
		var batch []int
		stolen := 0
		for j := 0; j < n && len(batch) < o.Batch; j++ {
			i := (rot + j) % n
			if _, ok := done[b.Keys[i]]; ok {
				continue
			}
			if b.claim(i, o.ID) {
				batch = append(batch, i)
			}
		}
		// Steal pass: only when nothing was free — stragglers' leases
		// whose holders stopped heartbeating.
		if len(batch) == 0 {
			for j := 0; j < n && len(batch) < o.Batch; j++ {
				i := (rot + j) % n
				if _, ok := done[b.Keys[i]]; ok {
					continue
				}
				age, held := b.leaseAge(i)
				if held && age >= o.LeaseExpiry && b.steal(i, o.ID) {
					logf("stole expired lease for point %d (%s, idle %s)", i, b.Keys[i], age.Round(time.Millisecond))
					batch = append(batch, i)
					stolen++
				}
			}
		}
		if len(batch) == 0 {
			// Everything unfinished is leased to live workers; wait.
			select {
			case <-ctx.Done():
				return st, ctx.Err()
			case <-time.After(o.Poll):
			}
			continue
		}

		if err := b.runBatch(ctx, eng, o, batch); err != nil {
			return st, err
		}
		st.Completed += len(batch)
		st.Stolen += stolen
		st.Batches++
		logf("batch of %d done (%d/%d points finished somewhere)", len(batch), n-remaining+len(batch), n)
	}
}

// runBatch simulates one claim pass's points as a single engine batch,
// heartbeating every held lease until the batch resolves, then
// releases the leases. Results reach the other workers through the
// engine's disk tier as each group's file is linked and renamed into
// place.
func (b *Board) runBatch(ctx context.Context, eng *engine.Engine, o WorkerOptions, batch []int) error {
	stop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(o.LeaseExpiry / 4)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				for _, i := range batch {
					b.refresh(i)
				}
			}
		}
	}()
	specs := make([]engine.Spec, len(batch))
	for bi, i := range batch {
		specs[bi] = b.Specs[i]
	}
	_, err := eng.RunAll(ctx, specs, func(int, sim.Result) {
		if o.OnPoint != nil {
			o.OnPoint()
		}
	})
	close(stop)
	<-hbDone
	for _, i := range batch {
		b.release(i, o.ID)
	}
	return err
}
