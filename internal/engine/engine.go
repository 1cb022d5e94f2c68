package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/engine/batchkernel"
	"repro/internal/sim"
)

// Options configures an Engine.
type Options struct {
	// Parallelism bounds concurrently executing simulations across all
	// of the engine's batch calls; <= 0 means GOMAXPROCS.
	Parallelism int
	// DiskCacheDir, when non-empty, adds a persistent second cache tier:
	// finished Results are written there as one JSON file per Spec.Key
	// (atomic renames), and later engines — including later processes —
	// serve matching specs from disk without simulating. Corrupt or
	// stale entries are ignored and rewritten. Because keys are content
	// addresses of the full normalized Spec, sharing a directory across
	// configurations is safe.
	DiskCacheDir string
	// DiskCacheGC, with DiskCacheDir set, sweeps the cache directory
	// once at engine construction, deleting files that can never be
	// served again: entries written under another schema version (a
	// version bump changes every key, so old entries orphan forever),
	// corrupt entries, and abandoned tmp-* files from crashed writers.
	// The sweep is best-effort and safe to run concurrently with other
	// processes using the same directory.
	DiskCacheGC bool
}

// Engine executes Specs through a bounded worker pool and memoizes their
// Results in a two-tier content-addressed cache keyed by Spec.Key: an
// in-memory map shared by everything in the process, and an optional
// on-disk tier shared across processes. An Engine is safe for concurrent
// use; sharing one engine across drivers (e.g. every experiment of a
// cmd/experiments invocation) shares both the pool and the cache, so the
// 26-app base suite is simulated once per process, not once per table —
// and with a disk tier, once per cache directory, not once per process.
type Engine struct {
	parallelism int
	slots       chan struct{}
	disk        *diskCache

	mu            sync.Mutex
	entries       map[Key]*entry
	hits          uint64
	diskHits      uint64
	misses        uint64
	diskWrites    uint64
	diskGCRemoved uint64

	// Instantaneous load accounting (see Load): simulations occupying a
	// worker slot, and runs queued waiting for one.
	inFlight atomic.Int64
	queued   atomic.Int64

	// Divergence handling aggregated over every lockstep group this
	// engine executed (see batchkernel.Stats).
	lanesForked     uint64
	cohortsReformed uint64
	forkCyclesSaved uint64
}

// entry is one cache slot, created before its simulation starts so that
// concurrent requests for the same spec coalesce onto a single run.
type entry struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// New builds an engine.
func New(o Options) *Engine {
	p := o.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		parallelism: p,
		slots:       make(chan struct{}, p),
		entries:     make(map[Key]*entry),
	}
	if o.DiskCacheDir != "" {
		e.disk = &diskCache{dir: o.DiskCacheDir}
		if o.DiskCacheGC {
			e.diskGCRemoved = uint64(e.disk.gc())
		}
	}
	return e
}

// Parallelism returns the engine's worker bound.
func (e *Engine) Parallelism() int { return e.parallelism }

// CacheStats reports the engine's cache traffic by tier.
type CacheStats struct {
	// Hits counts runs served from (or coalesced onto) an in-memory
	// entry; DiskHits counts runs served from the persistent tier;
	// Misses counts simulations actually executed.
	Hits, DiskHits, Misses uint64
	// DiskWrites counts results persisted to the disk tier.
	DiskWrites uint64
	// DiskGCRemoved counts stale disk-tier files (old schema versions,
	// corrupt entries, abandoned temp files) deleted by the
	// construction-time sweep Options.DiskCacheGC enables.
	DiskGCRemoved uint64
	// Entries is the number of distinct specs cached in memory.
	Entries int
	// PowerMemoHits and PowerMemoLookups counted the traffic of the
	// power model's retired activity-vector memo.
	//
	// Deprecated: always zero; kept because benchmark tooling reads them.
	PowerMemoHits    uint64
	PowerMemoLookups uint64
	// LanesForked counts lockstep lanes that diverged and resumed on a
	// forked machine; CohortsReformed counts the forked machines created,
	// each a fresh lockstep cohort (so LanesForked - CohortsReformed
	// lanes regrouped with a same-decision sibling instead of running
	// alone); ForkCyclesSaved sums the per-lane speculative prefixes the
	// pre-fork kernel would have discarded and re-simulated from cycle
	// zero (see batchkernel.Stats).
	LanesForked     uint64
	CohortsReformed uint64
	ForkCyclesSaved uint64
}

// CacheStats returns a snapshot of the cache counters.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return CacheStats{
		Hits:            e.hits,
		DiskHits:        e.diskHits,
		Misses:          e.misses,
		DiskWrites:      e.diskWrites,
		DiskGCRemoved:   e.diskGCRemoved,
		Entries:         len(e.entries),
		LanesForked:     e.lanesForked,
		CohortsReformed: e.cohortsReformed,
		ForkCyclesSaved: e.forkCyclesSaved,
	}
}

// LoadStats is an instantaneous snapshot of the engine's execution load,
// the queue-depth signal a serving front-end exports.
type LoadStats struct {
	// InFlight is the number of simulations (a lockstep lane group
	// counts as one, like the single machine it steps) currently
	// occupying a worker slot.
	InFlight int
	// Queued is the number of runs waiting for a free slot.
	Queued int
}

// Load returns the engine's instantaneous execution load.
func (e *Engine) Load() LoadStats {
	return LoadStats{InFlight: int(e.inFlight.Load()), Queued: int(e.queued.Load())}
}

// acquireSlot blocks until a worker slot frees, counting the wait in
// Queued; it reports false when ctx is cancelled first.
func (e *Engine) acquireSlot(ctx context.Context) bool {
	e.queued.Add(1)
	defer e.queued.Add(-1)
	select {
	case e.slots <- struct{}{}:
		e.inFlight.Add(1)
		return true
	case <-ctx.Done():
		return false
	}
}

func (e *Engine) releaseSlot() {
	e.inFlight.Add(-1)
	<-e.slots
}

// addKernelStats folds one lockstep group's divergence counters into the
// engine totals.
func (e *Engine) addKernelStats(st batchkernel.Stats) {
	e.mu.Lock()
	e.lanesForked += st.LanesForked
	e.cohortsReformed += st.CohortsForked
	e.forkCyclesSaved += st.CyclesSaved
	e.mu.Unlock()
}

// claim is one spec's stake in the memory tier while it is served. An
// untraced spec either finds an entry (a hit: it waits on it) or creates
// and owns one (en), which it must resolve exactly once — through
// fromDisk or settle — or identical specs wait forever. A traced spec
// owns nothing: its per-cycle callback means it always simulates, and
// settle publishes its result only into a vacant slot. A traced run must
// never displace a live entry, because a traced failure would then evict
// that entry while the displaced run's good result has nowhere to land,
// and even a traced success would strand the original run's waiters.
type claim struct {
	key Key
	en  *entry
}

// claimLocked returns key's entry as a hit, or creates and returns a new
// owned one. The caller holds e.mu.
func (e *Engine) claimLocked(key Key) (en *entry, hit bool) {
	if en, ok := e.entries[key]; ok {
		e.hits++
		return en, true
	}
	en = &entry{done: make(chan struct{})}
	e.entries[key] = en
	return en, false
}

// fromDisk serves an owned claim from the persistent tier, promoting the
// loaded result into its memory entry.
func (e *Engine) fromDisk(c claim) (sim.Result, bool) {
	if e.disk == nil || c.en == nil {
		return sim.Result{}, false
	}
	res, ok := e.disk.load(c.key)
	if !ok {
		return sim.Result{}, false
	}
	e.mu.Lock()
	e.diskHits++
	e.mu.Unlock()
	c.en.res = res
	close(c.en.done)
	return res, true
}

// settle records the outcome of a claim that reached simulation (or, for
// an owned claim, was abandoned before it): it counts the miss, persists
// a success to disk, and publishes it — into the owned entry, or into a
// vacant slot for a traced spec — or, on failure, evicts the owned entry
// so a later identical spec retries instead of replaying the error.
func (e *Engine) settle(c claim, res sim.Result, err error) {
	stored := err == nil && e.disk != nil && e.disk.store(c.key, res)
	e.mu.Lock()
	e.misses++
	if stored {
		e.diskWrites++
	}
	switch {
	case c.en == nil && err == nil:
		if _, exists := e.entries[c.key]; !exists {
			en := &entry{done: make(chan struct{}), res: res}
			close(en.done)
			e.entries[c.key] = en
		}
	case c.en != nil && err != nil && e.entries[c.key] == c.en:
		delete(e.entries, c.key)
	}
	e.mu.Unlock()
	if c.en != nil {
		c.en.res, c.en.err = res, err
		close(c.en.done)
	}
}

// Run executes one spec, serving it from the memory tier when an
// identical spec has already run, then from the disk tier when one is
// configured, simulating only on a miss of both. Identical specs
// submitted concurrently — from any number of goroutines or batches —
// coalesce onto a single simulation sharing one done channel. Specs
// carrying a Trace callback always simulate (the per-cycle side effects
// cannot be replayed), but their result still lands in both tiers. A
// failed simulation is evicted so a later identical spec retries instead
// of replaying the stale error. Cancelling ctx abandons a wait on
// another goroutine's in-flight run; a simulation already executing runs
// to completion. Simulating (but not cache service) occupies one of the
// engine's worker slots, so direct Run traffic and batch workers share
// the same concurrency bound.
func (e *Engine) Run(ctx context.Context, spec Spec) (sim.Result, error) {
	if err := ctx.Err(); err != nil {
		return sim.Result{}, err
	}
	key, err := spec.Key()
	if err != nil {
		return sim.Result{}, err
	}
	return e.RunKeyed(ctx, key, spec)
}

// RunKeyed is Run for callers that already computed the spec's content
// key (e.g. a server handler that reports it per response): it skips the
// second key derivation and shares Run's coalescing, caching, and slot
// accounting. key must equal spec.Key(); a mismatched key would poison
// the cache for every later consumer of that key.
func (e *Engine) RunKeyed(ctx context.Context, key Key, spec Spec) (sim.Result, error) {
	if err := ctx.Err(); err != nil {
		return sim.Result{}, err
	}
	c := claim{key: key}
	if spec.Trace == nil {
		e.mu.Lock()
		en, hit := e.claimLocked(key)
		e.mu.Unlock()
		if hit {
			select {
			case <-en.done:
				return en.res, en.err
			case <-ctx.Done():
				return sim.Result{}, ctx.Err()
			}
		}
		c.en = en
		if res, ok := e.fromDisk(c); ok {
			return res, nil
		}
	}
	if !e.acquireSlot(ctx) {
		if c.en != nil {
			e.settle(c, sim.Result{}, ctx.Err())
		}
		return sim.Result{}, ctx.Err()
	}
	res, errs, st := simulate([]Spec{spec})
	e.releaseSlot()
	e.addKernelStats(st)
	e.settle(c, res[0], errs[0])
	return res[0], errs[0]
}

// RunAll executes every spec through the worker pool and returns results
// in spec order, bit-identical to running each spec alone. progress,
// when non-nil, is invoked once per completed spec (calls are serialized
// but arrive in completion order, not spec order). The first error
// cancels the remaining queue and is returned annotated with the failing
// spec.
func (e *Engine) RunAll(ctx context.Context, specs []Spec, progress func(i int, res sim.Result)) ([]sim.Result, error) {
	labels := make([]string, len(specs))
	for i, s := range specs {
		labels[i] = fmt.Sprintf("spec %d (app=%s, technique=%s)", i, s.App, s.Technique)
	}
	return e.runBatch(ctx, specs, labels, progress)
}

// Point is one grid coordinate: a spec plus the label used to identify
// it in errors.
type Point struct {
	Label string
	Spec  Spec
}

// Grid executes a set of labelled grid points, exactly like RunAll but
// with caller-chosen labels in error messages (e.g. the sweep
// coordinates of the point that failed).
func (e *Engine) Grid(ctx context.Context, points []Point, progress func(i int, res sim.Result)) ([]sim.Result, error) {
	specs := make([]Spec, len(points))
	labels := make([]string, len(points))
	for i, p := range points {
		specs[i] = p.Spec
		labels[i] = p.Label
	}
	return e.runBatch(ctx, specs, labels, progress)
}

func (e *Engine) runBatch(parent context.Context, specs []Spec, labels []string, progress func(int, sim.Result)) ([]sim.Result, error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	results := make([]sim.Result, len(specs))
	errs := make([]error, len(specs))
	var mu sync.Mutex // serializes progress calls and error writes

	fail := func(i int, err error) {
		mu.Lock()
		errs[i] = err
		mu.Unlock()
		cancel() // first failure drains the queue
	}
	succeed := func(i int, res sim.Result) {
		results[i] = res
		if progress != nil {
			mu.Lock()
			progress(i, res)
			mu.Unlock()
		}
	}

	// Claim: key every spec, then claim every untraced spec's
	// memory-tier entry in one critical section, so the packer below sees
	// the whole set of specs this batch must simulate. Specs already in
	// flight (or cached) elsewhere become waiters; traced specs claim
	// nothing (see claim).
	type waiter struct {
		i  int
		en *entry
	}
	var waits []waiter
	var toRun []int
	claims := make([]claim, len(specs))
	for i := range specs {
		k, err := specs[i].Key()
		if err != nil {
			fail(i, err)
		}
		claims[i].key = k
	}
	e.mu.Lock()
	for i := range specs {
		if errs[i] != nil {
			continue // key error already recorded
		}
		if specs[i].Trace == nil {
			en, hit := e.claimLocked(claims[i].key)
			if hit {
				waits = append(waits, waiter{i: i, en: en})
				continue
			}
			claims[i].en = en
		}
		toRun = append(toRun, i)
	}
	e.mu.Unlock()

	// Disk probe: owned specs may be served from the persistent tier
	// without simulating.
	n := 0
	for _, i := range toRun {
		if res, ok := e.fromDisk(claims[i]); ok {
			succeed(i, res)
			continue
		}
		toRun[n] = i
		n++
	}
	toRun = toRun[:n]

	// Pack: group the remaining work by machine key so compatible specs
	// share one lockstep kernel run.
	groups := packGroups(specs, toRun)

	// finish settles one simulated spec's claim and records its outcome;
	// abandon resolves a claim whose group never simulated.
	finish := func(i int, res sim.Result, err error) {
		e.settle(claims[i], res, err)
		if err != nil {
			fail(i, err)
		} else {
			succeed(i, res)
		}
	}
	abandon := func(i int, err error) {
		if claims[i].en != nil {
			e.settle(claims[i], sim.Result{}, err)
		}
		fail(i, err)
	}

	// A fixed pool of min(groups, parallelism) workers pulls group
	// indices from a channel, so a 100k-point grid costs a handful of
	// goroutines rather than one per point. The engine-wide slots
	// channel still bounds total concurrency when several batches share
	// the engine; a multi-lane group occupies one slot, like the single
	// simulation its machine steps.
	idx := make(chan int)
	go func() {
		defer close(idx)
		for gi := range groups {
			select {
			case idx <- gi:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < min(len(groups), e.parallelism); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := range idx {
				g := groups[gi].indices
				if !e.acquireSlot(ctx) {
					// Drain cheaply after cancellation, still
					// resolving every claimed entry so waiters on
					// other batches cannot hang.
					for _, i := range g {
						abandon(i, ctx.Err())
					}
					continue
				}
				gs := make([]Spec, len(g))
				for k, i := range g {
					gs[k] = specs[i]
				}
				res, errs, st := simulate(gs)
				e.releaseSlot()
				e.addKernelStats(st)
				for k, i := range g {
					finish(i, res[k], errs[k])
				}
			}
		}()
	}
	wg.Wait()

	// A cancellation can stop the feeder before every group reaches a
	// worker, leaving those groups' claimed entries unresolved — which
	// would hang identical specs in other batches forever (they wait on
	// this batch's done channels). Resolve the stragglers here; after
	// wg.Wait no worker touches these entries, so the non-blocking probe
	// is race-free.
	for _, i := range toRun {
		en := claims[i].en
		if en == nil {
			continue
		}
		select {
		case <-en.done:
		default:
			err := ctx.Err()
			if err == nil {
				// Unreachable if the feeder and workers covered every
				// group; guard so a future bug surfaces as an error
				// rather than a published zero result.
				err = errors.New("claimed entry left unresolved")
			}
			abandon(i, err)
		}
	}

	// Resolve waiters last: every entry this batch claimed has been
	// closed above, so a cross-batch wait cycle cannot deadlock.
	for _, w := range waits {
		select {
		case <-w.en.done:
			if w.en.err != nil {
				mu.Lock()
				errs[w.i] = w.en.err
				mu.Unlock()
			} else {
				succeed(w.i, w.en.res)
			}
		case <-ctx.Done():
			mu.Lock()
			errs[w.i] = ctx.Err()
			mu.Unlock()
		}
	}

	// Report the root-cause error, not the cascade of cancellations it
	// triggered; a parent-context cancellation surfaces as itself.
	var canceled error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			canceled = err
			continue
		}
		return nil, fmt.Errorf("engine: %s: %w", labels[i], err)
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	if canceled != nil {
		return nil, canceled
	}
	return results, nil
}
