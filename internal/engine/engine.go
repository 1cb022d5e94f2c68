package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
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
	// finished Results are written there, each found under its own
	// Spec.Key name (<64-hex>.json); the results of one simulated
	// lockstep group share a single file, one line per result,
	// hard-linked under every member's name and published by atomic
	// links and renames. Later engines — including later processes —
	// serve matching specs from disk without simulating. Corrupt or
	// stale entries (and files from before results were stored by
	// line) are ignored and rewritten. Because keys are content
	// addresses of the full normalized Spec, sharing a directory across
	// configurations is safe.
	DiskCacheDir string
	// DiskCacheGC, with DiskCacheDir set, sweeps the cache directory
	// once at engine construction, deleting files that can never be
	// served again: entries written under another schema version (an
	// old entry is rewritten only when its spec runs again, so after a
	// bump that changed every key old entries orphan forever), corrupt
	// entries, and abandoned tmp-* files from crashed writers.
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
	diskWriteErrs uint64
	diskReadErrs  uint64
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
	// DiskWrites counts results persisted to the disk tier;
	// DiskWriteErrors counts results the tier failed to persist (an
	// unwritable or full directory), which stay served from memory.
	DiskWrites, DiskWriteErrors uint64
	// DiskReadErrors counts disk probes that found the key's file but
	// could not read it or found no current-version entry for the key
	// in it (a corrupt or truncated file, or one written before results
	// were stored by line), and whose spec no other file the batch read
	// served; each is a miss. An absent file is a plain miss and is not
	// counted.
	DiskReadErrors uint64
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

// String renders the stats as the cache-stats line the command-line
// tools print at the end of a run.
func (cs CacheStats) String() string {
	return fmt.Sprintf("cache-stats: mem_hits=%d disk_hits=%d sim_misses=%d disk_writes=%d entries=%d",
		cs.Hits, cs.DiskHits, cs.Misses, cs.DiskWrites, cs.Entries)
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
		DiskWriteErrors: e.diskWriteErrs,
		DiskReadErrors:  e.diskReadErrs,
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
// Queued; it reports false, holding no slot, once ctx is cancelled.
func (e *Engine) acquireSlot(ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
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

// claim is one spec's stake in the memory tier while it is served. A
// spec either finds an entry (a hit: it waits on it) or creates and owns
// one (en), which it must resolve exactly once — through fromDisk or
// settle — or identical specs wait forever.
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

// fromDisk counts one owned claim's disk hit and promotes the loaded
// result into the claim's memory entry, resolving it.
func (e *Engine) fromDisk(c claim, res sim.Result) {
	e.mu.Lock()
	e.diskHits++
	e.mu.Unlock()
	c.en.res = res
	close(c.en.done)
}

// A position's state in probeDisk. A position is served at most once, by
// a compare-and-swap from either unserved state.
const (
	probeOpen    uint32 = iota // unserved; its own probe found no file, or has not probed
	probeServed                // served from a decoded line
	probeFaulted               // unserved; its own probe found the file unreadable or without a decodable line for its key
)

// probeDisk serves the batch's owned claims among toRun (positions into
// claims) from the disk tier, calling succeed for each one served, and
// returns the rest of toRun, in order. It reads each group file once:
// workers walk contiguous runs of toRun, so a group's members, adjacent
// in caller order, meet one reader; and a read serves every owned,
// unserved spec whose line in the file decodes — its own, and a
// co-member's when the file is committed (see diskCache), which the
// first such co-member line decides with at most one stat. A file a
// crash left uncommitted serves only the line of the name that opened
// it. A position is taken only by the read that serves it, so which
// tier serves a spec does not depend on which worker probes first. A
// position no read served is counted as its own probe found it: a
// plain miss if its name was absent, else a read fault.
func (e *Engine) probeDisk(claims []claim, toRun []int, succeed func(int, sim.Result)) []int {
	// index holds each owned claim's line key and position in toRun,
	// sorted by key (a batch owns each key once): one allocation.
	type indexed struct {
		key lineKey
		k   int
	}
	index := make([]indexed, len(toRun))
	for k, i := range toRun {
		index[k] = indexed{claims[i].key.lineKey(), k}
	}
	byKey := func(c indexed, key lineKey) int { return compareLineKeys(&c.key, &key) }
	slices.SortFunc(index, func(a, b indexed) int { return compareLineKeys(&a.key, &b.key) })
	state := make([]atomic.Uint32, len(toRun))
	runs := min(len(toRun), e.parallelism)
	e.forEach(runs, func(r int) {
		for k := r * len(toRun) / runs; k < (r+1)*len(toRun)/runs; k++ {
			if state[k].Load() == probeServed {
				continue
			}
			blob, id, err := e.disk.read(claims[toRun[k]].key)
			if err != nil {
				if !absent(err) {
					state[k].CompareAndSwap(probeOpen, probeFaulted)
				}
				continue
			}
			var decided, committed bool
			eachEntry(blob, func(key lineKey, body []byte) bool {
				x, ok := slices.BinarySearchFunc(index, key, byKey)
				if !ok {
					return true
				}
				j := index[x].k
				if state[j].Load() == probeServed {
					return true
				}
				if j != k {
					if !decided {
						decided, committed = true, e.disk.committed(blob, claims[toRun[k]].key.lineKey(), id)
					}
					if !committed {
						return true
					}
				}
				res, err := decodeEntry(body)
				if err == nil && (state[j].CompareAndSwap(probeOpen, probeServed) ||
					state[j].CompareAndSwap(probeFaulted, probeServed)) {
					e.fromDisk(claims[toRun[j]], res)
					succeed(toRun[j], res)
				}
				return true
			})
			state[k].CompareAndSwap(probeOpen, probeFaulted) // no line of its own decoded, unless served
		}
	})
	misses := toRun[:0]
	var faults uint64
	for k, i := range toRun {
		switch state[k].Load() {
		case probeServed:
			continue
		case probeFaulted:
			faults++
		}
		misses = append(misses, i)
	}
	if faults > 0 {
		e.mu.Lock()
		e.diskReadErrs += faults
		e.mu.Unlock()
	}
	return misses
}

// compareLineKeys orders line keys as bytes.Compare does, a machine word
// first: the first 8 bytes as a big-endian uint64 decide every pair but
// a tie, which the rest of the bytes break.
func compareLineKeys(a, b *lineKey) int {
	if x, y := binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(b[:8]); x != y {
		if x < y {
			return -1
		}
		return 1
	}
	return bytes.Compare(a[8:], b[8:])
}

// store persists one simulated group's successes — keys[k]'s outcome is
// res[k], errs[k] — to the disk tier as a single file, and counts what
// landed and what did not. The group's claims are settled after it, so
// a result is on disk by the time its waiters see it.
func (e *Engine) store(keys []Key, res []sim.Result, errs []error) {
	if e.disk == nil {
		return
	}
	var ks []Key
	var rs []sim.Result
	for k, err := range errs {
		if err == nil {
			ks = append(ks, keys[k])
			rs = append(rs, res[k])
		}
	}
	if len(ks) == 0 {
		return
	}
	landed := e.disk.store(ks, rs)
	e.mu.Lock()
	e.diskWrites += uint64(landed)
	e.diskWriteErrs += uint64(len(ks) - landed)
	e.mu.Unlock()
}

// settle records the outcome of a claim that reached simulation (or was
// abandoned before it): it counts the miss and publishes the outcome
// into the owned entry, evicting the entry on failure so a later
// identical spec retries instead of replaying the error.
func (e *Engine) settle(c claim, res sim.Result, err error) {
	e.mu.Lock()
	e.misses++
	if err != nil && e.entries[c.key] == c.en {
		delete(e.entries, c.key)
	}
	e.mu.Unlock()
	c.en.res, c.en.err = res, err
	close(c.en.done)
}

// Run executes one spec, serving it from the memory tier when an
// identical spec has already run, then from the disk tier when one is
// configured, simulating only on a miss of both. Identical specs
// submitted concurrently — from any number of goroutines or batches —
// coalesce onto a single simulation sharing one done channel. A
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
	// A memory hit is served here, without allocating: the common case of
	// a warm server. Everything else is a one-spec batch.
	e.mu.Lock()
	en, hit := e.entries[key]
	if hit {
		e.hits++
	}
	e.mu.Unlock()
	if hit {
		select {
		case <-en.done:
			return en.res, en.err
		case <-ctx.Done():
			return sim.Result{}, ctx.Err()
		}
	}
	res, errs := e.serve(ctx, []Spec{spec}, []Key{key}, nil)
	return res[0], errs[0]
}

// RunAll executes every spec through the worker pool and returns results
// in spec order, bit-identical to running each spec alone. progress,
// when non-nil, is invoked once per completed spec (calls are serialized
// but arrive in completion order, not spec order). The first error
// cancels the remaining queue and is returned annotated with the failing
// spec.
func (e *Engine) RunAll(ctx context.Context, specs []Spec, progress func(i int, res sim.Result)) ([]sim.Result, error) {
	return e.runAll(ctx, specs, nil, progress)
}

// RunAllKeyed is RunAll for callers that already computed every spec's
// content key (e.g. a server handler that validated and keyed a grid to
// report each key per line): keys[i] must equal specs[i].Key(), and it
// skips the batch's own key derivation. A mismatched key would poison
// the cache for every later consumer of that key.
func (e *Engine) RunAllKeyed(ctx context.Context, specs []Spec, keys []Key, progress func(i int, res sim.Result)) ([]sim.Result, error) {
	if len(keys) != len(specs) {
		return nil, fmt.Errorf("engine: %d keys for %d specs", len(keys), len(specs))
	}
	return e.runAll(ctx, specs, keys, progress)
}

// runAll is RunAll and RunAllKeyed: serve, then the results when every
// spec succeeded, else the root-cause error annotated with the failing
// spec's index, application and technique rather than the cascade of
// cancellations it triggered; a parent-context cancellation surfaces as
// itself.
func (e *Engine) runAll(ctx context.Context, specs []Spec, keys []Key, progress func(i int, res sim.Result)) ([]sim.Result, error) {
	res, errs := e.serve(ctx, specs, keys, progress)
	var canceled error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			canceled = err
			continue
		}
		return nil, fmt.Errorf("engine: spec %d (app=%s, technique=%s): %w", i, specs[i].App, specs[i].Technique, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if canceled != nil {
		return nil, canceled
	}
	return res, nil
}

// forEach calls f(0), …, f(n-1) on min(n, parallelism) goroutines, the
// caller's among them, and returns once every call has. Each index is
// visited exactly once. It runs every phase of a batch: the
// cache-service phases take no worker slot — keying and disk probes are
// cheap next to a simulation, and holding slots for them would stall
// other batches' simulations instead — while each call of the group
// phase takes one for its simulation, so the engine-wide slots still
// bound the simulations of all batches together.
func (e *Engine) forEach(n int, f func(i int)) {
	w := &walk{n: n, f: f}
	for g := 1; g < min(n, e.parallelism); g++ {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.work()
		}()
	}
	w.work()
	w.wg.Wait()
}

// walk is one forEach call's shared state, a single allocation: its
// goroutines take indices from next until n.
type walk struct {
	next atomic.Int64
	wg   sync.WaitGroup
	n    int
	f    func(i int)
}

func (w *walk) work() {
	for {
		i := int(w.next.Add(1)) - 1
		if i >= w.n {
			return
		}
		w.f(i)
	}
}

// serve runs a batch through the cache-entry lifecycle — claim, disk
// probe, pack, simulate and store, settle, then wait on specs served
// elsewhere — and returns each spec's result or error in spec order.
// keys, when non-nil, holds each spec's content key; nil keys the specs
// here. progress, when non-nil, is invoked once per served spec (calls
// are serialized but arrive in completion order). The first failure
// cancels the rest of the batch. Every entry the batch claims is
// resolved before serve returns.
func (e *Engine) serve(parent context.Context, specs []Spec, keys []Key, progress func(int, sim.Result)) ([]sim.Result, []error) {
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

	// Claim: key every spec (on every worker, unless the caller brought
	// the keys), then claim every spec's memory-tier entry in one
	// critical section, so the packer below sees the whole set of specs
	// this batch must simulate. Specs already in flight (or cached)
	// elsewhere become waiters.
	type waiter struct {
		i  int
		en *entry
	}
	var waits []waiter
	var toRun []int
	claims := make([]claim, len(specs))
	if keys == nil {
		e.forEach(len(specs), func(i int) {
			k, err := specs[i].Key()
			if err != nil {
				fail(i, err)
			}
			claims[i].key = k
		})
	} else {
		for i, k := range keys {
			claims[i].key = k
		}
	}
	e.mu.Lock()
	for i := range specs {
		if errs[i] != nil {
			continue // key error already recorded
		}
		en, hit := e.claimLocked(claims[i].key)
		if hit {
			waits = append(waits, waiter{i: i, en: en})
			continue
		}
		claims[i].en = en
		toRun = append(toRun, i)
	}
	e.mu.Unlock()

	// Disk probe, on every worker: owned specs may be served from the
	// persistent tier without simulating, one read per group file. The
	// misses stay in caller order for the packer.
	if e.disk != nil {
		toRun = e.probeDisk(claims, toRun, succeed)
	}

	// Simulate: group the remaining work by machine key so compatible
	// specs share one lockstep kernel run, and run each group once, in a
	// worker slot — a multi-lane group occupies one, like the single
	// simulation its machine steps. Once the batch is cancelled, a group
	// still to start is abandoned instead, its claims resolved with the
	// cancellation so waiters on other batches cannot hang.
	groups := packGroups(specs, toRun)
	e.forEach(len(groups), func(gi int) {
		g := groups[gi].indices
		if !e.acquireSlot(ctx) {
			for _, i := range g {
				e.settle(claims[i], sim.Result{}, ctx.Err())
				fail(i, ctx.Err())
			}
			return
		}
		gs := make([]Spec, len(g))
		gk := make([]Key, len(g))
		for k, i := range g {
			gs[k], gk[k] = specs[i], claims[i].key
		}
		res, gerrs, st := simulate(gs)
		e.releaseSlot()
		e.addKernelStats(st)
		e.store(gk, res, gerrs)
		for k, i := range g {
			e.settle(claims[i], res[k], gerrs[k])
			if gerrs[k] != nil {
				fail(i, gerrs[k])
			} else {
				succeed(i, res[k])
			}
		}
	})

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
	return results, errs
}
