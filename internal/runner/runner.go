// Package runner is the run-orchestration layer: every simulation in
// the repository executes through a Runner, which owns the worker pool
// and a content-addressed result store keyed by sim.Config fingerprints
// (sim.Key). The paper's evaluation is a design-space sweep that
// re-visits many identical configurations — every profiling sweep
// re-runs the non-resizable baseline, and figure drivers repeat whole
// sweeps — so the Runner:
//
//   - memoizes completed results, so an identical config simulates once
//     per process (or once ever, with a persistent store);
//   - deduplicates identical configs that are in flight concurrently,
//     so parallel sweeps sharing a baseline do not race to re-run it;
//   - memoizes sweep-level artifacts (serialized winner selections, see
//     Artifact) so whole sweeps — not just individual configs — resolve
//     without re-running when a later figure driver repeats them;
//   - bounds concurrency with one shared semaphore instead of a pool
//     per sweep, so nested experiment drivers cannot oversubscribe;
//   - optionally bounds the in-memory memo table with LRU eviction, so
//     very large sweeps cannot grow it without limit;
//   - honours context cancellation between (not within) simulations;
//   - returns batch results in deterministic submission order;
//   - accepts whole plans up front (Enqueue): a batch of configs is
//     registered and scheduled without waiting, so later Run/RunAll
//     calls join the in-flight work instead of fanning out their own
//     per-sweep barrier, and the pool interleaves across sweeps.
//
// There is no process-wide runner: every caller constructs one with New
// and passes it explicitly, so sweeps memoize against each other exactly
// when they share a Runner (a Session, a daemon, a test).
package runner

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"resizecache/internal/sim"
)

// Options configures a Runner.
type Options struct {
	// Workers bounds concurrently executing simulations (0 = GOMAXPROCS).
	Workers int
	// Store, if non-nil, persists results and sweep artifacts across
	// processes: fingerprints found in the store resolve without
	// simulating, and every fresh outcome — including real simulation
	// errors, but never cancellations — is added to it. Call Store.Flush
	// to write it out.
	Store Store
	// MemoLimit bounds the number of completed entries kept in the
	// in-memory memo table; the least recently used entry is evicted
	// beyond it (0 = unbounded). Evicted configs re-simulate on the next
	// submission unless a Store still holds them.
	MemoLimit int
	// GangSize bounds how many same-front-end configs one Enqueue pass
	// coalesces into a single gang simulation (sim.RunGang). 0 means
	// DefaultGangSize; 1 disables coalescing.
	GangSize int
	// RunGang overrides the simulation entry point (nil = the
	// checkpoint-aware sim.RunGangWithCheckpoints against Store). It is
	// the only simulation seam: every config executes through it, a solo
	// config as a one-element slice and coalesced configs as one call per
	// gang. Tests stub it to control timing and inject failures.
	RunGang func([]sim.Config) ([]sim.Result, error)
}

// DefaultGangSize is the gang bound when Options.GangSize is zero. Eight
// members amortize the shared front-end well past the 2× mark while
// keeping a gang's machine state compact and the pool's units of work
// evenly sized.
const DefaultGangSize = 8

// Stats is a snapshot of a Runner's scheduling counters.
type Stats struct {
	// Submitted counts Run calls (RunAll counts once per config).
	Submitted uint64
	// MemoHits resolved against an already-completed in-memory result.
	MemoHits uint64
	// StoreHits resolved against the persistent store without simulating.
	StoreHits uint64
	// InFlightDedups joined an identical config already executing.
	InFlightDedups uint64
	// Runs actually executed a simulation.
	Runs uint64
	// Errors counts failed submissions: fresh simulations that returned
	// an error plus stored failures replayed from the persistent store.
	Errors uint64
	// Evictions counts completed memo entries dropped by the LRU bound.
	Evictions uint64
	// Enqueued counts configs submitted through Enqueue that were not
	// already memoized or in flight (each got an owner goroutine).
	Enqueued uint64
	// Ganged counts configs simulated as members of a coalesced gang of
	// two or more (a subset of Runs): one workload+engine pass served
	// each batch. Solo configs run as gangs of one and are not counted.
	Ganged uint64
	// GangBatches counts the gang passes dispatched; Ganged/GangBatches
	// is the realized average gang size.
	GangBatches uint64
	// EnqueueBatches counts Enqueue calls that registered fresh work —
	// the batched, non-blocking submission passes of plan execution.
	// Calls fully covered by the memo table or in-flight entries (a warm
	// plan, or a solo sweep whose configs an earlier pass enqueued) are
	// not counted.
	EnqueueBatches uint64
	// Barriers counts RunAll batches that had to submit fresh work (at
	// least one config neither memoized nor in flight): the caller
	// fanned out its own submissions and blocked on them. Batches fully
	// covered by earlier Enqueue/Run calls just join existing entries
	// and are not counted, so a plan whose sweeps were enqueued up
	// front gathers with zero barriers.
	Barriers uint64
	// ArtifactHits resolved a sweep-level artifact from the in-memory
	// tier (including joins of an in-flight computation).
	ArtifactHits uint64
	// ArtifactStoreHits resolved an artifact from the persistent store.
	ArtifactStoreHits uint64
	// ArtifactComputes ran a sweep to produce an artifact.
	ArtifactComputes uint64
	// RemoteHits counts result and artifact lookups served by a remote
	// store tier (a RemoteCounter backend such as NetStore). They are a
	// subset of StoreHits/ArtifactStoreHits: every remote hit is also a
	// store hit, so the two together separate local memo traffic from
	// network store traffic.
	RemoteHits uint64
	// RemoteErrors counts remote-store round trips that failed and were
	// degraded to misses (lookups) or dropped (records).
	RemoteErrors uint64
	// BreakerTrips counts the times the remote store's circuit breaker
	// opened (a BreakerCounter backend such as NetStore): runs of
	// consecutive failures after which the store stopped calling out
	// and served misses locally for a cooldown.
	BreakerTrips uint64
	// WarmupHits counts simulations whose warmup prefix was restored
	// from a persisted checkpoint instead of being re-executed (sampled
	// configs with a warmup, running through the default entry points
	// against a Store). This is the counter CI's warm-replay smoke job
	// asserts is nonzero.
	WarmupHits uint64
	// WarmupSaves counts warmup checkpoints computed and recorded for
	// later runs to restore.
	WarmupSaves uint64
}

// Hits is the total number of submissions that skipped simulation.
func (s Stats) Hits() uint64 { return s.MemoHits + s.StoreHits + s.InFlightDedups }

func (s Stats) String() string {
	out := fmt.Sprintf("runner: %d submitted, %d simulated, %d memo hits, %d store hits, %d in-flight dedups, %d errors, %d evictions; batch: %d enqueued in %d passes, %d barriers; gangs: %d ganged in %d batches; artifacts: %d hits, %d store hits, %d computes",
		s.Submitted, s.Runs, s.MemoHits, s.StoreHits, s.InFlightDedups, s.Errors,
		s.Evictions, s.Enqueued, s.EnqueueBatches, s.Barriers,
		s.Ganged, s.GangBatches,
		s.ArtifactHits, s.ArtifactStoreHits, s.ArtifactComputes)
	if s.RemoteHits > 0 || s.RemoteErrors > 0 || s.BreakerTrips > 0 {
		out += fmt.Sprintf("; remote: %d hits, %d errors", s.RemoteHits, s.RemoteErrors)
		if s.BreakerTrips > 0 {
			out += fmt.Sprintf(", %d breaker trips", s.BreakerTrips)
		}
	}
	if s.WarmupHits > 0 || s.WarmupSaves > 0 {
		out += fmt.Sprintf("; warmups: %d checkpoint hits, %d saves", s.WarmupHits, s.WarmupSaves)
	}
	return out
}

// Delta returns the field-wise difference s − prev: the runner activity
// between two snapshots. The facade reports per-call deltas in its
// outcomes instead of cumulative counters; note that on a shared runner
// a delta attributes everything that happened in the window, including
// work submitted by concurrent callers.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Submitted:         s.Submitted - prev.Submitted,
		MemoHits:          s.MemoHits - prev.MemoHits,
		StoreHits:         s.StoreHits - prev.StoreHits,
		InFlightDedups:    s.InFlightDedups - prev.InFlightDedups,
		Runs:              s.Runs - prev.Runs,
		Errors:            s.Errors - prev.Errors,
		Evictions:         s.Evictions - prev.Evictions,
		Enqueued:          s.Enqueued - prev.Enqueued,
		Ganged:            s.Ganged - prev.Ganged,
		GangBatches:       s.GangBatches - prev.GangBatches,
		EnqueueBatches:    s.EnqueueBatches - prev.EnqueueBatches,
		Barriers:          s.Barriers - prev.Barriers,
		ArtifactHits:      s.ArtifactHits - prev.ArtifactHits,
		ArtifactStoreHits: s.ArtifactStoreHits - prev.ArtifactStoreHits,
		ArtifactComputes:  s.ArtifactComputes - prev.ArtifactComputes,
		RemoteHits:        s.RemoteHits - prev.RemoteHits,
		RemoteErrors:      s.RemoteErrors - prev.RemoteErrors,
		BreakerTrips:      s.BreakerTrips - prev.BreakerTrips,
		WarmupHits:        s.WarmupHits - prev.WarmupHits,
		WarmupSaves:       s.WarmupSaves - prev.WarmupSaves,
	}
}

// entry is one fingerprint's slot in the memo table. The owner (the
// goroutine that created the entry) simulates and closes done; waiters
// block on done. Completed entries stay in the table as the memo store,
// tracked by the LRU list when a memo limit is set.
type entry struct {
	done chan struct{}
	res  sim.Result
	err  error
	elem *list.Element // LRU position once completed (nil if unbounded)
}

// Runner schedules simulations; see the package comment. The zero value
// is not usable — construct with New.
type Runner struct {
	sem       chan struct{}
	store     Store
	memoLimit int
	runGang   func([]sim.Config) ([]sim.Result, error)
	gangSize  int

	mu      sync.Mutex
	entries map[sim.Key]*entry
	lru     *list.List // of sim.Key; front = most recently used

	artMu     sync.Mutex
	artifacts map[sim.Key]*artifactEntry

	submitted, memoHits, storeHits, dedups, runs, errs atomic.Uint64
	evictions, artHits, artStoreHits, artComputes      atomic.Uint64
	enqueued, enqueueBatches, barriers                 atomic.Uint64
	ganged, gangBatches                                atomic.Uint64
	warmupHits, warmupSaves                            atomic.Uint64
}

// noteWarmup folds one gang pass's warmup-checkpoint outcome into the
// counters. Only the default (non-stubbed) entry point reports.
func (r *Runner) noteWarmup(ws sim.WarmupStats) {
	if ws.CheckpointHit {
		r.warmupHits.Add(1)
	}
	if ws.CheckpointSaved {
		r.warmupSaves.Add(1)
	}
}

// checkpointTier exposes the Runner's store as a warmup-checkpoint
// store. Warmup checkpoints ride the artifact half of the Store
// contract, so any persistent backend — disk or network — shares them
// across processes for free.
func (r *Runner) checkpointTier() sim.CheckpointStore {
	if r.store == nil {
		return nil
	}
	return r.store
}

// New constructs a Runner.
func New(opts Options) *Runner {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	gangSize := opts.GangSize
	if gangSize == 0 {
		gangSize = DefaultGangSize
	}
	if gangSize < 1 {
		gangSize = 1
	}
	r := &Runner{
		sem:       make(chan struct{}, workers),
		store:     opts.Store,
		memoLimit: opts.MemoLimit,
		runGang:   opts.RunGang,
		gangSize:  gangSize,
		entries:   make(map[sim.Key]*entry),
		lru:       list.New(),
		artifacts: make(map[sim.Key]*artifactEntry),
	}
	if r.runGang == nil {
		// The default entry point is checkpoint-aware: sampled configs
		// with a warmup prefix restore (or record) their warm state
		// through the Runner's store, so configs sharing a front-end skip
		// warmup — including across processes when the store persists.
		r.runGang = func(cfgs []sim.Config) ([]sim.Result, error) {
			out, ws, err := sim.RunGangWithCheckpoints(cfgs, r.checkpointTier())
			r.noteWarmup(ws)
			return out, err
		}
	}
	return r
}

// Stats snapshots the counters. When the store is a remote tier
// (RemoteCounter), its hit/error counts are folded in, as are breaker
// trips when it guards itself with a circuit breaker (BreakerCounter).
func (r *Runner) Stats() Stats {
	var remoteHits, remoteErrs, breakerTrips uint64
	if rc, ok := r.store.(RemoteCounter); ok {
		remoteHits, remoteErrs = rc.RemoteCounts()
	}
	if bc, ok := r.store.(BreakerCounter); ok {
		breakerTrips = bc.BreakerTrips()
	}
	return Stats{
		RemoteHits:        remoteHits,
		RemoteErrors:      remoteErrs,
		BreakerTrips:      breakerTrips,
		Submitted:         r.submitted.Load(),
		MemoHits:          r.memoHits.Load(),
		StoreHits:         r.storeHits.Load(),
		InFlightDedups:    r.dedups.Load(),
		Runs:              r.runs.Load(),
		Errors:            r.errs.Load(),
		Evictions:         r.evictions.Load(),
		Enqueued:          r.enqueued.Load(),
		Ganged:            r.ganged.Load(),
		GangBatches:       r.gangBatches.Load(),
		EnqueueBatches:    r.enqueueBatches.Load(),
		Barriers:          r.barriers.Load(),
		ArtifactHits:      r.artHits.Load(),
		ArtifactStoreHits: r.artStoreHits.Load(),
		ArtifactComputes:  r.artComputes.Load(),
		WarmupHits:        r.warmupHits.Load(),
		WarmupSaves:       r.warmupSaves.Load(),
	}
}

// Run executes (or resolves from memo/store/in-flight work) one config.
// Identical configs are only ever simulated once per Runner; errors are
// memoized like results, except cancellation errors, which evict the
// entry so a later live context can retry.
func (r *Runner) Run(ctx context.Context, cfg sim.Config) (sim.Result, error) {
	return r.run(ctx, cfg.Key(), cfg)
}

// run is Run for a config whose fingerprint the caller already holds.
func (r *Runner) run(ctx context.Context, key sim.Key, cfg sim.Config) (sim.Result, error) {
	r.submitted.Add(1)
	for {
		res, err, retry := r.runKey(ctx, key, cfg)
		if !retry {
			return res, err
		}
	}
}

// runKey resolves one fingerprint. retry is true when the entry it
// waited on was evicted after a cancellation that does not apply to this
// caller's still-live context.
func (r *Runner) runKey(ctx context.Context, key sim.Key, cfg sim.Config) (sim.Result, error, bool) {
	if err := ctx.Err(); err != nil {
		return sim.Result{}, err, false
	}

	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		select {
		case <-e.done: // completed: memo hit
			if e.elem != nil {
				r.lru.MoveToFront(e.elem)
			}
			r.mu.Unlock()
			r.memoHits.Add(1)
			return e.res, e.err, false
		default: // executing: join it
			r.mu.Unlock()
			r.dedups.Add(1)
			select {
			case <-e.done:
				if e.err != nil && isCancellation(e.err) && ctx.Err() == nil {
					return sim.Result{}, nil, true // owner was cancelled, we are not
				}
				return e.res, e.err, false
			case <-ctx.Done():
				return sim.Result{}, ctx.Err(), false
			}
		}
	}
	e := &entry{done: make(chan struct{})}
	r.entries[key] = e
	r.mu.Unlock()

	r.executeBatch(ctx, []gangItem{{cfg: cfg, key: key, e: e}})
	return e.res, e.err, false
}

// Enqueue submits a batch of configs without waiting for their results:
// fingerprints not yet known to the runner are registered synchronously
// — before Enqueue returns, a later Run/RunAll of the same config joins
// the in-flight work instead of fanning out its own — and execute on
// the shared worker pool in the background. Fingerprints already
// memoized or executing are skipped. Outcomes land in the memo table
// and persistent store exactly as if Run had been called; cancelling
// ctx abandons work that has not started, leaving those fingerprints
// retryable. keys[i] must be cfgs[i].Key(): batch callers fingerprint
// once and share the keys with RunAll. Returns the number of configs
// actually enqueued.
//
// Enqueue is the batch-scheduling primitive behind plan execution: a
// multi-sweep plan enqueues every profiling simulation in one pass, so
// the pool interleaves across sweeps and scenarios instead of draining
// at each sequential caller's per-sweep barrier.
//
// The returned wait function blocks until every goroutine this call
// spawned has published its outcome (to the memo table and, when
// configured, the persistent store). Callers that flush a store after
// abandoning a batch — a plan whose gathers errored early, leaving
// enqueued stragglers mid-simulation — must cancel ctx and wait before
// flushing, or completed results can land after the flush and be lost.
// Enqueue additionally coalesces the batch's memo-miss configs into
// gangs: configs sharing a front-end fingerprint (sim.Config.FrontKey —
// same benchmark, budget, engine, pipeline) run through one gang
// simulation of up to GangSize members instead of GangSize independent
// passes. Coalescing is invisible to waiters — outcomes publish to the
// same entries — and is accounted by the Ganged/GangBatches counters.
func (r *Runner) Enqueue(ctx context.Context, cfgs []sim.Config, keys []sim.Key) (int, func()) {
	mustMatch(cfgs, keys)
	if len(cfgs) == 0 || ctx.Err() != nil {
		return 0, func() {}
	}
	var wg sync.WaitGroup
	var fresh []gangItem
	for i, key := range keys {
		r.mu.Lock()
		if _, ok := r.entries[key]; ok {
			r.mu.Unlock()
			continue
		}
		e := &entry{done: make(chan struct{})}
		r.entries[key] = e
		r.mu.Unlock()
		fresh = append(fresh, gangItem{cfg: cfgs[i], key: key, e: e})
	}
	if len(fresh) == 0 {
		return 0, func() {}
	}
	r.enqueueBatches.Add(1)
	r.enqueued.Add(uint64(len(fresh)))

	// Group the fresh entries by shared front-end; each same-front group
	// dispatches as batches of up to gangSize (a straggler is a batch of
	// one).
	groups := make(map[sim.Key][]gangItem)
	var order []sim.Key
	for _, it := range fresh {
		fk := it.cfg.FrontKey()
		if _, ok := groups[fk]; !ok {
			order = append(order, fk)
		}
		groups[fk] = append(groups[fk], it)
	}
	for _, fk := range order {
		g := groups[fk]
		for len(g) > 0 {
			n := min(r.gangSize, len(g))
			batch := g[:n]
			g = g[n:]
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.executeBatch(ctx, batch)
			}()
		}
	}
	return len(fresh), wg.Wait
}

// gangItem is one registered entry awaiting execution.
type gangItem struct {
	cfg sim.Config
	key sim.Key
	e   *entry
}

// executeBatch owns a batch of registered same-front entries; it is the
// one place configs execute. Members found in the persistent store
// resolve individually; the rest run as one gang pass (sim.RunGang)
// under a single worker slot, then count, persist and publish. Run
// owners submit a batch of one, Enqueue up to GangSize, so enqueued work
// persists, counts and cancels exactly like directly submitted work. The
// gang entry point rejects a whole batch on any member's error, so a
// failed gang of two or more re-runs each member as a batch of one: error
// outcomes and their attribution are those of a solo run.
func (r *Runner) executeBatch(ctx context.Context, batch []gangItem) {
	live := batch[:0]
	for _, it := range batch {
		if r.store != nil {
			if sr, ok := r.store.Lookup(it.key); ok {
				r.storeHits.Add(1)
				var err error
				if sr.Err != "" {
					// Replay the persisted failure instead of re-simulating
					// a config known to fail.
					err = &StoredError{Msg: sr.Err}
					r.errs.Add(1)
				}
				r.complete(it.key, it.e, sr.Result, err)
				continue
			}
		}
		live = append(live, it)
	}
	if len(live) == 0 {
		return
	}
	cfgs := make([]sim.Config, len(live))
	for i, it := range live {
		cfgs[i] = it.cfg
	}

	// Acquire a worker slot, simulate, publish.
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		for _, it := range live {
			r.complete(it.key, it.e, sim.Result{}, ctx.Err())
		}
		return
	}
	results, err := r.runGang(cfgs)
	<-r.sem

	ganged := len(live) > 1
	if err != nil && ganged {
		for _, it := range live {
			r.executeBatch(ctx, []gangItem{it})
		}
		return
	}
	if ganged {
		r.gangBatches.Add(1)
		r.ganged.Add(uint64(len(live)))
	}
	for i, it := range live {
		var res sim.Result
		if err == nil {
			res = results[i]
		}
		r.runs.Add(1)
		if err != nil {
			r.errs.Add(1)
		}
		if r.store != nil && !isCancellation(err) {
			sr := StoredResult{Result: res}
			if err != nil {
				sr.Err = err.Error()
			}
			r.store.Record(it.key, sr)
		}
		r.complete(it.key, it.e, res, err)
	}
}

// complete publishes an entry's outcome. Cancellation outcomes are
// evicted from the table so the fingerprint can be retried later; other
// outcomes join the LRU list when a memo limit is set, evicting the
// least recently used completed entries beyond the bound.
func (r *Runner) complete(key sim.Key, e *entry, res sim.Result, err error) {
	e.res, e.err = res, err
	r.mu.Lock()
	switch {
	case err != nil && isCancellation(err):
		delete(r.entries, key)
	case r.memoLimit > 0:
		e.elem = r.lru.PushFront(key)
		for r.lru.Len() > r.memoLimit {
			oldest := r.lru.Back()
			r.lru.Remove(oldest)
			delete(r.entries, oldest.Value.(sim.Key))
			r.evictions.Add(1)
		}
	}
	r.mu.Unlock()
	close(e.done)
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunAll executes a batch over precomputed fingerprints (keys[i] must
// be cfgs[i].Key(), e.g. from sim.Keys) and returns results in
// submission order. The first failing config (by submission index)
// determines the returned error. Concurrency is bounded by the Runner's
// shared worker pool.
func (r *Runner) RunAll(ctx context.Context, cfgs []sim.Config, keys []sim.Key) ([]sim.Result, error) {
	mustMatch(cfgs, keys)
	// A batch that must submit work not already in flight or memoized is
	// a fan-out barrier: the caller blocks until its own submissions
	// drain. Batches fully covered by an earlier Enqueue pass (or prior
	// runs) just join existing entries and are not counted — the Barriers
	// counter is how batch-scheduled plans prove they gather without
	// fanning out.
	fresh := false
	r.mu.Lock()
	for _, k := range keys {
		if _, ok := r.entries[k]; !ok {
			fresh = true
			break
		}
	}
	r.mu.Unlock()
	if fresh {
		r.barriers.Add(1)
	}

	results := make([]sim.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.run(ctx, keys[i], cfgs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runner: config %d (%s): %w", i, cfgs[i].Benchmark, err)
		}
	}
	return results, nil
}

// mustMatch rejects a batch whose fingerprint slice does not pair up
// with its configs: a misaligned key would memoize one config's outcome
// under another's fingerprint.
func mustMatch(cfgs []sim.Config, keys []sim.Key) {
	if len(cfgs) != len(keys) {
		panic(fmt.Sprintf("runner: %d configs with %d keys", len(cfgs), len(keys)))
	}
}
