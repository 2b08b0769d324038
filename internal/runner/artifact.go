package runner

import (
	"context"

	"resizecache/internal/sim"
)

// The sweep-artifact cache: figure drivers repeat whole profiling
// sweeps, not just individual configs — Figures 5, 6, 8 and 9 all
// re-derive static/dynamic profiling grids the previous figure already
// selected. Artifact memoizes the *outcome of a sweep* (an opaque
// serialized payload, typically a winner selection) under a
// content-addressed fingerprint, so a warm sweep resolves without
// submitting a single config. Two tiers back it: the in-memory artifact
// table (per Runner) and, when the Runner has a Store, the persistent
// backend shared with per-config results — so cmd/figures -resume skips
// whole sweeps across processes, not just simulations.
//
// The payload is opaque to the runner on purpose: the experiment layer
// owns the schema (and versions it inside its fingerprints), which keeps
// the dependency arrow pointing from experiment to runner.

// artifactEntry is one artifact fingerprint's slot: the owner computes
// and closes done; concurrent callers of the same fingerprint wait.
type artifactEntry struct {
	done chan struct{}
	data []byte
	err  error
}

// Artifact resolves a sweep-level artifact: the in-memory tier first,
// then the persistent store, then compute. Concurrent calls for the
// same key run compute once (the others wait for it). Successful
// payloads are memoized in memory and recorded to the store; errors are
// never memoized — the per-config memo table underneath already replays
// stored failures cheaply, and caching a cancellation would poison the
// fingerprint for later live contexts.
//
// Payloads must be valid JSON (the Store contract embeds them in JSON
// documents). The returned slice is the caller's to keep: it never
// aliases the cache, so mutating it cannot corrupt later hits.
func (r *Runner) Artifact(ctx context.Context, key sim.Key, compute func(context.Context) ([]byte, error)) ([]byte, error) {
	for {
		data, err, retry := r.artifactOnce(ctx, key, compute)
		if !retry {
			if data != nil {
				data = append([]byte(nil), data...)
			}
			return data, err
		}
	}
}

// artifactOnce mirrors runKey's resolve-or-own protocol for one artifact
// fingerprint. retry is true when the entry it waited on failed in a way
// that does not apply to this caller (the owner erred or was cancelled;
// the entry has been evicted, so this caller can take ownership).
func (r *Runner) artifactOnce(ctx context.Context, key sim.Key, compute func(context.Context) ([]byte, error)) ([]byte, error, bool) {
	if err := ctx.Err(); err != nil {
		return nil, err, false
	}

	r.artMu.Lock()
	if e, ok := r.artifacts[key]; ok {
		select {
		case <-e.done: // completed: only successes stay in the table
			r.artMu.Unlock()
			r.artHits.Add(1)
			return e.data, nil, false
		default: // computing: join it
			r.artMu.Unlock()
			select {
			case <-e.done:
				if e.err != nil {
					if ctx.Err() == nil {
						return nil, nil, true // owner failed; retry with our context
					}
					return nil, ctx.Err(), false
				}
				r.artHits.Add(1)
				return e.data, nil, false
			case <-ctx.Done():
				return nil, ctx.Err(), false
			}
		}
	}
	e := &artifactEntry{done: make(chan struct{})}
	r.artifacts[key] = e
	r.artMu.Unlock()

	if r.store != nil {
		if data, ok := r.store.LookupArtifact(key); ok {
			r.artStoreHits.Add(1)
			r.artifactComplete(key, e, data, nil)
			return data, nil, false
		}
	}

	r.artComputes.Add(1)
	data, err := compute(ctx)
	if err == nil && r.store != nil {
		r.store.RecordArtifact(key, data)
	}
	r.artifactComplete(key, e, data, err)
	return data, err, false
}

// HasArtifact reports whether an artifact fingerprint would resolve
// without computing: it is memoized (or being computed right now) in the
// in-memory tier, or present in the persistent store. Batch schedulers
// probe it before enqueueing a sweep's simulations, so warm sweeps cost
// nothing — not even redundant submissions that would immediately
// memo-hit.
func (r *Runner) HasArtifact(key sim.Key) bool {
	r.artMu.Lock()
	_, ok := r.artifacts[key]
	r.artMu.Unlock()
	if ok {
		return true
	}
	if r.store != nil {
		if _, ok := r.store.LookupArtifact(key); ok {
			return true
		}
	}
	return false
}

// PutArtifact force-installs an artifact payload in both tiers,
// replacing whatever either held. Cache layers above use it to repair a
// fingerprint whose stored payload no longer decodes — without it the
// undecodable bytes would keep hitting and force a recompute on every
// call, in every process, forever.
func (r *Runner) PutArtifact(key sim.Key, data []byte) {
	e := &artifactEntry{done: make(chan struct{}), data: append([]byte(nil), data...)}
	close(e.done)
	r.artMu.Lock()
	r.artifacts[key] = e
	r.artMu.Unlock()
	if r.store != nil {
		r.store.RecordArtifact(key, data)
	}
}

// artifactComplete publishes an artifact outcome; failed computations
// are evicted so the fingerprint can be retried.
func (r *Runner) artifactComplete(key sim.Key, e *artifactEntry, data []byte, err error) {
	e.data, e.err = data, err
	if err != nil {
		r.artMu.Lock()
		delete(r.artifacts, key)
		r.artMu.Unlock()
	}
	close(e.done)
}
