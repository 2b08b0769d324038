package runner

import (
	"context"
	"encoding/json"
	"reflect"

	"resizecache/internal/sim"
)

// The sweep-artifact cache: figure drivers repeat whole profiling
// sweeps, not just individual configs — Figures 5, 6, 8 and 9 all
// re-derive static/dynamic profiling grids the previous figure already
// selected. Artifact memoizes the *outcome of a sweep* (a JSON-encoded
// value, typically a winner selection) under a content-addressed
// fingerprint, so a warm sweep resolves without submitting a single
// config. Two tiers back it: the in-memory artifact table (per Runner)
// and, when the Runner has a Store, the persistent backend shared with
// per-config results — so cmd/figures -resume skips whole sweeps across
// processes, not just simulations.
//
// The value's schema belongs to the caller, which versions it inside
// its fingerprints; the runner only encodes, stores and decodes it, which
// keeps the dependency arrow pointing from the caller to the runner.

// artifactEntry is one artifact fingerprint's slot: the owner computes
// and closes done; concurrent callers of the same fingerprint wait.
type artifactEntry struct {
	done chan struct{}
	data []byte
	err  error
}

// Artifact resolves a sweep-level artifact into out (a pointer, as for
// json.Unmarshal): the in-memory tier first, then the persistent store,
// then compute. Concurrent calls for the same key run compute once (the
// others wait for it). A computed value is JSON-encoded, memoized in
// memory, recorded to the store and decoded into out, so cold and warm
// calls return identical values. A stored payload that does not decode
// into out (e.g. written by a build with another schema) counts as a
// compute, not a store hit: it is recomputed once and overwritten in
// both tiers, so the broken bytes cost one recompute, not one per call.
//
// Errors are never memoized — the per-config memo table underneath
// already replays stored failures cheaply, and caching a cancellation
// would poison the fingerprint for later live contexts. On error out is
// left zeroed or untouched.
func (r *Runner) Artifact(ctx context.Context, key sim.Key, out any, compute func(context.Context) (any, error)) error {
	for {
		if err, retry := r.artifactOnce(ctx, key, out, compute); !retry {
			return err
		}
	}
}

// artifactOnce mirrors runKey's resolve-or-own protocol for one artifact
// fingerprint. retry is true when the entry it waited on failed in a way
// that does not apply to this caller (the owner erred or was cancelled;
// the entry has been evicted, so this caller can take ownership).
func (r *Runner) artifactOnce(ctx context.Context, key sim.Key, out any, compute func(context.Context) (any, error)) (error, bool) {
	if err := ctx.Err(); err != nil {
		return err, false
	}

	r.artMu.Lock()
	if e, ok := r.artifacts[key]; ok {
		select {
		case <-e.done: // completed: only successes stay in the table
			r.artMu.Unlock()
			r.artHits.Add(1)
			return DecodeArtifact(e.data, out), false
		default: // computing: join it
			r.artMu.Unlock()
			select {
			case <-e.done:
				if e.err != nil {
					if ctx.Err() == nil {
						return nil, true // owner failed; retry with our context
					}
					return ctx.Err(), false
				}
				r.artHits.Add(1)
				return DecodeArtifact(e.data, out), false
			case <-ctx.Done():
				return ctx.Err(), false
			}
		}
	}
	e := &artifactEntry{done: make(chan struct{})}
	r.artifacts[key] = e
	r.artMu.Unlock()

	if r.store != nil {
		if data, ok := r.store.LookupArtifact(key); ok && DecodeArtifact(data, out) == nil {
			r.artStoreHits.Add(1)
			r.artifactComplete(key, e, data, nil)
			return nil, false
		}
	}

	r.artComputes.Add(1)
	data, err := encodeArtifact(ctx, compute)
	if err == nil && r.store != nil {
		r.store.RecordArtifact(key, data)
	}
	r.artifactComplete(key, e, data, err)
	if err != nil {
		return err, false
	}
	return DecodeArtifact(data, out), false
}

// encodeArtifact runs compute and JSON-encodes its value.
func encodeArtifact(ctx context.Context, compute func(context.Context) (any, error)) ([]byte, error) {
	v, err := compute(ctx)
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// DecodeArtifact unmarshals an artifact payload into out, zeroing out
// again when the payload does not decode, so a half-applied foreign
// payload cannot leak into the value a recompute decodes over it. Cache
// layers with their own lookup path (the daemon client) share it.
func DecodeArtifact(data []byte, out any) error {
	err := json.Unmarshal(data, out)
	if err != nil {
		if v := reflect.ValueOf(out); v.Kind() == reflect.Pointer && !v.IsNil() {
			v.Elem().SetZero()
		}
	}
	return err
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
