package resizecache

// The remote execution surface: Dial connects to a long-lived simd
// daemon (cmd/simd, internal/simd) and returns a RemoteSession that
// satisfies the same Executor surface as an in-process Session. Plans
// serialize to the daemon, which partitions them across its worker
// shards through the shared runner — so gang coalescing, in-flight
// dedup, and memoization work across every connected client — and
// streams per-scenario results back with the same error-isolation and
// completed-of-total progress semantics Session.Run gives locally.

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"resizecache/internal/runner"
	simdclient "resizecache/internal/simd/client"
	"resizecache/internal/simd/wire"
)

// RemoteError is a failure reported by the daemon — either a scenario's
// isolated simulation error replayed over the wire, or a request-level
// rejection.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "resizecache: remote: " + e.Msg }

// RemoteSession executes scenarios on a simd daemon. It is an Executor:
// Run, SimulateContext and Artifact behave like Session's, except that
// simulations run in the daemon's worker pool and memoize against every
// other client's work. Safe for concurrent use; one connection
// multiplexes concurrent plans. Close when done.
//
// The session is fault tolerant: the underlying client reconnects with
// capped exponential backoff (failing over across a comma-separated
// address list), synchronous calls are bounded by a default timeout and
// retried across reconnects, and Run resubmits the undelivered remainder
// of a plan when the transport fails mid-stream — delivered results are
// never re-requested or duplicated, and the daemon's memo table makes a
// resubmission of already-finished work a warm replay. DialOptions
// tunes the retry budget and adds an optional local-fallback session.
type RemoteSession struct {
	conn     *simdclient.Conn
	attempts int
	fallback *Session
}

var _ Executor = (*RemoteSession)(nil)

// DefaultPlanAttempts is how many times Run submits a plan (first
// submission plus resubmissions after mid-stream transport failures)
// before degrading or failing.
const DefaultPlanAttempts = 3

// DialOptions tunes DialWith. The zero value gives the defaults a
// plain Dial uses.
type DialOptions struct {
	// CallTimeout bounds each synchronous round trip — Stats, Flush,
	// artifact lookups — whose context carries no deadline of its own
	// (0 = simdclient.DefaultCallTimeout; negative = no bound).
	CallTimeout time.Duration
	// PlanAttempts is Run's submission budget per plan: the first
	// submission plus reconnect-and-resubmit retries after transport
	// failures (0 = DefaultPlanAttempts; negative or 1 = no retry).
	PlanAttempts int
	// BackoffBase / BackoffMax shape the capped exponential backoff
	// between reconnect attempts (0 = the simdclient defaults).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// LocalFallback, when set, is the graceful-degradation path:
	// scenarios still undelivered after every plan attempt run on this
	// in-process session instead of failing. The run completes with
	// correct results at local speed — losing the fabric's sharing, not
	// the answer. The caller keeps ownership of the session.
	LocalFallback *Session
}

// Dial connects to a simd daemon with default fault tolerance. Address
// forms: "unix:<path>", "tcp:<host:port>", a bare path containing a
// path separator (unix), or a bare host:port (tcp). A comma-separated
// list of addresses ("tcp:10.0.0.1:9821,tcp:10.0.0.2:9821") dials the
// first reachable daemon and fails over round-robin when a connection
// dies.
func Dial(addr string) (*RemoteSession, error) {
	return DialWith(addr, DialOptions{})
}

// DialWith is Dial with explicit fault-tolerance tuning.
func DialWith(addr string, opts DialOptions) (*RemoteSession, error) {
	conn, err := simdclient.DialWith(addr, simdclient.Options{
		CallTimeout: opts.CallTimeout,
		BackoffBase: opts.BackoffBase,
		BackoffMax:  opts.BackoffMax,
	})
	if err != nil {
		return nil, fmt.Errorf("resizecache: dial %s: %w", addr, err)
	}
	attempts := opts.PlanAttempts
	if attempts == 0 {
		attempts = DefaultPlanAttempts
	}
	if attempts < 1 {
		attempts = 1
	}
	return &RemoteSession{conn: conn, attempts: attempts, fallback: opts.LocalFallback}, nil
}

// Close tears down the daemon connection; in-flight plans terminate
// with transport errors.
func (s *RemoteSession) Close() error { return s.conn.Close() }

// Run executes a plan on the daemon and streams results with
// Session.Run's contract: exactly plan.Len() results on a channel
// buffered to the plan size, per-scenario error isolation, OnResult
// progress in completion order.
//
// Plans are resumable: when the transport fails mid-stream, Run
// reconnects (with the client's backoff and failover policy) and
// resubmits only the scenarios whose results it has not yet received —
// each scenario's result is delivered exactly once, and scenarios the
// daemon already finished replay from its memo table instead of
// re-simulating. After PlanAttempts submissions the session degrades to
// the LocalFallback session if one was configured; otherwise the final
// transport error is delivered as each unfinished scenario's
// Result.Err. Cancelling ctx cancels the remote plan and attributes
// ctx's error the same way.
func (s *RemoteSession) Run(ctx context.Context, plan Plan, opts ...RunOption) <-chan Result {
	var ro runOptions
	for _, o := range opts {
		o(&ro)
	}
	out := make(chan Result, plan.Len())
	if plan.Len() == 0 {
		close(out)
		return out
	}
	scenarios := plan.scenarios
	go func() {
		defer close(out)
		total := len(scenarios)
		delivered := make([]bool, total)
		completed := 0
		deliver := func(res Result) {
			delivered[res.Index] = true
			completed++
			if ro.onResult != nil {
				ro.onResult(res, completed, total)
			}
			out <- res
		}
		// remaining lists the original indices of undelivered scenarios:
		// the submission set of the next attempt, in plan order.
		remaining := func() []int {
			idx := make([]int, 0, total-completed)
			for i, done := range delivered {
				if !done {
					idx = append(idx, i)
				}
			}
			return idx
		}

		var err error
		for attempt := 0; attempt < s.attempts && completed < total; attempt++ {
			idx := remaining()
			sub := make([]Scenario, len(idx))
			for i, orig := range idx {
				sub[i] = scenarios[orig]
			}
			var payload []byte
			if payload, err = json.Marshal(sub); err != nil {
				break
			}
			err = s.conn.Stream(ctx, wire.Request{Op: wire.OpPlan, Scenarios: payload},
				func(f wire.Response) error {
					// The frame's index is into this attempt's submission;
					// map it back to the original plan position.
					if f.Index < 0 || f.Index >= len(idx) || delivered[idx[f.Index]] {
						return fmt.Errorf("resizecache: remote plan stream: unexpected result index %d", f.Index)
					}
					orig := idx[f.Index]
					res := Result{Index: orig, Scenario: scenarios[orig]}
					switch {
					case f.Err != "":
						res.Err = &RemoteError{Msg: f.Err}
					default:
						if uerr := json.Unmarshal(f.Outcome, &res.Outcome); uerr != nil {
							res.Err = fmt.Errorf("resizecache: decode remote outcome: %w", uerr)
						}
					}
					deliver(res)
					return nil
				})
			if err == nil && completed < total {
				err = fmt.Errorf("resizecache: remote plan stream ended early (%d of %d results)", completed, total)
			}
			if err == nil || !simdclient.IsTransport(err) {
				// Done, cancelled, or remotely rejected: resubmission
				// cannot change the answer.
				break
			}
		}
		if completed == total {
			return
		}
		// Graceful degradation: run what the fabric never answered on the
		// local fallback session, preserving result correctness at local
		// speed. Skipped when ctx is the reason the stream ended.
		if s.fallback != nil && ctx.Err() == nil {
			idx := remaining()
			sub := make([]Scenario, len(idx))
			for i, orig := range idx {
				sub[i] = scenarios[orig]
			}
			if subPlan, perr := PlanOf(sub...); perr == nil {
				for res := range s.fallback.Run(ctx, subPlan) {
					orig := idx[res.Index]
					deliver(Result{Index: orig, Scenario: scenarios[orig], Outcome: res.Outcome, Err: res.Err})
				}
			}
			if completed == total {
				return
			}
		}
		// Attribute the stream-level failure to each unfinished scenario,
		// preserving the exactly-plan.Len()-results contract.
		if err == nil {
			err = fmt.Errorf("resizecache: remote plan stream ended early (%d of %d results)", completed, total)
		}
		for i := range scenarios {
			if !delivered[i] {
				deliver(Result{Index: i, Scenario: scenarios[i], Err: err})
			}
		}
	}()
	return out
}

// SimulateContext runs one scenario on the daemon: it submits the
// scenario as a one-element plan, so identical concurrent submissions —
// from this client or any other — deduplicate on the daemon.
func (s *RemoteSession) SimulateContext(ctx context.Context, sc Scenario) (Outcome, error) {
	plan, err := PlanOf(sc)
	if err != nil {
		return Outcome{}, err
	}
	res := <-s.Run(ctx, plan)
	return res.Outcome, res.Err
}

// Artifact mirrors Session.Artifact against the daemon's store: a
// payload cached under the plan's fingerprint decodes into out without
// touching the plan's sweeps; a miss — or a cached payload that does
// not decode into out — runs compute locally and records the JSON
// encoding of its value for every other client, overwriting the
// undecodable bytes. Lookup failures degrade to misses.
func (s *RemoteSession) Artifact(ctx context.Context, domain string, version int, plan Plan, out any, compute func(context.Context) (any, error)) error {
	key := planArtifactKey(domain, version, plan).String()
	resp, err := s.conn.Call(ctx, wire.Request{Op: wire.OpLookupArtifact, Key: key})
	if err == nil && resp.Found && runner.DecodeArtifact(resp.Value, out) == nil {
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	v, err := compute(ctx)
	if err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	// Best-effort: a record failure costs the next client a recompute,
	// never correctness.
	s.conn.Call(ctx, wire.Request{Op: wire.OpRecordArtifact, Key: key, Value: data})
	return runner.DecodeArtifact(data, out)
}

// Stats returns the daemon's cumulative scheduling counters — the
// shared runner's view across every client. The round trip is bounded
// by the client's call timeout (DialOptions.CallTimeout, default
// simdclient.DefaultCallTimeout), so a wedged daemon costs a bounded
// wait; any failure returns the zero Stats.
func (s *RemoteSession) Stats() runner.Stats {
	resp, err := s.conn.Call(context.Background(), wire.Request{Op: wire.OpStats})
	if err != nil {
		return runner.Stats{}
	}
	var st runner.Stats
	if json.Unmarshal(resp.Value, &st) != nil {
		return runner.Stats{}
	}
	return st
}

// Flush asks the daemon to persist its backing store. Like Stats, the
// round trip is bounded by the client's call timeout, so a wedged
// daemon fails the flush within a bounded wait instead of hanging it.
func (s *RemoteSession) Flush() error {
	if _, err := s.conn.Call(context.Background(), wire.Request{Op: wire.OpFlush}); err != nil {
		return fmt.Errorf("resizecache: remote flush: %w", err)
	}
	return nil
}
