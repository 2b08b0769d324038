package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resizecache/internal/sim"
)

// cfgN returns a distinct config per index (instruction count varies).
func cfgN(i int) sim.Config {
	c := sim.Default("gcc")
	c.Instructions = uint64(1000 + i)
	return c
}

// runAll is Runner.RunAll over freshly computed fingerprints.
func runAll(ctx context.Context, r *Runner, cfgs []sim.Config) ([]sim.Result, error) {
	return r.RunAll(ctx, cfgs, sim.Keys(cfgs))
}

// gangOf lifts a per-config simulation stub to the RunGang seam: it
// loops the stub over the gang and rejects the whole gang on the first
// member error, as sim.RunGang does.
func gangOf(run func(sim.Config) (sim.Result, error)) func([]sim.Config) ([]sim.Result, error) {
	return func(cfgs []sim.Config) ([]sim.Result, error) {
		out := make([]sim.Result, len(cfgs))
		for i, cfg := range cfgs {
			res, err := run(cfg)
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	}
}

// stubResult returns a recognizable result for a config.
func stubResult(cfg sim.Config) sim.Result {
	var r sim.Result
	r.CPU.Instructions = cfg.Instructions
	r.CPU.Cycles = 2 * cfg.Instructions
	return r
}

func TestRunMemoizes(t *testing.T) {
	var calls atomic.Int32
	r := New(Options{Workers: 2, RunGang: gangOf(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	})})
	ctx := context.Background()
	first, err := r.Run(ctx, cfgN(0))
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run(ctx, cfgN(0))
	if err != nil {
		t.Fatal(err)
	}
	if first.CPU != second.CPU || first.EDP != second.EDP {
		t.Error("memoized result differs from original")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("simulated %d times, want 1", got)
	}
	st := r.Stats()
	if st.Submitted != 2 || st.Runs != 1 || st.MemoHits != 1 {
		t.Errorf("stats = %+v, want 2 submitted / 1 run / 1 memo hit", st)
	}
}

func TestRunAllDeterministicOrderAndBaselineDedup(t *testing.T) {
	var calls atomic.Int32
	r := New(Options{Workers: 4, RunGang: gangOf(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	})})
	// A sweep-shaped batch: baseline duplicated at both ends plus three
	// distinct candidates.
	cfgs := []sim.Config{cfgN(0), cfgN(1), cfgN(2), cfgN(3), cfgN(0)}
	res, err := runAll(context.Background(), r, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range cfgs {
		if res[i].CPU.Instructions != want.Instructions {
			t.Errorf("result %d out of order: got %d instructions, want %d",
				i, res[i].CPU.Instructions, want.Instructions)
		}
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("simulated %d distinct configs, want 4", got)
	}
	if hits := r.Stats().Hits(); hits != 1 {
		t.Errorf("hits = %d, want 1 (duplicated baseline)", hits)
	}
}

func TestConcurrentIdenticalSubmissionsDeduplicate(t *testing.T) {
	const waiters = 8
	release := make(chan struct{})
	var calls atomic.Int32
	r := New(Options{Workers: waiters, RunGang: gangOf(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		<-release
		return stubResult(cfg), nil
	})})
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Run(context.Background(), cfgN(0))
		}(i)
	}
	// Wait until every submission has either started the simulation or
	// joined it, then release the single in-flight run.
	deadline := time.After(5 * time.Second)
	for {
		st := r.Stats()
		if st.Submitted == waiters && st.InFlightDedups == waiters-1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("dedup never converged: %+v", r.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("simulated %d times, want 1", got)
	}
}

func TestRunErrorsAreMemoized(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	r := New(Options{Workers: 1, RunGang: gangOf(func(sim.Config) (sim.Result, error) {
		calls.Add(1)
		return sim.Result{}, boom
	})})
	for i := 0; i < 2; i++ {
		if _, err := r.Run(context.Background(), cfgN(0)); !errors.Is(err, boom) {
			t.Fatalf("want boom, got %v", err)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("failing config simulated %d times, want 1", calls.Load())
	}
	if r.Stats().Errors != 1 {
		t.Errorf("errors = %d, want 1", r.Stats().Errors)
	}
}

func TestContextCancellationMidSweep(t *testing.T) {
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	r := New(Options{Workers: 1, RunGang: gangOf(func(cfg sim.Config) (sim.Result, error) {
		started <- struct{}{}
		<-release
		return stubResult(cfg), nil
	})})
	ctx, cancel := context.WithCancel(context.Background())
	var cfgs []sim.Config
	for i := 0; i < 16; i++ {
		cfgs = append(cfgs, cfgN(i))
	}
	done := make(chan error, 1)
	go func() {
		_, err := runAll(ctx, r, cfgs)
		done <- err
	}()
	<-started // first simulation occupies the single worker
	cancel()  // the other 15 are queued; cancellation must stop them
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunAll did not return after cancellation")
	}
	if runs := r.Stats().Runs; runs >= uint64(len(cfgs)) {
		t.Errorf("cancellation did not prevent queued runs: %d runs", runs)
	}
}

func TestCancelledEntryRetriesOnLiveContext(t *testing.T) {
	var calls atomic.Int32
	r := New(Options{Workers: 1, RunGang: gangOf(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	})})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(cancelled, cfgN(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// A cancellation outcome must not poison the fingerprint.
	res, err := r.Run(context.Background(), cfgN(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Instructions != cfgN(0).Instructions {
		t.Error("retry returned wrong result")
	}
	if calls.Load() != 1 {
		t.Errorf("retry simulated %d times, want 1", calls.Load())
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	var calls atomic.Int32
	runSim := func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	}

	store, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	r1 := New(Options{Workers: 2, Store: store, RunGang: gangOf(runSim)})
	if _, err := runAll(context.Background(), r1, []sim.Config{cfgN(0), cfgN(1)}); err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d results, want 2", store.Len())
	}

	// A fresh process (fresh store + runner) must resolve from disk.
	store2, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if store2.Len() != 2 {
		t.Fatalf("reloaded store holds %d results, want 2", store2.Len())
	}
	r2 := New(Options{Workers: 2, Store: store2, RunGang: gangOf(func(sim.Config) (sim.Result, error) {
		t.Error("store-resident config was re-simulated")
		return sim.Result{}, fmt.Errorf("unexpected simulation")
	})})
	res, err := r2.Run(context.Background(), cfgN(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Instructions != cfgN(1).Instructions {
		t.Error("disk store returned wrong result")
	}
	if st := r2.Stats(); st.StoreHits != 1 {
		t.Errorf("store hits = %d, want 1", st.StoreHits)
	}
}

func TestDiskStoreFlushIsIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	store, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(); err != nil { // nothing dirty: no file needed
		t.Fatal(err)
	}
	store.Record(sim.Default("gcc").Key(), StoredResult{})
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestStoredErrorReplayedWithoutSimulating(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	boom := errors.New("boom")
	store, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	r1 := New(Options{Workers: 1, Store: store, RunGang: gangOf(func(sim.Config) (sim.Result, error) {
		return sim.Result{}, boom
	})})
	if _, err := r1.Run(context.Background(), cfgN(0)); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}

	// A fresh process must replay the persisted failure, not re-run it.
	store2, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	r2 := New(Options{Workers: 1, Store: store2, RunGang: gangOf(func(sim.Config) (sim.Result, error) {
		calls.Add(1)
		return sim.Result{}, nil
	})})
	_, err = r2.Run(context.Background(), cfgN(0))
	var se *StoredError
	if !errors.As(err, &se) || !strings.Contains(se.Error(), "boom") {
		t.Fatalf("want replayed StoredError(boom), got %v", err)
	}
	if calls.Load() != 0 {
		t.Errorf("stored failure re-simulated %d times", calls.Load())
	}
	if st := r2.Stats(); st.StoreHits != 1 || st.Runs != 0 || st.Errors != 1 {
		t.Errorf("stats = %+v, want 1 store hit / 0 runs / 1 error", st)
	}
}

func TestCancellationsAreNeverPersisted(t *testing.T) {
	store := NewMemStore()
	r := New(Options{Workers: 1, Store: store, RunGang: gangOf(func(sim.Config) (sim.Result, error) {
		return sim.Result{}, context.Canceled
	})})
	if _, err := r.Run(context.Background(), cfgN(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, ok := store.Lookup(cfgN(0).Key()); ok {
		t.Error("cancellation outcome was persisted")
	}
	// The fingerprint stays retryable, and the retry's success persists.
	var calls atomic.Int32
	r2 := New(Options{Workers: 1, Store: store, RunGang: gangOf(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	})})
	if _, err := r2.Run(context.Background(), cfgN(0)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("retry simulated %d times, want 1", calls.Load())
	}
	if _, ok := store.Lookup(cfgN(0).Key()); !ok {
		t.Error("successful retry was not persisted")
	}
}

func TestDiskStoreCorruptAndVersionMismatch(t *testing.T) {
	dir := t.TempDir()

	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskStore(corrupt); err == nil {
		t.Error("corrupted store file accepted")
	}

	// A version-mismatched file loads as empty and is overwritten whole
	// on the next flush, never partially merged.
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, []byte(`{"version":1,"results":{"deadbeef":{}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenDiskStore(old)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("version-mismatched store loaded %d results", s.Len())
	}
	s.Record(cfgN(0).Key(), StoredResult{Result: stubResult(cfgN(0))})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDiskStore(old)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("rewritten store holds %d results, want 1", s2.Len())
	}
	if _, ok := s2.Lookup(cfgN(0).Key()); !ok {
		t.Error("rewritten store lost the fresh result")
	}
}

func TestMemStoreIsAPluggableBackend(t *testing.T) {
	store := NewMemStore()
	var calls atomic.Int32
	runSim := func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	}
	r1 := New(Options{Workers: 1, Store: store, RunGang: gangOf(runSim)})
	if _, err := r1.Run(context.Background(), cfgN(0)); err != nil {
		t.Fatal(err)
	}
	// A second runner sharing the backend resolves without simulating.
	r2 := New(Options{Workers: 1, Store: store, RunGang: gangOf(runSim)})
	res, err := r2.Run(context.Background(), cfgN(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Instructions != cfgN(0).Instructions {
		t.Error("backend returned wrong result")
	}
	if calls.Load() != 1 {
		t.Errorf("simulated %d times across runners, want 1", calls.Load())
	}
	if st := r2.Stats(); st.StoreHits != 1 {
		t.Errorf("store hits = %d, want 1", st.StoreHits)
	}
}

func TestMemoLRUEviction(t *testing.T) {
	var calls atomic.Int32
	r := New(Options{Workers: 1, MemoLimit: 2, RunGang: gangOf(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	})})
	ctx := context.Background()
	for i := 0; i < 3; i++ { // fills the table, evicting cfg 0
		if _, err := r.Run(ctx, cfgN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("cold runs = %d, want 3", calls.Load())
	}
	if _, err := r.Run(ctx, cfgN(2)); err != nil { // memo hit; refreshes recency
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Error("resident entry re-simulated")
	}
	if _, err := r.Run(ctx, cfgN(0)); err != nil { // evicted: must re-simulate
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Errorf("evicted entry not re-simulated (calls = %d)", calls.Load())
	}
	// cfg 2 was touched after cfg 1, so re-admitting cfg 0 evicted cfg 1
	// — cfg 2 must still be resident (i.e. recency, not insertion order).
	if _, err := r.Run(ctx, cfgN(2)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 4 {
		t.Errorf("recently used entry was evicted (calls = %d)", calls.Load())
	}
	if st := r.Stats(); st.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2", st.Evictions)
	}
}

func TestArtifactMemoizesAndPersists(t *testing.T) {
	store := NewMemStore()
	r := New(Options{Workers: 1, Store: store})
	key := sim.NewKeyBuilder("runner-test").Str("artifact").Sum()
	type payload struct{ V int }
	var computes atomic.Int32
	compute := func(context.Context) (any, error) {
		computes.Add(1)
		return payload{V: 1}, nil
	}
	ctx := context.Background()
	var a, b payload
	if err := r.Artifact(ctx, key, &a, compute); err != nil {
		t.Fatal(err)
	}
	if err := r.Artifact(ctx, key, &b, compute); err != nil {
		t.Fatal(err)
	}
	if a.V != 1 || b != a {
		t.Errorf("artifact values differ: %+v vs %+v", a, b)
	}
	if computes.Load() != 1 {
		t.Errorf("computed %d times, want 1", computes.Load())
	}
	if st := r.Stats(); st.ArtifactHits != 1 || st.ArtifactComputes != 1 {
		t.Errorf("stats = %+v, want 1 artifact hit / 1 compute", st)
	}

	// A fresh runner sharing the store resolves from the persistent tier.
	r2 := New(Options{Workers: 1, Store: store})
	var c payload
	if err := r2.Artifact(ctx, key, &c, compute); err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Error("persistent tier returned wrong value")
	}
	if computes.Load() != 1 {
		t.Error("persistent tier miss recomputed the artifact")
	}
	if st := r2.Stats(); st.ArtifactStoreHits != 1 {
		t.Errorf("artifact store hits = %d, want 1", st.ArtifactStoreHits)
	}
}

func TestArtifactErrorsAreNotMemoized(t *testing.T) {
	r := New(Options{Workers: 1})
	key := sim.NewKeyBuilder("runner-test").Str("flaky").Sum()
	boom := errors.New("boom")
	fail := true
	ctx := context.Background()
	var data string
	if err := r.Artifact(ctx, key, &data, func(context.Context) (any, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	err := r.Artifact(ctx, key, &data, func(context.Context) (any, error) {
		fail = false
		return "ok", nil
	})
	if err != nil || data != "ok" {
		t.Fatalf("failed fingerprint not retried: %q, %v", data, err)
	}
	if fail {
		t.Error("second compute never ran")
	}
}

func TestArtifactInFlightDedup(t *testing.T) {
	const waiters = 6
	r := New(Options{Workers: waiters})
	key := sim.NewKeyBuilder("runner-test").Str("concurrent").Sum()
	release := make(chan struct{})
	var computes atomic.Int32
	var wg sync.WaitGroup
	outs := make([]string, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.Artifact(context.Background(), key, &outs[i], func(context.Context) (any, error) {
				computes.Add(1)
				<-release
				return "shared", nil
			})
		}(i)
	}
	deadline := time.After(5 * time.Second)
	for computes.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no compute started")
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if outs[i] != "shared" {
			t.Errorf("waiter %d got %q", i, outs[i])
		}
	}
	if computes.Load() != 1 {
		t.Errorf("computed %d times, want 1", computes.Load())
	}
}

// TestRealSimulationThroughRunner exercises the default runSim seam with
// a tiny real simulation, end to end through memoization.
func TestRealSimulationThroughRunner(t *testing.T) {
	r := New(Options{Workers: 2})
	cfg := sim.Default("m88ksim")
	cfg.Instructions = 20_000
	a, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.CPU.Cycles == 0 || a.CPU.Cycles != b.CPU.Cycles {
		t.Errorf("memoized real run mismatch: %d vs %d cycles", a.CPU.Cycles, b.CPU.Cycles)
	}
	if st := r.Stats(); st.Runs != 1 || st.MemoHits != 1 {
		t.Errorf("stats = %+v, want 1 run / 1 memo hit", st)
	}
}

func TestEnqueueRegistersSynchronouslyAndJoins(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int32
	r := New(Options{Workers: 8, RunGang: gangOf(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		<-release
		return stubResult(cfg), nil
	})})
	cfgs := []sim.Config{cfgN(0), cfgN(1), cfgN(2)}
	if n, _ := r.Enqueue(context.Background(), cfgs, sim.Keys(cfgs)); n != 3 {
		t.Fatalf("enqueued %d configs, want 3", n)
	}
	// Entries are registered before Enqueue returns, so a batch gather of
	// the same configs joins the in-flight work: no fresh fan-out, no
	// barrier, no extra simulations.
	done := make(chan error, 1)
	go func() {
		_, err := runAll(context.Background(), r, cfgs)
		done <- err
	}()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if calls.Load() != 3 || st.Runs != 3 {
		t.Errorf("simulated %d/%d times, want 3", calls.Load(), st.Runs)
	}
	if st.Enqueued != 3 || st.EnqueueBatches != 1 {
		t.Errorf("enqueue stats = %+v, want 3 enqueued in 1 pass", st)
	}
	if st.Barriers != 0 {
		t.Errorf("gather of enqueued batch counted %d barriers, want 0", st.Barriers)
	}
	// A second Enqueue of the same batch finds everything memoized.
	if n, _ := r.Enqueue(context.Background(), cfgs, sim.Keys(cfgs)); n != 0 {
		t.Errorf("warm Enqueue submitted %d configs, want 0", n)
	}
}

func TestRunAllCountsBarrierOnFreshWork(t *testing.T) {
	r := New(Options{Workers: 2, RunGang: gangOf(func(cfg sim.Config) (sim.Result, error) {
		return stubResult(cfg), nil
	})})
	ctx := context.Background()
	if _, err := runAll(ctx, r, []sim.Config{cfgN(0), cfgN(1)}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Barriers != 1 {
		t.Fatalf("cold batch counted %d barriers, want 1", st.Barriers)
	}
	// The same batch again is fully memoized: no fan-out, no barrier.
	if _, err := runAll(ctx, r, []sim.Config{cfgN(0), cfgN(1)}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Barriers != 1 {
		t.Errorf("warm batch counted a barrier: %+v", st)
	}
	// One new config makes the batch fresh again.
	if _, err := runAll(ctx, r, []sim.Config{cfgN(0), cfgN(2)}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Barriers != 2 {
		t.Errorf("partially fresh batch counted %d barriers, want 2", st.Barriers)
	}
}

func TestEnqueueCancellationLeavesRetryable(t *testing.T) {
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	r := New(Options{Workers: 1, RunGang: gangOf(func(cfg sim.Config) (sim.Result, error) {
		started <- struct{}{}
		<-release
		return stubResult(cfg), nil
	})})
	ctx, cancel := context.WithCancel(context.Background())
	pair := []sim.Config{cfgN(0), cfgN(1)}
	r.Enqueue(ctx, pair, sim.Keys(pair))
	<-started // first owner occupies the single worker; second queues
	cancel()
	close(release)
	// The queued config completed with a cancellation and must have been
	// evicted, so a live context re-runs it.
	res, err := r.Run(context.Background(), cfgN(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Instructions != cfgN(1).Instructions {
		t.Error("retry returned wrong result")
	}
}

func TestHasArtifactBothTiers(t *testing.T) {
	store := NewMemStore()
	r := New(Options{Workers: 1, Store: store})
	key := sim.NewKeyBuilder("runner-test").Str("probe").Sum()
	if r.HasArtifact(key) {
		t.Fatal("cold fingerprint reported present")
	}
	var v int
	if err := r.Artifact(context.Background(), key, &v, func(context.Context) (any, error) {
		return 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !r.HasArtifact(key) {
		t.Error("memoized artifact reported absent")
	}
	// A fresh runner sharing the store sees the persistent tier.
	r2 := New(Options{Workers: 1, Store: store})
	if !r2.HasArtifact(key) {
		t.Error("stored artifact reported absent")
	}
	if New(Options{Workers: 1}).HasArtifact(key) {
		t.Error("storeless runner reported a foreign artifact present")
	}
}

func TestStatsDelta(t *testing.T) {
	a := Stats{Submitted: 10, Runs: 4, MemoHits: 6, Enqueued: 3, Barriers: 2, ArtifactComputes: 1}
	b := Stats{Submitted: 25, Runs: 5, MemoHits: 20, Enqueued: 3, Barriers: 2, ArtifactComputes: 1, ArtifactHits: 7}
	d := b.Delta(a)
	want := Stats{Submitted: 15, Runs: 1, MemoHits: 14, ArtifactHits: 7}
	if d != want {
		t.Errorf("Delta = %+v, want %+v", d, want)
	}
}

func TestEnqueueWaitDrainsStragglersBeforeFlush(t *testing.T) {
	store := NewMemStore()
	started := make(chan sim.Config, 2)
	release := make(chan struct{})
	r := New(Options{Workers: 1, Store: store, RunGang: gangOf(func(cfg sim.Config) (sim.Result, error) {
		started <- cfg
		<-release
		return stubResult(cfg), nil
	})})
	ctx, cancel := context.WithCancel(context.Background())
	pair := []sim.Config{cfgN(0), cfgN(1)}
	n, wait := r.Enqueue(ctx, pair, sim.Keys(pair))
	if n != 2 {
		t.Fatalf("enqueued %d, want 2", n)
	}
	running := <-started // one config owns the single worker slot
	cancel()             // the queued one aborts; the running one is a straggler
	close(release)
	wait() // must not return until the straggler has published
	if _, ok := store.Lookup(running.Key()); !ok {
		t.Error("straggler's result was not persisted before wait returned")
	}
}

// TestStaleKeyEncodingInvalidatesCleanly models the sim.Key version
// bump (v1 -> v2): a store populated under a retired key encoding still
// loads, but its entries can only miss — the runner re-simulates under
// the current keys and persists alongside the stale entries, never
// serving a result the old key no longer describes.
func TestStaleKeyEncodingInvalidatesCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	store, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	// A v1-era fingerprint of cfgN(0): same config, retired encoding.
	// Any key the current encoder cannot produce stands in for it.
	var stale sim.Key
	copy(stale[:], []byte("v1-key-of-cfgN0-retired-encoding"))
	wrong := stubResult(cfgN(1)) // result the stale key maps to
	store.Record(stale, StoredResult{Result: wrong})
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if store2.Len() != 1 {
		t.Fatalf("stale store failed to load: %d results", store2.Len())
	}
	var calls atomic.Int32
	r := New(Options{Workers: 1, Store: store2, RunGang: gangOf(func(cfg sim.Config) (sim.Result, error) {
		calls.Add(1)
		return stubResult(cfg), nil
	})})
	res, err := r.Run(context.Background(), cfgN(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Instructions != cfgN(0).Instructions {
		t.Fatalf("got result for the wrong config: %+v", res.CPU)
	}
	if calls.Load() != 1 {
		t.Fatalf("stale store served a hit: %d simulations", calls.Load())
	}
	if st := r.Stats(); st.StoreHits != 0 {
		t.Fatalf("stale entry counted as a store hit: %+v", st)
	}
	// The fresh result persists under the new key; the stale entry stays
	// (unreachable) rather than corrupting the store.
	if err := store2.Flush(); err != nil {
		t.Fatal(err)
	}
	store3, err := OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if store3.Len() != 2 {
		t.Fatalf("store holds %d results after re-run, want 2", store3.Len())
	}
	if _, ok := store3.Lookup(cfgN(0).Key()); !ok {
		t.Fatal("fresh result not persisted under the current key")
	}
}
