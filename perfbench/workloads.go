package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"resizecache"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
	"resizecache/internal/simd"
)

var workloadNames = []string{"sweep-cold", "serve-sampled", "replay-warm"}

// passResult is what one pass of a workload measured.
type passResult struct {
	setups            []time.Duration
	wall, cpu         time.Duration
	scenarios, failed int
	latenciesMS       []float64 // one per request; a batch pass is one request
	stats             runner.Stats
	storeBytes        int64
	peakRSS           float64 // MiB, sampled over the whole pass
}

// bench is one workload, ready to run passes. Every pass starts from the
// same state, so passes are interchangeable samples.
type bench struct {
	apps  []string
	instr uint64 // instruction budget of the workload's detailed configs
	check checker
	hooks hooks
	// outcome is one delivered outcome, kept for the wire-frame layer.
	outcome resizecache.Outcome
	// pass runs pass i on the inputs of the given draw.
	pass func(ctx context.Context, i, draw int, tr *tracer) (passResult, error)
}

// fixtureFunc writes the replay-warm store for the first apps profiles.
type fixtureFunc func(ctx context.Context, path string, apps int) error

// newBench draws a workload's inputs from seed and prepares its passes.
// dir is a private scratch directory the workload may fill.
func newBench(ctx context.Context, name string, seed uint64, sc scale, dir string, h hooks, fixture fixtureFunc) (*bench, error) {
	b := &bench{hooks: h}
	var err error
	switch name {
	case "sweep-cold":
		if _, b.apps, err = sweepPlan(seed, 0, sc); err != nil {
			return nil, err
		}
		b.instr = sweepInstr
		b.pass = func(ctx context.Context, i, draw int, tr *tracer) (passResult, error) {
			spec, _, err := sweepPlan(seed, draw, sc)
			if err != nil {
				return passResult{}, err
			}
			return b.sweepPass(ctx, i, tr, spec)
		}
	case "serve-sampled":
		if _, b.apps, err = servePlan(seed, 0, sc); err != nil {
			return nil, err
		}
		b.instr = serveInstr
		b.pass = func(ctx context.Context, i, draw int, tr *tracer) (passResult, error) {
			specs, _, err := servePlan(seed, draw, sc)
			if err != nil {
				return passResult{}, err
			}
			return b.servePass(ctx, i, tr, specs, dir)
		}
	case "replay-warm":
		if _, b.apps, err = replayPlan(seed, 0, sc); err != nil {
			return nil, err
		}
		b.instr = replayInstr
		pristine := filepath.Join(dir, "replay-pristine.json")
		if err := fixture(ctx, pristine, len(b.apps)); err != nil {
			return nil, fmt.Errorf("build replay store: %w", err)
		}
		b.pass = func(ctx context.Context, i, draw int, tr *tracer) (passResult, error) {
			spec, _, err := replayPlan(seed, draw, sc)
			if err != nil {
				return passResult{}, err
			}
			return b.replayPass(ctx, i, tr, spec, pristine, filepath.Join(dir, "replay-store.json"))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	b.check, err = newChecker(name)
	return b, err
}

// deliver checks one delivered outcome; an error or a digest mismatch
// counts as a failure.
func (b *bench) deliver(res *passResult, sc resizecache.Scenario, o resizecache.Outcome, err error) {
	res.scenarios++
	if err != nil || !b.check.ok(sc, o) {
		res.failed++
		return
	}
	if b.outcome.DChosen == "" && b.outcome.IChosen == "" {
		b.outcome = o
	}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sweepPass: a fresh store-less Session runs the whole detailed plan.
func (b *bench) sweepPass(ctx context.Context, i int, tr *tracer, spec planSpec) (passResult, error) {
	var res passResult
	pass := tr.begin("pass", 0, int64(i))
	defer pass.end(0)
	defer pass.scoped()()

	// Set-up takes well under a millisecond, so each pass samples it
	// several times and keeps the last session.
	var sess *resizecache.Session
	var plan resizecache.Plan
	for range 5 {
		t0 := time.Now()
		setup := tr.begin("setup", -1, -1)
		sess = resizecache.NewSession()
		expand := tr.begin("facade.expand", -1, -1)
		scenarios, err := spec.expand()
		if err != nil {
			return res, err
		}
		if plan, err = resizecache.PlanOf(scenarios...); err != nil {
			return res, err
		}
		expand.end(0)
		setup.end(0)
		res.setups = append(res.setups, time.Since(t0))
	}

	before := sess.Stats()
	t1, c1 := time.Now(), cpuTime()
	run := tr.begin("facade.run", -1, -1)
	for r := range sess.Run(ctx, plan) {
		b.deliver(&res, r.Scenario, r.Outcome, r.Err)
	}
	run.end(0)
	res.wall, res.cpu = time.Since(t1), cpuTime()-c1
	res.latenciesMS = []float64{msOf(res.wall)}
	res.stats = sess.Stats().Delta(before)
	return res, ctx.Err()
}

// replayPass: open a pristine copy of the results-only store, replay the
// plan without simulating, and flush the re-derived artifacts.
func (b *bench) replayPass(ctx context.Context, i int, tr *tracer, spec planSpec, pristine, work string) (passResult, error) {
	var res passResult
	pass := tr.begin("pass", 0, int64(i))
	defer pass.end(0)
	defer pass.scoped()()

	expand := tr.begin("facade.expand", -1, -1)
	scenarios, err := spec.expand()
	if err != nil {
		return res, err
	}
	plan, err := resizecache.PlanOf(scenarios...)
	if err != nil {
		return res, err
	}
	expand.end(0)
	data, err := os.ReadFile(pristine)
	if err != nil {
		return res, err
	}
	if err := os.WriteFile(work, data, 0o644); err != nil {
		return res, err
	}

	t0 := time.Now()
	setup := tr.begin("setup", -1, -1)
	open := tr.begin("store.open", -1, -1)
	ds, err := runner.OpenDiskStore(work)
	open.end(0)
	if err != nil {
		return res, err
	}
	sess, err := resizecache.NewSessionWith(resizecache.SessionOptions{Store: wrapStore(ds, tr, b.hooks)})
	if err != nil {
		return res, err
	}
	setup.end(0)
	res.setups = []time.Duration{time.Since(t0)}

	before := sess.Stats()
	t1, c1 := time.Now(), cpuTime()
	run := tr.begin("facade.run", -1, -1)
	restore := run.scoped()
	for r := range sess.Run(ctx, plan) {
		b.deliver(&res, r.Scenario, r.Outcome, r.Err)
	}
	restore()
	run.end(0)
	flush := tr.begin("facade.flush", -1, -1)
	restore = flush.scoped()
	err = sess.Flush()
	restore()
	flush.end(0)
	if err != nil {
		return res, err
	}
	res.wall, res.cpu = time.Since(t1), cpuTime()-c1
	res.latenciesMS = []float64{msOf(res.wall)}
	res.stats = sess.Stats().Delta(before)
	if res.stats.Runs != 0 {
		// The store holds every result the plan needs: a simulation here
		// means replay stopped finding them, which is a wrong result for
		// this workload.
		res.failed = res.scenarios
	}
	if fi, err := os.Stat(work); err == nil {
		res.storeBytes = fi.Size()
	}
	return res, ctx.Err()
}

// servePass: an in-process daemon over a fresh DiskStore serves two
// closed-loop clients, each sending its next request only after the
// previous one returned.
func (b *bench) servePass(ctx context.Context, i int, tr *tracer, specs [2]planSpec, dir string) (res passResult, err error) {
	pass := tr.begin("pass", 0, int64(i))
	defer pass.end(0)
	defer pass.scoped()()

	var lists [2][]resizecache.Scenario
	expand := tr.begin("facade.expand", -1, -1)
	for c := range specs {
		if lists[c], err = specs[c].expand(); err != nil {
			return res, err
		}
	}
	expand.end(0)
	storePath, sock := filepath.Join(dir, "serve-store.json"), filepath.Join(dir, "simd.sock")
	for _, p := range []string{storePath, sock} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return res, err
		}
	}

	t0 := time.Now()
	setup := tr.begin("setup", -1, -1)
	open := tr.begin("store.open", -1, -1)
	ds, err := runner.OpenDiskStore(storePath)
	open.end(0)
	if err != nil {
		return res, err
	}
	srv, err := simd.New(simd.Options{Store: wrapStore(ds, tr, b.hooks)})
	if err != nil {
		return res, err
	}
	ln, err := simd.Listen("unix:" + sock)
	if err != nil {
		return res, err
	}
	serveCtx, stop := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(serveCtx, wrapListener(ln, tr, b.hooks)) }()
	var clients []*resizecache.RemoteSession
	defer func() {
		for _, c := range clients {
			c.Close()
		}
		stop()
		if serr := <-served; serr != nil && err == nil {
			err = fmt.Errorf("simd serve: %w", serr)
		}
		if fi, serr := os.Stat(storePath); serr == nil {
			res.storeBytes = fi.Size()
		}
	}()
	for range lists {
		c, err := resizecache.Dial("unix:" + sock)
		if err != nil {
			return res, err
		}
		clients = append(clients, c)
	}
	setup.end(0)
	res.setups = []time.Duration{time.Since(t0)}

	t1, c1 := time.Now(), cpuTime()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c, list := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j, sc := range list {
				call := tr.begin("facade.simulate", -1, int64(i)<<20|int64(c)<<16|int64(j))
				s0 := time.Now()
				o, err := clients[c].SimulateContext(ctx, sc)
				lat := time.Since(s0)
				call.end(0)
				mu.Lock()
				res.latenciesMS = append(res.latenciesMS, msOf(lat))
				b.deliver(&res, sc, o, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall, res.cpu = time.Since(t1), cpuTime()-c1
	res.stats = srv.Stats()
	return res, ctx.Err()
}

// resultsOnly drops artifact records, so a store written through it
// holds per-config results and nothing a replay could skip work with.
type resultsOnly struct{ runner.Store }

func (resultsOnly) RecordArtifact(sim.Key, []byte) {}

// buildFixture simulates the replay-warm plan over the first apps
// profiles and writes the per-config results to path.
func buildFixture(ctx context.Context, path string, apps int) error {
	spec, _, err := replayPlan(0, 0, scale{replayApps: apps})
	if err != nil {
		return err
	}
	scenarios, err := spec.expand()
	if err != nil {
		return err
	}
	plan, err := resizecache.PlanOf(scenarios...)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	ds, err := runner.OpenDiskStore(tmp)
	if err != nil {
		return err
	}
	sess, err := resizecache.NewSessionWith(resizecache.SessionOptions{Store: resultsOnly{ds}})
	if err != nil {
		return err
	}
	if _, err := resizecache.Collect(sess.Run(ctx, plan)); err != nil {
		return err
	}
	if err := sess.Flush(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
