package runner

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"resizecache/internal/sim"
)

// gangCfgN returns configs that share a simulation front-end (same
// benchmark, budget, engine, pipeline) but have distinct fingerprints —
// the shape of one benchmark's sweep cells.
func gangCfgN(bench string, i int) sim.Config {
	c := sim.Default(bench)
	c.Instructions = 5000
	c.MSHREntries = 8 + i
	return c
}

// gangRecorder is a RunGang stub that records dispatched batches.
type gangRecorder struct {
	mu      sync.Mutex
	batches [][]sim.Config
}

func (g *gangRecorder) run(cfgs []sim.Config) ([]sim.Result, error) {
	g.mu.Lock()
	g.batches = append(g.batches, cfgs)
	g.mu.Unlock()
	out := make([]sim.Result, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = stubResult(cfg)
	}
	return out, nil
}

func (g *gangRecorder) sizes() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	sizes := make([]int, len(g.batches))
	for i, b := range g.batches {
		sizes[i] = len(b)
	}
	sort.Ints(sizes)
	return sizes
}

func TestEnqueueCoalescesGangs(t *testing.T) {
	rec := &gangRecorder{}
	r := New(Options{Workers: 2, RunGang: rec.run})
	ctx := context.Background()

	cfgs := make([]sim.Config, 10)
	for i := range cfgs {
		cfgs[i] = gangCfgN("gcc", i)
	}
	n, wait := r.Enqueue(ctx, cfgs, sim.Keys(cfgs))
	wait()
	if n != 10 {
		t.Fatalf("enqueued %d, want 10", n)
	}
	// Default gang size 8: one full gang plus the 2-member remainder,
	// and no solo batches.
	if got := rec.sizes(); !reflect.DeepEqual(got, []int{2, 8}) {
		t.Errorf("gang batch sizes = %v, want [2 8]", got)
	}
	st := r.Stats()
	if st.Ganged != 10 || st.GangBatches != 2 || st.Runs != 10 {
		t.Errorf("stats = %+v, want 10 ganged / 2 gang batches / 10 runs", st)
	}

	// Outcomes published to the normal memo entries.
	for i := range cfgs {
		res, err := r.Run(ctx, cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, stubResult(cfgs[i])) {
			t.Errorf("config %d: wrong gang result", i)
		}
	}
	if st := r.Stats(); st.MemoHits != 10 {
		t.Errorf("memo hits = %d, want 10", st.MemoHits)
	}
}

func TestEnqueueGangsOnlyWithinFrontGroups(t *testing.T) {
	rec := &gangRecorder{}
	r := New(Options{Workers: 2, RunGang: rec.run})
	var cfgs []sim.Config
	for i := 0; i < 3; i++ {
		cfgs = append(cfgs, gangCfgN("gcc", i), gangCfgN("vpr", i))
	}
	_, wait := r.Enqueue(context.Background(), cfgs, sim.Keys(cfgs))
	wait()

	if got := rec.sizes(); !reflect.DeepEqual(got, []int{3, 3}) {
		t.Fatalf("gang batch sizes = %v, want [3 3]", got)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, batch := range rec.batches {
		front := batch[0].FrontKey()
		for _, cfg := range batch[1:] {
			if cfg.FrontKey() != front {
				t.Errorf("mixed-front gang dispatched: %s with %s",
					batch[0].Benchmark, cfg.Benchmark)
			}
		}
	}
}

func TestEnqueueSingletonGroupsRunSolo(t *testing.T) {
	rec := &gangRecorder{}
	r := New(Options{Workers: 2, RunGang: rec.run})
	// Three distinct fronts, one config each: nothing to coalesce, so
	// each runs as a gang of one.
	cfgs := []sim.Config{cfgN(1), cfgN(2), cfgN(3)}
	_, wait := r.Enqueue(context.Background(), cfgs, sim.Keys(cfgs))
	wait()
	if got := rec.sizes(); !reflect.DeepEqual(got, []int{1, 1, 1}) {
		t.Errorf("batch sizes for singleton groups = %v, want [1 1 1]", got)
	}
	if st := r.Stats(); st.Ganged != 0 || st.GangBatches != 0 {
		t.Errorf("stats = %+v, want no ganging", st)
	}
}

func TestGangSizeOneDisablesCoalescing(t *testing.T) {
	rec := &gangRecorder{}
	r := New(Options{Workers: 2, GangSize: 1, RunGang: rec.run})
	cfgs := make([]sim.Config, 4)
	for i := range cfgs {
		cfgs[i] = gangCfgN("gcc", i)
	}
	_, wait := r.Enqueue(context.Background(), cfgs, sim.Keys(cfgs))
	wait()
	if got := rec.sizes(); !reflect.DeepEqual(got, []int{1, 1, 1, 1}) {
		t.Errorf("batch sizes = %v, want four gangs of one", got)
	}
	if st := r.Stats(); st.Ganged != 0 || st.GangBatches != 0 {
		t.Errorf("stats = %+v, want no ganging", st)
	}
}

func TestGangErrorFallsBackToSolo(t *testing.T) {
	var solo atomic.Int32
	r := New(Options{Workers: 2,
		RunGang: func(cfgs []sim.Config) ([]sim.Result, error) {
			if len(cfgs) > 1 {
				return nil, errors.New("gang refused")
			}
			solo.Add(1)
			return []sim.Result{stubResult(cfgs[0])}, nil
		},
	})
	ctx := context.Background()
	cfgs := make([]sim.Config, 3)
	for i := range cfgs {
		cfgs[i] = gangCfgN("gcc", i)
	}
	_, wait := r.Enqueue(ctx, cfgs, sim.Keys(cfgs))
	wait()
	if got := solo.Load(); got != 3 {
		t.Errorf("%d solo fallback simulations, want 3", got)
	}
	st := r.Stats()
	if st.Ganged != 0 || st.GangBatches != 0 || st.Runs != 3 {
		t.Errorf("stats = %+v, want 0 ganged / 3 runs", st)
	}
	for i := range cfgs {
		res, err := r.Run(ctx, cfgs[i])
		if err != nil || !reflect.DeepEqual(res, stubResult(cfgs[i])) {
			t.Errorf("config %d: fallback result wrong (%v)", i, err)
		}
	}
}

func TestGangSkipsStoreHits(t *testing.T) {
	store := NewMemStore()
	hit := gangCfgN("gcc", 0)
	store.Record(hit.Key(), StoredResult{Result: stubResult(hit)})

	rec := &gangRecorder{}
	r := New(Options{Workers: 2, Store: store, RunGang: rec.run})
	cfgs := make([]sim.Config, 4)
	for i := range cfgs {
		cfgs[i] = gangCfgN("gcc", i)
	}
	_, wait := r.Enqueue(context.Background(), cfgs, sim.Keys(cfgs))
	wait()

	if got := rec.sizes(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("gang batch sizes = %v, want [3]", got)
	}
	st := r.Stats()
	if st.StoreHits != 1 || st.Ganged != 3 {
		t.Errorf("stats = %+v, want 1 store hit / 3 ganged", st)
	}
}

// TestRunIsAGangOfOne: a directly submitted config reaches the one
// simulation seam as a one-element gang, and solo runs leave the gang
// counters alone.
func TestRunIsAGangOfOne(t *testing.T) {
	rec := &gangRecorder{}
	r := New(Options{Workers: 2, RunGang: rec.run})
	cfg := gangCfgN("gcc", 0)
	res, err := r.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, stubResult(cfg)) {
		t.Error("solo run returned the wrong result")
	}
	rec.mu.Lock()
	batches := rec.batches
	rec.mu.Unlock()
	if len(batches) != 1 || len(batches[0]) != 1 || batches[0][0].Key() != cfg.Key() {
		t.Fatalf("RunGang saw %v, want one one-element gang of the config", batches)
	}
	if st := r.Stats(); st.Ganged != 0 || st.GangBatches != 0 || st.Runs != 1 {
		t.Errorf("stats = %+v, want 1 run and no ganging", st)
	}
}

// TestRealGangThroughRunner: with the real sim entry points, enqueued
// same-front configs gang and produce results bit-identical to solo
// sim.Run.
func TestRealGangThroughRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	r := New(Options{Workers: 2})
	ctx := context.Background()
	var cfgs []sim.Config
	for _, kb := range []int{16, 32, 64} {
		c := sim.Default("gcc")
		c.Instructions = 20_000
		c.DCache.Geom.SizeBytes = kb << 10
		cfgs = append(cfgs, c)
	}
	_, wait := r.Enqueue(ctx, cfgs, sim.Keys(cfgs))
	wait()
	if st := r.Stats(); st.Ganged != 3 || st.GangBatches != 1 {
		t.Fatalf("stats = %+v, want 3 ganged in 1 batch", st)
	}
	for i, cfg := range cfgs {
		got, err := r.Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("config %d: ganged result differs from solo sim.Run", i)
		}
	}
}
