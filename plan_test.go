package resizecache

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"resizecache/internal/runner"
	"resizecache/internal/sim"
)

func TestGridExpansionDeterministicAndDeduped(t *testing.T) {
	g := Grid{
		// Duplicate axis values and a legacy-boolean equivalent must
		// collapse; expansion order must be stable across calls.
		Benchmarks:    []string{"gcc", "m88ksim", "gcc"},
		Organizations: []Organization{SelectiveSets},
		Assocs:        []int{2, 4, 2},
		Sides:         []Sides{DOnly, IOnly, DOnly},
		Instructions:  100_000,
	}
	p1, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.Scenarios(), p2.Scenarios()) {
		t.Error("expansion is not deterministic")
	}
	// 2 benchmarks × 1 org × 1 strategy × 2 assocs × 2 sides.
	if p1.Len() != 8 {
		t.Errorf("plan has %d scenarios, want 8 (duplicates kept?)", p1.Len())
	}
	// Nested-loop order: benchmarks outermost, so every gcc cell precedes
	// every m88ksim cell.
	scs := p1.Scenarios()
	for i, sc := range scs {
		if sc.Benchmark == "m88ksim" && i < 4 {
			t.Errorf("expansion order broken: m88ksim at position %d", i)
		}
	}
}

func TestGridDefaultsAndValidation(t *testing.T) {
	p, err := Grid{Benchmarks: []string{"gcc"}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Defaults: three orgs × static × assoc 2 × BothSides × OoO.
	if p.Len() != 3 {
		t.Errorf("default grid for one benchmark has %d scenarios, want 3", p.Len())
	}
	for _, sc := range p.Scenarios() {
		if sc.Assoc != 2 || sc.Sides != BothSides || sc.InOrder || sc.Strategy != Static {
			t.Errorf("defaults not applied: %+v", sc)
		}
		if sc.Instructions == 0 {
			t.Error("instructions not defaulted")
		}
	}
	if _, err := (Grid{Benchmarks: []string{"nosuch"}}).Expand(); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := (Grid{Benchmarks: []string{"gcc"}, Assocs: []int{3}}).Expand(); err == nil {
		t.Error("unsupported associativity accepted")
	}
	if _, err := (Grid{Benchmarks: []string{"gcc"}, Engines: []Engine{Engine(9)}}).Expand(); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestPlanOfDedupsNormalizedSpellings(t *testing.T) {
	implicit := Scenario{Benchmark: "gcc", Organization: SelectiveSets, Sides: DOnly}
	explicit := Scenario{Benchmark: "gcc", Organization: SelectiveSets, Sides: DOnly,
		Assoc: 2, Instructions: 1_500_000}
	p, err := PlanOf(implicit, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 {
		t.Fatalf("defaulted and explicit spellings did not dedup: %d scenarios", p.Len())
	}
	if sc := p.Scenarios()[0]; sc != explicit {
		t.Errorf("normalization broken: %+v", sc)
	}
	if _, err := PlanOf(Scenario{Benchmark: "gcc"}); err == nil {
		t.Error("invalid scenario accepted into a plan")
	}
}

// stubbedSession builds a Session whose runner uses runSim instead of
// real simulations, with a pool wide enough that blocked stubs cannot
// starve other scenarios' work.
func stubbedSession(runSim func(sim.Config) (sim.Result, error)) *Session {
	return &Session{r: runner.New(runner.Options{Workers: 64, RunGang: gangOf(runSim)})}
}

// gangOf lifts a per-config simulation stub to the runner's RunGang
// seam: it loops the stub over the gang and rejects the whole gang on the
// first member error, as sim.RunGang does.
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

// stubResult fabricates a plausible simulation result: positive EDP so
// winner selection and reduction math stay finite.
func stubResult(cfg sim.Config) sim.Result {
	var r sim.Result
	r.CPU.Instructions = cfg.Instructions
	r.CPU.Cycles = 2 * cfg.Instructions
	r.EDP.EnergyJ = 1e-3
	r.EDP.Cycles = r.CPU.Cycles
	return r
}

func planOf(t *testing.T, apps ...string) Plan {
	t.Helper()
	var scs []Scenario
	for _, app := range apps {
		scs = append(scs, Scenario{
			Benchmark:    app,
			Organization: SelectiveSets,
			Sides:        DOnly,
			Instructions: 100_000,
		})
	}
	p, err := PlanOf(scs...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunIsolatesPerScenarioErrors(t *testing.T) {
	boom := errors.New("boom")
	s := stubbedSession(func(cfg sim.Config) (sim.Result, error) {
		if cfg.Benchmark == "vpr" {
			return sim.Result{}, boom
		}
		return stubResult(cfg), nil
	})
	plan := planOf(t, "m88ksim", "vpr", "gcc")
	results, err := Collect(s.Run(context.Background(), plan))
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	// Collect surfaces the first failing scenario but still returns the
	// full result set.
	if err == nil || !strings.Contains(err.Error(), "vpr") {
		t.Errorf("Collect error = %v, want the vpr failure", err)
	}
	for _, r := range results {
		switch r.Scenario.Benchmark {
		case "vpr":
			if !errors.Is(r.Err, boom) {
				t.Errorf("vpr result error = %v, want boom", r.Err)
			}
		default:
			if r.Err != nil {
				t.Errorf("%s poisoned by vpr's failure: %v", r.Scenario.Benchmark, r.Err)
			}
		}
	}
	// Results come back in plan order from Collect.
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
	}
}

func TestRunStreamsUnderCancellationMidPlan(t *testing.T) {
	gate := make(chan struct{})
	s := stubbedSession(func(cfg sim.Config) (sim.Result, error) {
		if cfg.Benchmark != "m88ksim" {
			<-gate // block every other benchmark until released
		}
		return stubResult(cfg), nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	plan := planOf(t, "m88ksim", "gcc", "vpr")
	stream := s.Run(ctx, plan, OnResult(func(r Result, completed, total int) {
		if total != 3 {
			t.Errorf("OnResult total = %d, want 3", total)
		}
		if r.Scenario.Benchmark == "m88ksim" && r.Err == nil {
			cancel() // first completion cancels the rest of the plan
		}
	}))
	// Every scenario's result streams out even though the gcc/vpr
	// stragglers are still blocked inside their simulations...
	var results []Result
	for i := 0; i < 3; i++ {
		results = append(results, <-stream)
	}
	// ...but the stream only closes once those stragglers have drained.
	close(gate)
	if _, open := <-stream; open {
		t.Fatal("stream delivered more than one result per scenario")
	}
	for _, r := range results {
		if r.Scenario.Benchmark == "m88ksim" {
			if r.Err != nil {
				t.Errorf("m88ksim completed before the cancel but reports %v", r.Err)
			}
			continue
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: error = %v, want context.Canceled", r.Scenario.Benchmark, r.Err)
		}
	}
}

func TestOnResultReportsCompletedOfTotal(t *testing.T) {
	s := stubbedSession(func(cfg sim.Config) (sim.Result, error) {
		return stubResult(cfg), nil
	})
	plan := planOf(t, "m88ksim", "gcc")
	var seen []int
	results, err := Collect(s.Run(context.Background(), plan,
		OnResult(func(_ Result, completed, total int) {
			if total != 2 {
				t.Errorf("total = %d, want 2", total)
			}
			seen = append(seen, completed)
		})))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if !reflect.DeepEqual(seen, []int{1, 2}) {
		t.Errorf("completed sequence = %v, want [1 2]", seen)
	}
}

// TestPlanRunsAsOneBatchedPass is the acceptance check for batch
// scheduling: a multi-scenario plan submits its profiling sweeps through
// one batched enqueue pass and gathers with zero fan-out barriers, where
// the same scenarios run sequentially through SimulateContext pay one
// enqueue pass per sweep (each sweep pre-enqueues its own candidates, so
// even the solo path gangs and gathers barrier-free); and a warm plan
// re-run neither enqueues nor simulates.
func TestPlanRunsAsOneBatchedPass(t *testing.T) {
	scenarios := []Scenario{
		{Benchmark: "m88ksim", Organization: SelectiveSets, Sides: DOnly, Instructions: 60_000},
		{Benchmark: "gcc", Organization: SelectiveSets, Sides: DOnly, Instructions: 60_000},
	}
	plan, err := PlanOf(scenarios...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	batch := NewSession()
	if _, err := Collect(batch.Run(ctx, plan)); err != nil {
		t.Fatal(err)
	}
	bst := batch.Stats()
	if bst.EnqueueBatches != 1 {
		t.Errorf("plan used %d enqueue passes, want 1", bst.EnqueueBatches)
	}
	if bst.Enqueued == 0 || bst.Enqueued != bst.Runs {
		t.Errorf("enqueued %d configs but ran %d — sweeps not batch-scheduled", bst.Enqueued, bst.Runs)
	}
	if bst.Barriers != 0 {
		t.Errorf("plan gathers fanned out %d barriers, want 0", bst.Barriers)
	}

	// The same scenarios sequentially: one enqueue pass per sweep, and —
	// because each sweep pre-enqueues its candidates — zero gather-time
	// barriers and ganged execution even on the solo path.
	seq := NewSession()
	for _, sc := range scenarios {
		if _, err := seq.SimulateContext(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
	}
	sst := seq.Stats()
	if sst.Runs != bst.Runs {
		t.Fatalf("paths ran different work: %d vs %d sims", sst.Runs, bst.Runs)
	}
	if sst.EnqueueBatches != uint64(len(scenarios)) {
		t.Errorf("sequential path used %d enqueue passes, want %d (one per sweep)",
			sst.EnqueueBatches, len(scenarios))
	}
	if sst.Barriers != 0 {
		t.Errorf("sequential sweeps hit %d gather barriers, want 0 (candidates pre-enqueue)",
			sst.Barriers)
	}
	if sst.Ganged == 0 {
		t.Errorf("sequential sweeps coalesced no gangs: %+v", sst)
	}

	// Warm-cache behaviour is preserved: a repeated plan resolves at the
	// artifact tier — nothing enqueued, nothing simulated.
	if _, err := Collect(batch.Run(ctx, plan)); err != nil {
		t.Fatal(err)
	}
	warm := batch.Stats()
	if warm.Runs != bst.Runs || warm.Enqueued != bst.Enqueued || warm.EnqueueBatches != bst.EnqueueBatches {
		t.Errorf("warm plan did fresh work: %+v -> %+v", bst, warm)
	}
	if warm.ArtifactHits <= bst.ArtifactHits {
		t.Errorf("warm plan scored no sweep-level reuse: %+v", warm)
	}
}

// TestPlanOutcomesMatchSimulate guards the redesign end to end: the
// batch path must produce byte-identical outcomes (modulo the per-call
// Stats window) to the classic one-scenario-at-a-time facade.
func TestPlanOutcomesMatchSimulate(t *testing.T) {
	scenarios := []Scenario{
		{Benchmark: "m88ksim", Organization: SelectiveSets, Sides: DOnly, Instructions: 60_000},
		{Benchmark: "m88ksim", Organization: SelectiveWays, Sides: IOnly, Instructions: 60_000},
	}
	plan, err := PlanOf(scenarios...)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Collect(NewSession().Run(context.Background(), plan))
	if err != nil {
		t.Fatal(err)
	}
	seq := NewSession()
	for i, sc := range scenarios {
		want, err := seq.SimulateContext(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		got := results[i].Outcome
		got.Stats, want.Stats = runner.Stats{}, runner.Stats{}
		if got != want {
			t.Errorf("scenario %d diverged:\nplan:     %+v\nsimulate: %+v", i, got, want)
		}
	}
}

func TestRunEmptyPlanClosesImmediately(t *testing.T) {
	results, err := Collect(NewSession().Run(context.Background(), Plan{}))
	if err != nil || len(results) != 0 {
		t.Fatalf("empty plan: %v results, err %v", results, err)
	}
}

func TestSidesAndEngineStrings(t *testing.T) {
	if DOnly.String() != "d-cache" || IOnly.String() != "i-cache" || BothSides.String() != "d+i-caches" {
		t.Error("Sides strings wrong")
	}
	if OutOfOrderEngine.String() != "out-of-order" || InOrderEngine.String() != "in-order" {
		t.Error("Engine strings wrong")
	}
}

func TestGridHierarchyAndL2Axes(t *testing.T) {
	// Sides × L2Orgs crossing: the L2Only×NonResizable contradiction is
	// skipped, the rest expand.
	plan, err := Grid{
		Benchmarks:    []string{"gcc"},
		Organizations: []Organization{SelectiveSets},
		Sides:         []Sides{DOnly, L2Only},
		L2Orgs:        []Organization{NonResizable, SelectiveWays},
		Instructions:  100_000,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// (DOnly, fixed L2), (DOnly, ways L2), (L2Only, ways L2).
	if plan.Len() != 3 {
		t.Fatalf("plan has %d scenarios, want 3: %+v", plan.Len(), plan.Scenarios())
	}
	var l2only, dWithL2 int
	for _, sc := range plan.Scenarios() {
		if sc.Sides == L2Only {
			l2only++
		}
		if sc.Sides == DOnly && sc.L2.Organization == SelectiveWays {
			dWithL2++
		}
	}
	if l2only != 1 || dWithL2 != 1 {
		t.Errorf("unexpected cells: %+v", plan.Scenarios())
	}

	// The Hierarchies axis expands like any other dimension.
	plan, err = Grid{
		Benchmarks:    []string{"gcc"},
		Organizations: []Organization{SelectiveSets},
		Sides:         []Sides{DOnly},
		Hierarchies:   []Hierarchy{BaseL2, NoL2, DeepL2L3},
		Instructions:  100_000,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 3 {
		t.Fatalf("hierarchy axis expanded to %d scenarios, want 3", plan.Len())
	}

	// A resizable L2 crossed with a Hierarchies axis that includes NoL2:
	// the NoL2×resizable-L2 cells are contradictions and are skipped,
	// not fatal — the remaining hierarchy cells expand.
	plan, err = Grid{
		Benchmarks:  []string{"gcc"},
		Sides:       []Sides{L2Only},
		L2Orgs:      []Organization{SelectiveWays},
		Hierarchies: []Hierarchy{BaseL2, NoL2, BigL2},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 2 {
		t.Fatalf("NoL2 contradiction not skipped: %d scenarios, want 2", plan.Len())
	}
	for _, sc := range plan.Scenarios() {
		if sc.Hierarchy == NoL2 {
			t.Errorf("NoL2 cell survived with a resizable L2: %+v", sc)
		}
	}

	// An all-contradiction grid errors instead of silently emptying.
	if _, err := (Grid{
		Benchmarks:    []string{"gcc"},
		Organizations: []Organization{SelectiveSets},
		Sides:         []Sides{L2Only},
	}).Expand(); err == nil {
		t.Error("grid of only L2Only×NonResizable cells accepted")
	}

	// Equivalent spellings of an L2-only sweep deduplicate.
	plan, err = PlanOf(
		Scenario{Benchmark: "gcc", Sides: L2Only, L2: L2Spec{Organization: Hybrid}},
		Scenario{Benchmark: "gcc", L2: L2Spec{Organization: Hybrid}},
		Scenario{Benchmark: "gcc", Organization: SelectiveSets, Sides: L2Only,
			L2: L2Spec{Organization: Hybrid, Assoc: 4}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 1 {
		t.Fatalf("L2-only spellings did not deduplicate: %+v", plan.Scenarios())
	}
}

// TestL2GridWarmRerun is the hierarchy-as-data acceptance path: a grid
// over the L2Orgs axis with a dynamic L2 strategy expands, runs through
// Session.Run, and memoizes under the hierarchy-aware (keyVersion 2)
// fingerprints — a warm rerun resolves entirely from cache, enqueueing
// and simulating nothing.
func TestL2GridWarmRerun(t *testing.T) {
	grid := Grid{
		Benchmarks:    []string{"m88ksim"},
		Organizations: []Organization{SelectiveSets},
		Sides:         []Sides{L2Only},
		L2Orgs:        []Organization{SelectiveWays},
		L2Strategies:  []Strategy{Dynamic},
		Instructions:  60_000,
	}
	plan, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 1 {
		t.Fatalf("plan has %d scenarios, want 1", plan.Len())
	}
	s := NewSession()
	results, err := Collect(s.Run(context.Background(), plan))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Outcome.L2Chosen == "" {
		t.Fatalf("no L2 winner: %+v", results[0].Outcome)
	}
	cold := s.Stats()
	if cold.Runs == 0 || cold.Enqueued == 0 {
		t.Fatalf("cold plan did no work: %+v", cold)
	}

	again, err := Collect(s.Run(context.Background(), plan))
	if err != nil {
		t.Fatal(err)
	}
	warm := s.Stats()
	if warm.Runs != cold.Runs || warm.Enqueued != cold.Enqueued || warm.Submitted != cold.Submitted {
		t.Errorf("warm rerun did fresh work: %+v -> %+v", cold, warm)
	}
	a, b := results[0].Outcome, again[0].Outcome
	a.Stats, b.Stats = runner.Stats{}, runner.Stats{} // per-call deltas differ
	if a != b {
		t.Errorf("warm outcome differs: %+v vs %+v", a, b)
	}
}

// TestGridSkipsL1OrgContradictions: a NonResizable L1 organization
// crossed with L1-resizing Sides is skipped, not fatal.
func TestGridSkipsL1OrgContradictions(t *testing.T) {
	plan, err := Grid{
		Benchmarks:    []string{"gcc"},
		Organizations: []Organization{NonResizable, SelectiveSets},
		Sides:         []Sides{DOnly},
		L2Orgs:        []Organization{SelectiveWays},
		Instructions:  100_000,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Only the SelectiveSets cell survives (DOnly + resizable L2).
	if plan.Len() != 1 {
		t.Fatalf("plan has %d scenarios, want 1: %+v", plan.Len(), plan.Scenarios())
	}
	if sc := plan.Scenarios()[0]; sc.Organization != SelectiveSets || sc.Sides != DOnly {
		t.Errorf("wrong surviving cell: %+v", sc)
	}
	// NonResizable × BothSides × resizable L2 folds to L2Only and stays.
	plan, err = Grid{
		Benchmarks:    []string{"gcc"},
		Organizations: []Organization{NonResizable},
		L2Orgs:        []Organization{SelectiveWays},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 1 || plan.Scenarios()[0].Sides != L2Only {
		t.Fatalf("BothSides+L2 fold missing: %+v", plan.Scenarios())
	}
	// NonResizable × BothSides × fixed L2 is a contradiction: all cells
	// skipped -> error.
	if _, err := (Grid{
		Benchmarks:    []string{"gcc"},
		Organizations: []Organization{NonResizable},
	}).Expand(); err == nil {
		t.Error("all-contradiction grid accepted")
	}
}

// TestGridPlanUsesGangs: the acceptance check for one-pass sweeps — an
// unchanged Grid plan transparently coalesces its same-benchmark
// profiling simulations into gangs, visible only through the Ganged
// counters (the facade API is untouched).
func TestGridPlanUsesGangs(t *testing.T) {
	plan, err := Grid{
		Benchmarks:    []string{"m88ksim"},
		Organizations: []Organization{SelectiveSets, SelectiveWays},
		Sides:         []Sides{DOnly},
		Instructions:  60_000,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession()
	if _, err := Collect(s.Run(context.Background(), plan)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Ganged == 0 || st.GangBatches == 0 {
		t.Errorf("grid plan did not gang: %+v", st)
	}
	if st.Ganged > st.Runs {
		t.Errorf("ganged %d exceeds runs %d", st.Ganged, st.Runs)
	}

	// GangSize 1 opts a session out; the same plan then runs solo only.
	off, err := NewSessionWith(SessionOptions{GangSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(off.Run(context.Background(), plan)); err != nil {
		t.Fatal(err)
	}
	if st := off.Stats(); st.Ganged != 0 {
		t.Errorf("GangSize=1 session still ganged: %+v", st)
	}
}
