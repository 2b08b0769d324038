package experiment

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"resizecache/internal/core"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
)

// claimRunner is shared by the claim tests (the paper-claim assertions
// over fastOpts and sensOpts sweeps), which profile overlapping cells:
// sharing it lets a cell another claim test already profiled resolve
// from memo. Tests that assert runner counters build their own runner.
var claimRunner = runner.New(runner.Options{})

// fastOpts trades fidelity for test speed; claim tests use tolerant
// thresholds accordingly. Full-fidelity numbers come from cmd/figures.
func fastOpts() Options {
	// 1M instructions covers at least one full phase period of every
	// profile; shorter runs truncate phase structure and distort the
	// profiling sweeps.
	o := DefaultOptions()
	o.Instructions = 1_000_000
	return o
}

func TestStaticSweepPicksProfiledMinimum(t *testing.T) {
	opts := fastOpts()
	best, err := BestSpec(context.Background(), claimRunner,
		NewSweepSpec("m88ksim", DSide, core.SelectiveSets, 2, false, opts))
	if err != nil {
		t.Fatal(err)
	}
	// m88ksim's tiny working set must downsize substantially and win EDP.
	if best.SizeReductionPct() < 40 {
		t.Errorf("m88ksim size reduction %.1f%%, want >= 40%%", best.SizeReductionPct())
	}
	if best.EDPReductionPct() <= 5 {
		t.Errorf("m88ksim EDP reduction %.1f%%, want > 5%%", best.EDPReductionPct())
	}
	if best.Spec.Kind != sim.PolicyStatic {
		t.Error("static sweep returned non-static spec")
	}
}

// TestSoloSweepGangsCandidates: a lone sweep (the sequential
// SimulateContext/BestSpec path, no plan in sight) must still route its
// candidates through the runner's batched Enqueue, so same-front
// configs coalesce into gangs and the gather loop never pays a
// fan-out barrier.
func TestSoloSweepGangsCandidates(t *testing.T) {
	opts := DefaultOptions()
	opts.Instructions = 60_000
	r := runner.New(runner.Options{})
	if _, err := BestSpec(context.Background(), r,
		NewSweepSpec("m88ksim", DSide, core.SelectiveSets, 2, false, opts)); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.EnqueueBatches == 0 || st.Enqueued == 0 {
		t.Fatalf("solo sweep bypassed Enqueue: %+v", st)
	}
	if st.Ganged == 0 || st.GangBatches == 0 {
		t.Errorf("solo sweep coalesced no gangs: %+v", st)
	}
	if st.Barriers != 0 {
		t.Errorf("solo sweep fanned out %d gather barriers, want 0", st.Barriers)
	}
}

func TestSwimNeverDownsizes(t *testing.T) {
	opts := fastOpts()
	for _, org := range []core.Organization{core.SelectiveWays, core.SelectiveSets} {
		best, err := BestSpec(context.Background(), claimRunner, NewSweepSpec("swim", DSide, org, 4, false, opts))
		if err != nil {
			t.Fatal(err)
		}
		if best.SizeReductionPct() > 1 {
			t.Errorf("swim downsized %.1f%% under %v; paper: working set fills 32K",
				best.SizeReductionPct(), org)
		}
	}
}

func TestCompressFavorsWaysGranularity(t *testing.T) {
	// compress's ~20K working set needs the 24K point only selective-ways
	// offers at 4-way (paper §4.1).
	opts := fastOpts()
	ctx, r := context.Background(), claimRunner
	w, err := BestSpec(ctx, r, NewSweepSpec("compress", DSide, core.SelectiveWays, 4, false, opts))
	if err != nil {
		t.Fatal(err)
	}
	s, err := BestSpec(ctx, r, NewSweepSpec("compress", DSide, core.SelectiveSets, 4, false, opts))
	if err != nil {
		t.Fatal(err)
	}
	if w.EDPReductionPct() <= s.EDPReductionPct() {
		t.Errorf("compress: ways %.1f%% should beat sets %.1f%%",
			w.EDPReductionPct(), s.EDPReductionPct())
	}
	if !strings.Contains(w.Desc, "24K") {
		t.Errorf("compress ways chose %s, want the 24K point", w.Desc)
	}
}

func TestConflictAppsFavorSets(t *testing.T) {
	// Conflict-bound apps keep their conflict groups resident only while
	// associativity is maintained (paper Fig. 5a). The paper also lists
	// su2cor here; our su2cor profile emphasizes its periodic phase
	// behaviour (Fig. 7) instead — see EXPERIMENTS.md deviations.
	opts := fastOpts()
	ctx, r := context.Background(), claimRunner
	for _, app := range []string{"apsi", "vpr", "tomcatv"} {
		w, err := BestSpec(ctx, r, NewSweepSpec(app, DSide, core.SelectiveWays, 4, false, opts))
		if err != nil {
			t.Fatal(err)
		}
		s, err := BestSpec(ctx, r, NewSweepSpec(app, DSide, core.SelectiveSets, 4, false, opts))
		if err != nil {
			t.Fatal(err)
		}
		if s.EDPReductionPct() <= w.EDPReductionPct() {
			t.Errorf("%s: sets %.1f%% should beat ways %.1f%%",
				app, s.EDPReductionPct(), w.EDPReductionPct())
		}
	}
}

func TestCombinedResizingIsAdditive(t *testing.T) {
	if testing.Short() {
		t.Skip("three-run experiment in -short mode")
	}
	opts := fastOpts()
	ctx, r := context.Background(), claimRunner
	app := "m88ksim"
	dBest, err := BestSpec(ctx, r, NewSweepSpec(app, DSide, core.SelectiveSets, 2, false, opts))
	if err != nil {
		t.Fatal(err)
	}
	iBest, err := BestSpec(ctx, r, NewSweepSpec(app, ISide, core.SelectiveSets, 2, false, opts))
	if err != nil {
		t.Fatal(err)
	}
	both, err := CombinedBests(ctx, r, BaseConfig(app, 2, opts), []Best{dBest, iBest})
	if err != nil {
		t.Fatal(err)
	}
	sum := dBest.EDPReductionPct() + iBest.EDPReductionPct()
	got := both.EDPReductionPct()
	if got < 0.7*sum || got > 1.3*sum+2 {
		t.Errorf("combined %.1f%% not additive vs d+i sum %.1f%%", got, sum)
	}
}

func TestSlowdownEnvelopeHolds(t *testing.T) {
	// Paper: every reported point is within 6%% performance degradation.
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	opts := fastOpts()
	for _, app := range []string{"ammp", "compress", "gcc", "swim"} {
		for _, org := range []core.Organization{core.SelectiveWays, core.SelectiveSets} {
			best, err := BestSpec(context.Background(), claimRunner, NewSweepSpec(app, DSide, org, 4, false, opts))
			if err != nil {
				t.Fatal(err)
			}
			if best.SlowdownPct() > 6 {
				t.Errorf("%s/%v: slowdown %.1f%% exceeds 6%%", app, org, best.SlowdownPct())
			}
		}
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	cfgs := []sim.Config{sim.Default("gcc"), sim.Default("nosuch")}
	cfgs[0].Instructions = 1000
	r := runner.New(runner.Options{Workers: 2})
	if _, err := r.RunAll(context.Background(), cfgs, sim.Keys(cfgs)); err == nil {
		t.Fatal("bad config did not surface")
	}
}

func TestSweepsRejectBothSides(t *testing.T) {
	opts := DefaultOptions()
	ctx, r := context.Background(), runner.New(runner.Options{})
	for _, dynamic := range []bool{false, true} {
		if _, err := BestSpec(ctx, r, NewSweepSpec("gcc", BothSides, core.SelectiveSets, 2, dynamic, opts)); err == nil {
			t.Errorf("BestSpec (dynamic=%v) accepted BothSides", dynamic)
		}
	}
}

func TestSideString(t *testing.T) {
	if DSide.String() != "d-cache" || ISide.String() != "i-cache" ||
		BothSides.String() != "d+i-caches" {
		t.Fatal("Side strings wrong")
	}
}

func TestDynamicCandidatesDeduplicated(t *testing.T) {
	sched, err := core.BuildSchedule(l1Geom(2), core.SelectiveSets)
	if err != nil {
		t.Fatal(err)
	}
	cands := dynamicCandidates(sched, false)
	seen := map[DynamicParams]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("duplicate candidate %+v", c)
		}
		seen[c] = true
		if c.MissBound == 0 || c.Interval == 0 {
			t.Fatalf("degenerate candidate %+v", c)
		}
	}
	if len(cands) < 10 {
		t.Fatalf("only %d candidates", len(cands))
	}
}

// tinyArtifactOpts runs one app at minimal fidelity — enough to
// exercise caching plumbing without a full-fidelity sweep.
func tinyArtifactOpts() Options {
	opts := DefaultOptions()
	opts.Instructions = 60_000
	opts.Apps = []string{"m88ksim"}
	return opts
}

// TestCombinedUsesProfiledSpecs guards the Figure 9 plumbing: the
// combined run must hold exactly the schedule points named by the
// profiled winners' Spec.StaticIndex — not points re-derived from
// average sizes, which can mispick between near-equal entries.
func TestCombinedUsesProfiledSpecs(t *testing.T) {
	opts := tinyArtifactOpts()
	sched, err := core.BuildSchedule(l1Geom(2), core.SelectiveSets)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Points) < 3 {
		t.Fatalf("schedule too short: %d points", len(sched.Points))
	}
	dIdx, iIdx := 1, 2
	mkBest := func(side Side, idx int) Best {
		return Best{App: "m88ksim", Side: side, Org: core.SelectiveSets,
			Spec: sim.PolicySpec{Kind: sim.PolicyStatic, StaticIndex: idx}}
	}
	comb, err := CombinedBests(context.Background(), runner.New(runner.Options{}),
		BaseConfig("m88ksim", 2, opts), []Best{mkBest(DSide, dIdx), mkBest(ISide, iIdx)})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, avg float64, idx int) {
		want := float64(sched.Points[idx].Bytes)
		if avg < 0.99*want || avg > 1.01*want {
			t.Errorf("%s held %.0f bytes, want schedule point %d (%.0f)", name, avg, idx, want)
		}
	}
	check("d-cache", comb.Chosen.DCache.AvgBytes, dIdx)
	check("i-cache", comb.Chosen.ICache.AvgBytes, iIdx)
}

// TestSweepArtifactWarmsAcrossDrivers: regenerating one figure's grid
// warms the next. A Figure-6-shaped grid repeats a Figure-4-shaped
// grid's (ways, sets) cells and adds hybrid; the repeated cells must
// resolve as whole-sweep artifact hits, and re-running the first grid
// must submit zero configs.
func TestSweepArtifactWarmsAcrossDrivers(t *testing.T) {
	opts := tinyArtifactOpts()
	ctx, r := context.Background(), runner.New(runner.Options{})
	grid := func(orgs ...core.Organization) {
		t.Helper()
		for _, side := range []Side{DSide, ISide} {
			for _, org := range orgs {
				for _, app := range opts.apps() {
					if _, err := BestSpec(ctx, r, NewSweepSpec(app, side, org, 2, false, opts)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	grid(core.SelectiveWays, core.SelectiveSets) // Figure 4's cells
	cold := r.Stats()
	if cold.ArtifactComputes != 4 { // 2 sides x 2 orgs x 1 app
		t.Fatalf("cold grid computed %d artifacts, want 4", cold.ArtifactComputes)
	}
	if cold.ArtifactHits != 0 {
		t.Fatalf("cold grid scored %d artifact hits, want 0", cold.ArtifactHits)
	}

	grid(core.Hybrid, core.SelectiveWays, core.SelectiveSets) // Figure 6 repeats them
	warm := r.Stats()
	if got := warm.ArtifactHits - cold.ArtifactHits; got != 4 {
		t.Errorf("repeated cells scored %d artifact hits, want 4", got)
	}
	if got := warm.ArtifactComputes - cold.ArtifactComputes; got != 2 { // hybrid only
		t.Errorf("warm grid computed %d new artifacts, want 2 (hybrid)", got)
	}

	grid(core.SelectiveWays, core.SelectiveSets) // fully warm
	again := r.Stats()
	if again.Submitted != warm.Submitted || again.Runs != warm.Runs {
		t.Errorf("fully warm grid submitted configs: %d -> %d submitted, %d -> %d runs",
			warm.Submitted, again.Submitted, warm.Runs, again.Runs)
	}
}

// TestSweepArtifactResumesFromStore: with a persistent store, a fresh
// runner (a new process in real use) resolves a repeated sweep from the
// artifact tier — zero submissions — and returns the identical Best.
func TestSweepArtifactResumesFromStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	store, err := runner.OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := NewSweepSpec("m88ksim", DSide, core.SelectiveSets, 2, false, tinyArtifactOpts())
	first, err := BestSpec(context.Background(), runner.New(runner.Options{Store: store}), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}

	store2, err := runner.OpenDiskStore(path)
	if err != nil {
		t.Fatal(err)
	}
	r2 := runner.New(runner.Options{Store: store2})
	second, err := BestSpec(context.Background(), r2, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := r2.Stats()
	if st.ArtifactStoreHits != 1 || st.Submitted != 0 || st.Runs != 0 {
		t.Errorf("resumed sweep stats = %+v, want 1 artifact store hit, 0 submitted, 0 runs", st)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("resumed Best differs:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestCachedBestRepairsUndecodablePayload: a stored payload that no
// longer decodes must cost exactly one recompute — the fresh payload
// repairs both tiers, so later calls (and later processes) hit again.
func TestCachedBestRepairsUndecodablePayload(t *testing.T) {
	store := runner.NewMemStore()
	cfg := sim.Default("gcc")
	cfg.Instructions = 1000
	key := sweepArtifactKey("best-static", sim.Keys([]sim.Config{cfg}))
	// Valid JSON (so every Store backend keeps it) that does not decode
	// into a Best payload.
	store.RecordArtifact(key, []byte("[1,2,3]"))

	var computes int
	want := Best{App: "gcc", Desc: "static 8K/2-way"}
	compute := func(context.Context) (Best, error) {
		computes++
		return want, nil
	}
	ctx := context.Background()
	r1 := runner.New(runner.Options{Store: store})
	got, err := cachedBest(ctx, r1, key, compute)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != want.App || got.Desc != want.Desc {
		t.Errorf("repair returned %+v, want %+v", got, want)
	}
	if computes != 1 {
		t.Fatalf("computed %d times, want 1", computes)
	}
	// Same runner: the repaired in-memory tier must decode.
	if _, err := cachedBest(ctx, r1, key, compute); err != nil {
		t.Fatal(err)
	}
	// Fresh runner, same store: the repaired persistent tier must decode.
	r2 := runner.New(runner.Options{Store: store})
	again, err := cachedBest(ctx, r2, key, compute)
	if err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Errorf("repaired payload recomputed (computes = %d)", computes)
	}
	if again.Desc != want.Desc {
		t.Errorf("repaired store returned %+v", again)
	}
}

// TestSweepArtifactKeySeparatesSweeps: distinct sweeps must fingerprint
// apart even when they share structure, and identical sweeps must not.
func TestSweepArtifactKeySeparatesSweeps(t *testing.T) {
	cfgs := func(app string, n uint64) []sim.Config {
		c := sim.Default(app)
		c.Instructions = n
		return []sim.Config{c}
	}
	a := sweepArtifactKey("best-static", sim.Keys(cfgs("gcc", 1000)))
	if b := sweepArtifactKey("best-static", sim.Keys(cfgs("gcc", 1000))); a != b {
		t.Error("identical sweeps fingerprint apart")
	}
	if b := sweepArtifactKey("best-dynamic", sim.Keys(cfgs("gcc", 1000))); a == b {
		t.Error("sweep kind does not move the fingerprint")
	}
	if b := sweepArtifactKey("best-static", sim.Keys(cfgs("vpr", 1000))); a == b {
		t.Error("config contents do not move the fingerprint")
	}
	if b := sweepArtifactKey("best-static", sim.Keys(append(cfgs("gcc", 1000), cfgs("gcc", 2000)...))); a == b {
		t.Error("config count does not move the fingerprint")
	}
}

func TestBestAccessorsOnSides(t *testing.T) {
	b := Best{Side: ISide, Chosen: sim.Result{}, Base: sim.Result{}}
	// Zero results: reductions degenerate but must not panic.
	_ = b.SizeReductionPct()
	_ = b.SlowdownPct()
	b.Side = DSide
	_ = b.SizeReductionPct()
}

// TestEnqueueSweepsBatchesColdAndSkipsWarm: the plan-level batch pass
// must enqueue every distinct config of cold sweeps in one runner pass
// (shared baselines deduplicated), let gathers join with zero fan-out
// barriers, and enqueue nothing once the sweeps' artifacts are warm.
func TestEnqueueSweepsBatchesColdAndSkipsWarm(t *testing.T) {
	opts := tinyArtifactOpts()
	ctx, r := context.Background(), runner.New(runner.Options{})
	specs := []SweepSpec{
		NewSweepSpec("m88ksim", DSide, core.SelectiveSets, 2, false, opts),
		NewSweepSpec("m88ksim", ISide, core.SelectiveSets, 2, false, opts),
	}
	n, _ := EnqueueSweeps(ctx, r, specs)
	if n == 0 {
		t.Fatal("cold sweeps enqueued nothing")
	}
	for _, spec := range specs {
		if _, err := BestSpec(ctx, r, spec); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.EnqueueBatches != 1 || st.Enqueued != uint64(n) {
		t.Errorf("enqueue stats = %+v, want one pass of %d configs", st, n)
	}
	if st.Barriers != 0 {
		t.Errorf("gathers of enqueued sweeps fanned out %d barriers, want 0", st.Barriers)
	}
	if st.Runs != uint64(n) {
		t.Errorf("ran %d configs, want the %d enqueued (dedup broken?)", st.Runs, n)
	}
	// Warm: artifacts exist, so the batch pass skips everything.
	if again, _ := EnqueueSweeps(ctx, r, specs); again != 0 {
		t.Errorf("warm sweeps enqueued %d configs, want 0", again)
	}
	if st := r.Stats(); st.EnqueueBatches != 1 {
		t.Errorf("warm pass still called Enqueue: %+v", st)
	}
}

// TestL2SideSweep: the sweep machinery is hierarchy-generic — an
// L2Side spec profiles the shared L2's schedule and reports through
// the level reports; a hierarchy with no shared level is rejected.
func TestL2SideSweep(t *testing.T) {
	opts := DefaultOptions()
	opts.Instructions = 150_000
	ctx, r := context.Background(), runner.New(runner.Options{})
	base := BaseConfig("m88ksim", 2, opts)
	best, err := BestSpec(ctx, r, SweepSpec{App: "m88ksim", Side: L2Side,
		Org: core.SelectiveWays, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	if best.Side != L2Side {
		t.Fatalf("side = %v", best.Side)
	}
	if best.SizeReductionPct() <= 0 {
		t.Errorf("m88ksim's L2 did not shrink: %s (%.1f%%)", best.Desc, best.SizeReductionPct())
	}
	if got := best.Chosen.L2().AvgBytes; got >= 512<<10 {
		t.Errorf("chosen L2 average %v bytes, want below full size", got)
	}
	// The L1 reports must be untouched by the L2 sweep.
	if best.Chosen.DCache.AvgBytes != 32<<10 {
		t.Errorf("d-cache perturbed: %+v", best.Chosen.DCache)
	}

	flat := base
	flat.Levels = nil
	if _, err := BestSpec(ctx, r, SweepSpec{App: "m88ksim", Side: L2Side,
		Org: core.SelectiveWays, Base: flat}); err == nil {
		t.Error("L2 sweep over an empty hierarchy accepted")
	}
}

// TestCombinedBestsAppliesEverySide: the generalized combined run holds
// each profiled winner — including the L2's — in one simulation.
func TestCombinedBestsAppliesEverySide(t *testing.T) {
	opts := DefaultOptions()
	opts.Instructions = 150_000
	ctx, r := context.Background(), runner.New(runner.Options{})
	base := BaseConfig("m88ksim", 2, opts)
	d, err := BestSpec(ctx, r, SweepSpec{App: "m88ksim", Side: DSide,
		Org: core.SelectiveSets, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := BestSpec(ctx, r, SweepSpec{App: "m88ksim", Side: L2Side,
		Org: core.SelectiveWays, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	comb, err := CombinedBests(ctx, r, base, []Best{d, l2})
	if err != nil {
		t.Fatal(err)
	}
	if comb.Chosen.DCache.AvgBytes >= 32<<10 {
		t.Errorf("combined run left the d-cache at full size: %+v", comb.Chosen.DCache)
	}
	if comb.Chosen.L2().AvgBytes >= 512<<10 {
		t.Errorf("combined run left the L2 at full size: %+v", comb.Chosen.L2())
	}
	if comb.EDPReductionPct() <= 0 {
		t.Errorf("combined resizing lost EDP: %.1f%%", comb.EDPReductionPct())
	}
	// SizeReductionPct computes over the actually resized sides (d + L2,
	// recorded in Resized) — the capacity-dominant L2 shrink must show,
	// not be averaged away against the never-resized i-cache.
	if got := comb.SizeReductionPct(); got <= 50 {
		t.Errorf("combined size reduction %.1f%% ignores the resized L2", got)
	}
	if _, err := CombinedBests(ctx, r, base, nil); err == nil {
		t.Error("empty parts accepted")
	}
}

// TestApplySideL2PreservesLevelKnobs: replacing the L2's cache core
// must keep the base level's structural knobs AND its ablation
// switches, so an ablated-base sweep compares like against like.
func TestApplySideL2PreservesLevelKnobs(t *testing.T) {
	cfg := sim.Default("gcc")
	cfg.Levels[0].AblationFreeFlush = true
	cfg.Levels[0].Precharge = sim.PrechargeFull
	cfg.Levels[0].MSHREntries = 4
	geom := cfg.Levels[0].Geom
	applySide(&cfg, L2Side, sim.CacheSpec{Geom: geom, Org: core.SelectiveWays,
		Policy: sim.PolicySpec{Kind: sim.PolicyStatic, StaticIndex: 1}})
	l := cfg.Levels[0]
	if l.Org != core.SelectiveWays || l.Policy.Kind != sim.PolicyStatic {
		t.Errorf("cache core not replaced: %+v", l)
	}
	if !l.AblationFreeFlush || l.Precharge != sim.PrechargeFull || l.MSHREntries != 4 {
		t.Errorf("level knobs dropped: %+v", l)
	}
}

// TestSweepSpecArtifactKey: stable across calls, distinct per sweep,
// and erroring for an unsweepable spec.
func TestSweepSpecArtifactKey(t *testing.T) {
	opts := DefaultOptions()
	opts.Instructions = 100_000
	st := SweepSpec{App: "gcc", Side: DSide, Org: core.SelectiveSets,
		Base: BaseConfig("gcc", 2, opts)}
	a, err := st.ArtifactKey()
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.ArtifactKey()
	if err != nil || a != b {
		t.Fatalf("artifact key unstable: %v vs %v (%v)", a, b, err)
	}
	dyn := st
	dyn.Dynamic = true
	if k, _ := dyn.ArtifactKey(); k == a {
		t.Error("static and dynamic sweeps share an artifact key")
	}
	l2 := st
	l2.Side = L2Side
	l2.Org = core.SelectiveWays
	if k, _ := l2.ArtifactKey(); k == a {
		t.Error("d-cache and L2 sweeps share an artifact key")
	}
	bad := l2
	bad.Base.Levels = nil
	if _, err := bad.ArtifactKey(); err == nil {
		t.Error("L2 sweep over an empty hierarchy produced a key")
	}
}
