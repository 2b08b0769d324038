// Benchmark harness: one testing.B benchmark per table/figure of the
// paper, raw-throughput benchmarks for the simulator's inner loop, and
// ablation benchmarks that flip the sim.CacheSpec switches
// AblationFullPrecharge and AblationFreeFlush (plus the
// core.HybridMinWays tie-break and a zero dynamic size bound).
//
// Each figure benchmark regenerates its experiment at reduced fidelity
// (three representative apps, 400K instructions) so the whole suite
// finishes in minutes; cmd/figures runs the same drivers at full
// fidelity. Reported custom metrics (edp_red_pct and friends) carry the
// experiment's headline result so regressions in *results*, not just
// speed, show up in benchmark diffs. The raw-throughput benchmarks
// carry an instrs/op metric so ns/instr and instrs/sec are derivable.
// The ablation and orchestration benchmarks assert properties (memo
// hits, barrier counts). Performance claims are made against perfbench
// (BENCHMARK.json), not these numbers; see perfbench/README.md.
package resizecache_test

import (
	"context"
	"testing"
	"time"

	"resizecache"
	"resizecache/figures"
	"resizecache/internal/core"
	"resizecache/internal/experiment"
	"resizecache/internal/geometry"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
	"resizecache/internal/workload"
)

// benchApps is the representative app slice the reduced-fidelity
// benchmarks run: a small-working-set app, a conflict-bound app, and a
// phase-varying app.
var benchApps = []string{"m88ksim", "vpr", "su2cor"}

// benchFigOpts returns the reduced-fidelity figure options every figure
// benchmark uses.
func benchFigOpts() figures.Options {
	return figures.Options{Instructions: 400_000, Apps: benchApps}
}

func benchOpts() experiment.Options {
	o := experiment.DefaultOptions()
	o.Instructions = 400_000
	return o
}

// ---------------------------------------------------------------------
// Raw-throughput benchmarks (simulator engineering, not paper results).
// ---------------------------------------------------------------------

// gcc200K is the base config every raw-throughput benchmark starts
// from: gcc, 200K instructions.
func gcc200K() sim.Config {
	cfg := sim.Default("gcc")
	cfg.Instructions = 200_000
	return cfg
}

// benchSimRun times sim.Run of cfg and reports instrs/op, so ns/instr
// and instrs/sec are derivable.
func benchSimRun(b *testing.B, cfg sim.Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.Instructions), "instrs/op")
}

// BenchmarkSimRun is the simulator's hot path on the base config. The
// table-driven per-access path (precomputed energy tables, hoisted
// geometry) is accountable to this number.
func BenchmarkSimRun(b *testing.B) { benchSimRun(b, gcc200K()) }

// BenchmarkSimRunDeepHierarchy is the same workload on an L2+L3 stack — the
// hierarchy loop's cost scales with levels, not with a hard-wired chain.
func BenchmarkSimRunDeepHierarchy(b *testing.B) {
	cfg := gcc200K()
	cfg.Levels = append(cfg.Levels, sim.LevelSpec{CacheSpec: sim.CacheSpec{
		Geom: geometry.Geometry{SizeBytes: 2 << 20, Assoc: 8, BlockBytes: 64, SubarrayBytes: 4 << 10},
		Org:  core.NonResizable,
	}})
	benchSimRun(b, cfg)
}

// BenchmarkSimInOrder times the latency-exposing engine on the base config.
func BenchmarkSimInOrder(b *testing.B) {
	cfg := gcc200K()
	cfg.Engine = sim.InOrder
	benchSimRun(b, cfg)
}

// BenchmarkSimSampled times interval-sampled execution of exactly the SimRun
// workload (the default sampling schedule, warmup checkpointed through
// an in-memory store as the runner does) and reports sampled_speedup_x:
// the multiplier over a fully detailed sim.Run of the same config,
// measured untimed each invocation. The first iteration computes and
// records the warmup checkpoint; later iterations restore it, exactly
// the steady state of a design-space sweep. edp_relse_pct reports the
// estimate's own error bar (one relative standard error, in percent).
func BenchmarkSimSampled(b *testing.B) {
	full := gcc200K()
	soloStart := time.Now()
	if _, err := sim.Run(full); err != nil {
		b.Fatal(err)
	}
	soloNs := float64(time.Since(soloStart).Nanoseconds())

	cfg := full
	cfg.Sampling = sim.DefaultSampling()
	store := runner.NewMemStore()
	var last sim.Result
	b.ReportAllocs()
	b.ResetTimer()
	sampledStart := time.Now()
	for i := 0; i < b.N; i++ {
		res, _, err := sim.RunWithCheckpoints(cfg, store)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	sampledNs := float64(time.Since(sampledStart).Nanoseconds()) / float64(b.N)
	if sampledNs > 0 {
		b.ReportMetric(soloNs/sampledNs, "sampled_speedup_x")
	}
	if last.Sample != nil {
		b.ReportMetric(100*last.Sample.EDPRelStdErr, "edp_relse_pct")
	}
	b.ReportMetric(float64(cfg.Instructions), "instrs/op")
}

// sweepGangConfigs returns the 8-configuration same-benchmark sweep the
// gang benchmark measures: one benchmark's d-cache design points (four
// capacities at two associativities), all sharing the simulation
// front-end.
func sweepGangConfigs() []sim.Config {
	var cfgs []sim.Config
	for _, assoc := range []int{2, 4} {
		for _, kb := range []int{8, 16, 32, 64} {
			cfg := gcc200K()
			cfg.DCache.Geom.SizeBytes = kb << 10
			cfg.DCache.Geom.Assoc = assoc
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// BenchmarkSweepGang times the 8-config sweep through one gang pass
// (sim.RunGang) and reports gang_speedup_x: the multiplier over running
// the same eight configs as independent sim.Runs (measured untimed each
// invocation). This is the one-pass-sweep headline number; instrs/op
// counts all eight members' instructions, so instrs/sec here is
// sweep-cell throughput.
func BenchmarkSweepGang(b *testing.B) {
	cfgs := sweepGangConfigs()
	soloStart := time.Now()
	for _, cfg := range cfgs {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	soloNs := float64(time.Since(soloStart).Nanoseconds())

	b.ReportAllocs()
	b.ResetTimer()
	gangStart := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunGang(cfgs); err != nil {
			b.Fatal(err)
		}
	}
	gangNs := float64(time.Since(gangStart).Nanoseconds()) / float64(b.N)
	if gangNs > 0 {
		b.ReportMetric(soloNs/gangNs, "gang_speedup_x")
	}
	b.ReportMetric(float64(len(cfgs))*float64(cfgs[0].Instructions), "instrs/op")
}

// BenchmarkWorkloadGenerator times event synthesis alone.
func BenchmarkWorkloadGenerator(b *testing.B) {
	gen := workload.NewGenerator(workload.MustGet("gcc"))
	var ev workload.Event
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !gen.Next(&ev) {
			gen = workload.NewGenerator(workload.MustGet("gcc"))
		}
	}
}

// ---------------------------------------------------------------------
// Figure benchmarks: one per table/figure of the paper, each through
// the declarative batch API on a fresh Session per iteration.
// ---------------------------------------------------------------------

// BenchmarkTable1Hybrid regenerates the hybrid size schedule.
func BenchmarkTable1Hybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// regenerate runs one figure driver b.N times, each on a fresh
// Session at benchFigOpts fidelity, and returns the last result.
func regenerate[T any](b *testing.B, fig func(context.Context, resizecache.Executor, figures.Options) (T, error)) T {
	var last T
	for i := 0; i < b.N; i++ {
		var err error
		if last, err = fig(context.Background(), resizecache.NewSession(), benchFigOpts()); err != nil {
			b.Fatal(err)
		}
	}
	return last
}

// BenchmarkFigure4Organizations regenerates the ways-vs-sets grid.
func BenchmarkFigure4Organizations(b *testing.B) {
	last := regenerate(b, figures.Figure4)
	if v, ok := last.Cell(resizecache.DOnly, resizecache.SelectiveSets, 2); ok {
		b.ReportMetric(v, "sets2way_edp_red_pct")
	}
	if v, ok := last.Cell(resizecache.DOnly, resizecache.SelectiveWays, 16); ok {
		b.ReportMetric(v, "ways16way_edp_red_pct")
	}
}

// BenchmarkFigure5PerApp regenerates the per-app comparison at 4-way.
func BenchmarkFigure5PerApp(b *testing.B) {
	last := regenerate(b, func(ctx context.Context, s resizecache.Executor, o figures.Options) (figures.Fig5Result, error) {
		return figures.Figure5(ctx, s, resizecache.DOnly, o)
	})
	_, _, ew, es := last.Averages()
	b.ReportMetric(ew, "ways_edp_red_pct")
	b.ReportMetric(es, "sets_edp_red_pct")
}

// BenchmarkFigure6Hybrid regenerates the hybrid-organization comparison.
func BenchmarkFigure6Hybrid(b *testing.B) {
	last := regenerate(b, figures.Figure6)
	if v, ok := last.Cell(resizecache.DOnly, resizecache.Hybrid, 4); ok {
		b.ReportMetric(v, "hybrid4way_edp_red_pct")
	}
}

// benchStrategyPanel regenerates one static/dynamic strategy panel.
func benchStrategyPanel(b *testing.B, side resizecache.Sides, engine resizecache.Engine) {
	last := regenerate(b, func(ctx context.Context, s resizecache.Executor, o figures.Options) (figures.Fig7Result, error) {
		return figures.StrategyPanel(ctx, s, side, engine, o)
	})
	_, _, se, de := last.Averages()
	b.ReportMetric(se, "static_edp_red_pct")
	b.ReportMetric(de, "dynamic_edp_red_pct")
}

// BenchmarkFigure7DCacheStrategies regenerates the d-cache static/dynamic panel.
func BenchmarkFigure7DCacheStrategies(b *testing.B) {
	benchStrategyPanel(b, resizecache.DOnly, resizecache.InOrderEngine)
}

// BenchmarkFigure8ICacheStrategies regenerates the i-cache static/dynamic panel.
func BenchmarkFigure8ICacheStrategies(b *testing.B) {
	benchStrategyPanel(b, resizecache.IOnly, resizecache.OutOfOrderEngine)
}

// BenchmarkFigure9DualResize regenerates the both-caches experiment.
func BenchmarkFigure9DualResize(b *testing.B) {
	_, _, _, de, ie, be := regenerate(b, figures.Figure9).Averages()
	b.ReportMetric(de+ie, "sum_edp_red_pct")
	b.ReportMetric(be, "both_edp_red_pct")
}

// BenchmarkFigureL2Resizing regenerates the L2-resizing extension (static panel).
func BenchmarkFigureL2Resizing(b *testing.B) {
	last := regenerate(b, func(ctx context.Context, s resizecache.Executor, o figures.Options) (figures.FigL2Result, error) {
		return figures.FigureL2(ctx, s, resizecache.Static, o)
	})
	if r, ok := last.Row(resizecache.SelectiveSets); ok {
		b.ReportMetric(r.EDPReductionPct, "sets_l2_edp_red_pct")
		b.ReportMetric(r.L2SizeRedPct, "sets_l2_size_red_pct")
	}
}

// ---------------------------------------------------------------------
// Plan batching.
// ---------------------------------------------------------------------

// BenchmarkPlanBatchVsSequential quantifies the tentpole property of
// the batch API: one plan over N scenarios submits its profiling sweeps
// in one batched enqueue pass, where N sequential SimulateContext calls
// pay one enqueue pass per sweep and drain the pool between scenarios.
// (Both paths now gather barrier-free — sequential sweeps pre-enqueue
// their candidates.) Both paths run the identical scenario set on cold
// sessions; the reported metrics carry the enqueue-pass counts and wall
// times.
func BenchmarkPlanBatchVsSequential(b *testing.B) {
	scenarios := make([]resizecache.Scenario, 0, len(benchApps))
	for _, app := range benchApps {
		scenarios = append(scenarios, resizecache.Scenario{
			Benchmark:    app,
			Organization: resizecache.SelectiveSets,
			Sides:        resizecache.DOnly,
			Instructions: 400_000,
		})
	}
	plan, err := resizecache.PlanOf(scenarios...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var planNS, seqNS, planPasses, seqPasses float64
	for i := 0; i < b.N; i++ {
		batch := resizecache.NewSession()
		start := time.Now()
		if _, err := resizecache.Collect(batch.Run(ctx, plan)); err != nil {
			b.Fatal(err)
		}
		planNS = float64(time.Since(start).Nanoseconds())

		seq := resizecache.NewSession()
		start = time.Now()
		for _, sc := range scenarios {
			if _, err := seq.SimulateContext(ctx, sc); err != nil {
				b.Fatal(err)
			}
		}
		seqNS = float64(time.Since(start).Nanoseconds())

		bst, sst := batch.Stats(), seq.Stats()
		if bst.Runs != sst.Runs {
			b.Fatalf("paths ran different work: %d vs %d sims", bst.Runs, sst.Runs)
		}
		if bst.EnqueueBatches >= sst.EnqueueBatches {
			b.Fatalf("plan run did not reduce enqueue passes: %d vs %d",
				bst.EnqueueBatches, sst.EnqueueBatches)
		}
		planPasses, seqPasses = float64(bst.EnqueueBatches), float64(sst.EnqueueBatches)
	}
	b.ReportMetric(planNS, "plan_ns")
	b.ReportMetric(seqNS, "sequential_ns")
	b.ReportMetric(planPasses, "plan_enqueue_passes")
	b.ReportMetric(seqPasses, "sequential_enqueue_passes")
}

// ---------------------------------------------------------------------
// Ablations: the AblationFullPrecharge / AblationFreeFlush switches,
// the HybridMinWays tie-break, and an unbounded dynamic controller.
// ---------------------------------------------------------------------

// staticSetsRun runs m88ksim with a statically downsized selective-sets
// d-cache, with the given ablation switches, and returns the EDP
// reduction versus the non-resizable baseline.
func staticSetsRun(b *testing.B, fullPrecharge, freeFlush bool, dynamic bool) float64 {
	b.Helper()
	base := sim.Default("m88ksim")
	base.Instructions = 400_000
	bres, err := sim.Run(base)
	if err != nil {
		b.Fatal(err)
	}
	cut := base
	cut.DCache.Org = core.SelectiveSets
	if dynamic {
		cut.DCache.Policy = sim.PolicySpec{Kind: sim.PolicyDynamic,
			Interval: 16384, MissBound: 163, SizeBoundBytes: 4 << 10}
	} else {
		cut.DCache.Policy = sim.PolicySpec{Kind: sim.PolicyStatic, StaticIndex: 3} // 4K
	}
	cut.DCache.AblationFullPrecharge = fullPrecharge
	cut.DCache.AblationFreeFlush = freeFlush
	cres, err := sim.Run(cut)
	if err != nil {
		b.Fatal(err)
	}
	return cres.EDP.ReductionPct(bres.EDP)
}

// BenchmarkAblationFullPrecharge flips AblationFullPrecharge: with all
// subarrays precharging regardless of masks, resizing saves (almost)
// nothing — the enabled-subarray accounting is where the benefit lives.
func BenchmarkAblationFullPrecharge(b *testing.B) {
	var withMasks, without float64
	for i := 0; i < b.N; i++ {
		withMasks = staticSetsRun(b, false, false, false)
		without = staticSetsRun(b, true, false, false)
	}
	b.ReportMetric(withMasks, "masked_edp_red_pct")
	b.ReportMetric(without, "fullprecharge_edp_red_pct")
}

// BenchmarkAblationFreeFlush flips AblationFreeFlush to price
// selective-sets' flush semantics under dynamic resizing. su2cor's
// periodic working set makes the controller resize repeatedly, so every
// transition pays (or, ablated, skips) the flush traffic.
func BenchmarkAblationFreeFlush(b *testing.B) {
	run := func(freeFlush bool) float64 {
		base := sim.Default("su2cor")
		base.Instructions = 400_000
		bres, err := sim.Run(base)
		if err != nil {
			b.Fatal(err)
		}
		cut := base
		cut.DCache.Org = core.SelectiveSets
		cut.DCache.Policy = sim.PolicySpec{Kind: sim.PolicyDynamic,
			Interval: 16384, MissBound: 655, SizeBoundBytes: 8 << 10}
		cut.DCache.AblationFreeFlush = freeFlush
		cres, err := sim.Run(cut)
		if err != nil {
			b.Fatal(err)
		}
		return cres.EDP.ReductionPct(bres.EDP)
	}
	var real, free float64
	for i := 0; i < b.N; i++ {
		real = run(false)
		free = run(true)
	}
	b.ReportMetric(real, "realflush_edp_red_pct")
	b.ReportMetric(free, "freeflush_edp_red_pct")
}

// BenchmarkAblationHybridTieBreak compares Table 1's
// prefer-highest-associativity rule (core.Hybrid) with preferring the
// fewest ways (core.HybridMinWays).
func BenchmarkAblationHybridTieBreak(b *testing.B) {
	opts := benchOpts()
	ctx, r := context.Background(), runner.New(runner.Options{})
	var maxAssoc, minWays float64
	for i := 0; i < b.N; i++ {
		ba, err := experiment.BestSpec(ctx, r, experiment.NewSweepSpec("vpr", experiment.DSide, core.Hybrid, 4, false, opts))
		if err != nil {
			b.Fatal(err)
		}
		bw, err := experiment.BestSpec(ctx, r, experiment.NewSweepSpec("vpr", experiment.DSide, core.HybridMinWays, 4, false, opts))
		if err != nil {
			b.Fatal(err)
		}
		maxAssoc = ba.EDPReductionPct()
		minWays = bw.EDPReductionPct()
	}
	b.ReportMetric(maxAssoc, "maxassoc_edp_red_pct")
	b.ReportMetric(minWays, "minways_edp_red_pct")
}

// BenchmarkAblationNoSizeBound sets SizeBoundBytes to zero, removing the
// dynamic controller's thrash guard. ammp's working set fits 4K but not
// 2K, so an unbounded controller oscillates at the bottom of the
// schedule, flushing and refilling every other interval.
func BenchmarkAblationNoSizeBound(b *testing.B) {
	run := func(bound int) float64 {
		base := sim.Default("ammp")
		base.Engine = sim.InOrder
		base.Instructions = 400_000
		bres, err := sim.Run(base)
		if err != nil {
			b.Fatal(err)
		}
		cut := base
		cut.DCache.Org = core.SelectiveSets
		cut.DCache.Policy = sim.PolicySpec{Kind: sim.PolicyDynamic,
			Interval: 16384, MissBound: 163, SizeBoundBytes: bound}
		cres, err := sim.Run(cut)
		if err != nil {
			b.Fatal(err)
		}
		return cres.EDP.ReductionPct(bres.EDP)
	}
	var bounded, unbounded float64
	for i := 0; i < b.N; i++ {
		bounded = run(8 << 10)
		unbounded = run(0)
	}
	b.ReportMetric(bounded, "sizebound_edp_red_pct")
	b.ReportMetric(unbounded, "nobound_edp_red_pct")
}

// ---------------------------------------------------------------------
// Run-orchestration (internal/runner) memoization.
// ---------------------------------------------------------------------

// BenchmarkRunnerMemoization quantifies the tentpole property of the
// run-orchestration layer: a repeated sweep resolves from the memo store
// instead of re-simulating. Each iteration profiles one app across all
// three organizations on a cold runner — the three static sweeps
// share their non-resizable baseline, so even the cold pass must score
// memo hits — then repeats the identical sweep warm, which must complete
// with zero fresh simulations and far lower wall time.
func BenchmarkRunnerMemoization(b *testing.B) {
	orgs := []core.Organization{core.SelectiveWays, core.SelectiveSets, core.Hybrid}
	var coldNS, warmNS, hits, runs float64
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		r := runner.New(runner.Options{})
		sweep := func() {
			for _, org := range orgs {
				if _, err := experiment.BestSpec(context.Background(), r,
					experiment.NewSweepSpec("m88ksim", experiment.DSide, org, 4, false, opts)); err != nil {
					b.Fatal(err)
				}
			}
		}
		start := time.Now()
		sweep()
		cold := time.Since(start)
		afterCold := r.Stats()
		if afterCold.Hits() < 1 {
			b.Fatalf("cold sweep scored no memo hits: %+v", afterCold)
		}
		start = time.Now()
		sweep()
		warm := time.Since(start)
		st := r.Stats()
		if st.Runs != afterCold.Runs {
			b.Fatalf("warm sweep re-simulated: %d -> %d runs", afterCold.Runs, st.Runs)
		}
		if warm >= cold {
			b.Fatalf("warm sweep (%v) not faster than cold (%v)", warm, cold)
		}
		coldNS = float64(cold.Nanoseconds())
		warmNS = float64(warm.Nanoseconds())
		hits = float64(st.Hits())
		runs = float64(st.Runs)
	}
	b.ReportMetric(coldNS, "cold_ns")
	b.ReportMetric(warmNS, "warm_ns")
	b.ReportMetric(coldNS/warmNS, "speedup_x")
	b.ReportMetric(hits, "memo_hits")
	b.ReportMetric(runs, "sims_run")
}

// BenchmarkArtifactCacheWarmFigures quantifies the sweep-artifact cache:
// rendering one figure warms the next. Each iteration regenerates
// Figure 4 on a cold runner, then Figure 6 — whose grid repeats every
// (ways, sets) cell of Figure 4 — which must resolve those cells as
// whole-sweep artifact hits, and finally Figure 4 again, which must
// resolve every Best grid from the artifact cache with zero new
// simulations (zero new submissions, even: warm sweeps never reach the
// per-config layer).
func BenchmarkArtifactCacheWarmFigures(b *testing.B) {
	ctx := context.Background()
	var coldNS, warmNS, crossHits, warmHits float64
	for i := 0; i < b.N; i++ {
		s := resizecache.NewSession()

		start := time.Now()
		if _, err := figures.Figure4(ctx, s, benchFigOpts()); err != nil {
			b.Fatal(err)
		}
		cold := time.Since(start)
		afterFig4 := s.Stats()
		if afterFig4.ArtifactComputes == 0 {
			b.Fatalf("cold figure computed no sweep artifacts: %+v", afterFig4)
		}

		if _, err := figures.Figure6(ctx, s, benchFigOpts()); err != nil {
			b.Fatal(err)
		}
		afterFig6 := s.Stats()
		if afterFig6.ArtifactHits == afterFig4.ArtifactHits {
			b.Fatalf("figure 6 reused no sweep artifacts from figure 4: %+v", afterFig6)
		}

		start = time.Now()
		if _, err := figures.Figure4(ctx, s, benchFigOpts()); err != nil {
			b.Fatal(err)
		}
		warm := time.Since(start)
		st := s.Stats()
		if st.Runs != afterFig6.Runs {
			b.Fatalf("warm figure re-simulated: %d -> %d runs", afterFig6.Runs, st.Runs)
		}
		if st.Submitted != afterFig6.Submitted {
			b.Fatalf("warm figure reached the per-config layer: %d -> %d submitted",
				afterFig6.Submitted, st.Submitted)
		}
		coldNS = float64(cold.Nanoseconds())
		warmNS = float64(warm.Nanoseconds())
		crossHits = float64(afterFig6.ArtifactHits - afterFig4.ArtifactHits)
		warmHits = float64(st.ArtifactHits - afterFig6.ArtifactHits)
	}
	b.ReportMetric(coldNS, "cold_ns")
	b.ReportMetric(warmNS, "warm_ns")
	b.ReportMetric(coldNS/warmNS, "speedup_x")
	b.ReportMetric(crossHits, "crossfigure_artifact_hits")
	b.ReportMetric(warmHits, "warmfigure_artifact_hits")
}
