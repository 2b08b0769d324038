// Package experiment defines the paper's evaluation machinery: offline
// profiling sweeps that select static sizes and dynamic parameters by
// minimum energy-delay product (BestStatic/BestDynamic/Combined, with
// SweepSpec as the shared sweep descriptor), plus the extension
// sensitivity studies. The table/figure drivers themselves live in the
// public figures package, built on the facade's Grid/Plan/Session.Run
// batch API.
//
// All simulation execution goes through the run-orchestration layer
// (internal/runner): sweeps submit batches of configs to a shared
// memoizing worker pool, so repeated configurations — most prominently
// the non-resizable baseline every sweep compares against — simulate at
// most once per runner, and a plan's sweeps can be enqueued up front in
// one batched pass (EnqueueSweeps) so gathers join in-flight work. On
// top of that, every winner-selection sweep (BestSpec and the
// sensitivity variants) memoizes its outcome as a sweep-level artifact
// (see artifact.go), so a driver repeating a grid another figure
// already profiled resolves the whole sweep — not just its simulations
// — from cache. Every simulation is independently deterministic, so
// results do not depend on scheduling.
package experiment

import (
	"context"
	"fmt"
	"strings"

	"resizecache/internal/core"
	"resizecache/internal/geometry"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
	"resizecache/internal/workload"
)

// Side selects which cache of the hierarchy an experiment resizes.
type Side int

const (
	// DSide resizes the data cache.
	DSide Side = iota
	// ISide resizes the instruction cache.
	ISide
	// BothSides resizes both L1 caches simultaneously (the paper's
	// Figure 9 combined experiment).
	BothSides
	// L2Side resizes the shared L2 (the hierarchy's outermost level).
	L2Side
)

func (s Side) String() string {
	switch s {
	case ISide:
		return "i-cache"
	case BothSides:
		return "d+i-caches"
	case L2Side:
		return "l2-cache"
	default:
		return "d-cache"
	}
}

// Options control sweep scale; the defaults regenerate the paper's
// figures at full fidelity.
type Options struct {
	// Instructions per simulation.
	Instructions uint64
	// Parallelism bounds concurrent simulations within one sweep
	// (0 = the runner's worker-pool size).
	Parallelism int
	// Apps restricts the benchmark list (nil = all twelve).
	Apps []string
	// Engine is the processor model (Figures 4-6 and 9 use the
	// out-of-order base configuration).
	Engine sim.EngineKind
	// Runner executes the simulations (nil = the process-wide shared
	// runner). Passing a dedicated runner makes a sweep hermetic; passing
	// one with a DiskStore makes it resumable across processes.
	Runner *runner.Runner
}

// DefaultOptions returns full-fidelity settings.
func DefaultOptions() Options {
	return Options{Instructions: 1_500_000, Engine: sim.OutOfOrder}
}

func (o Options) apps() []string {
	if len(o.Apps) > 0 {
		return o.Apps
	}
	return workload.Names()
}

func (o Options) runner() *runner.Runner {
	if o.Runner != nil {
		return o.Runner
	}
	return runner.Default()
}

// runAll submits a batch (keys from sim.Keys) through the configured
// runner, honouring the sweep-level parallelism bound.
func (o Options) runAll(ctx context.Context, cfgs []sim.Config, keys []sim.Key) ([]sim.Result, error) {
	return o.runner().RunAllLimit(ctx, cfgs, keys, o.Parallelism)
}

// l1Geom returns the experiments' 32K L1 geometry at a set-associativity.
func l1Geom(assoc int) geometry.Geometry {
	return geometry.Geometry{SizeBytes: 32 << 10, Assoc: assoc,
		BlockBytes: 32, SubarrayBytes: 1 << 10}
}

// baseConfig builds the simulation config for one app with non-resizable
// caches of the given associativities.
func baseConfig(app string, engine sim.EngineKind, instr uint64, dAssoc, iAssoc int) sim.Config {
	cfg := sim.Default(app)
	cfg.Engine = engine
	cfg.Instructions = instr
	cfg.DCache = sim.CacheSpec{Geom: l1Geom(dAssoc), Org: core.NonResizable}
	cfg.ICache = sim.CacheSpec{Geom: l1Geom(iAssoc), Org: core.NonResizable}
	return cfg
}

// BaseConfig builds the non-resizable baseline config sweeps derive
// their candidates from: the app on opts' engine and instruction budget
// with 32K L1s at one associativity and the default shared hierarchy.
// Callers building custom sweeps (a different L2, a deeper hierarchy)
// override Levels before wrapping it in a SweepSpec.
func BaseConfig(app string, assoc int, opts Options) sim.Config {
	return baseConfig(app, opts.Engine, opts.Instructions, assoc, assoc)
}

// Best is the outcome of a profiling sweep for one application: the
// minimum-EDP configuration relative to the non-resizable baseline of the
// same size and associativity.
type Best struct {
	App    string
	Side   Side
	Org    core.Organization
	Desc   string // chosen configuration, e.g. "static 8K/4-way" or "dynamic mb=512 sb=4K"
	Spec   sim.PolicySpec
	Chosen sim.Result
	Base   sim.Result
	// Resized lists the sides a combined run (CombinedBests) resized;
	// empty for single-sweep Bests, where Side alone identifies the
	// cache. SizeReductionPct computes over these when set.
	Resized []Side `json:",omitempty"`
}

// EDPReductionPct is the paper's headline metric: percent reduction in
// processor energy-delay versus the baseline.
func (b Best) EDPReductionPct() float64 { return b.Chosen.EDP.ReductionPct(b.Base.EDP) }

// sideReport returns the chosen result's report for one resized side.
func (b Best) sideReport(side Side) sim.CacheReport {
	switch side {
	case ISide:
		return b.Chosen.ICache
	case L2Side:
		return b.Chosen.L2()
	default:
		return b.Chosen.DCache
	}
}

// SizeReductionPct is the percent reduction in average enabled capacity
// of the resized cache(s): the single resized cache for sweep Bests,
// the combined d+i capacity for the paper's BothSides experiment, and
// the combined capacity of every resized side for a CombinedBests
// result (which records them in Resized).
func (b Best) SizeReductionPct() float64 {
	sides := b.Resized
	if len(sides) == 0 {
		switch b.Side {
		case BothSides:
			sides = []Side{DSide, ISide}
		default:
			sides = []Side{b.Side}
		}
	}
	var avg, full float64
	for _, s := range sides {
		r := b.sideReport(s)
		avg += r.AvgBytes
		full += float64(r.FullBytes)
	}
	if full == 0 {
		return 0
	}
	return 100 * (1 - avg/full)
}

// SlowdownPct is the performance degradation versus baseline.
func (b Best) SlowdownPct() float64 { return 100 * b.Chosen.EDP.Slowdown(b.Base.EDP) }

// applySide sets the resizable side of a config. Only DSide, ISide, and
// L2Side are valid: combined resizing is a distinct protocol
// (CombinedBests), not a sweep parameter — sweeps must reject BothSides
// via checkSweepSide. For L2Side only the level's geometry,
// organization, and policy are replaced: the base level keeps its
// structural knobs (precharge mode, MSHR and writeback sizing) and its
// ablation switches, so a sweep over an ablated base compares ablated
// candidates against the ablated baseline.
func applySide(cfg *sim.Config, side Side, spec sim.CacheSpec) {
	switch side {
	case ISide:
		cfg.ICache = spec
	case L2Side:
		levels := append([]sim.LevelSpec(nil), cfg.Hierarchy()...)
		// sideGeom already rejected an empty hierarchy.
		levels[0].Geom = spec.Geom
		levels[0].Org = spec.Org
		levels[0].Policy = spec.Policy
		cfg.Levels = levels
		cfg.L2Geom = geometry.Geometry{}
	default:
		cfg.DCache = spec
	}
}

// sideGeom returns the geometry of the cache a side resizes.
func sideGeom(cfg sim.Config, side Side) (geometry.Geometry, error) {
	switch side {
	case ISide:
		return cfg.ICache.Geom, nil
	case L2Side:
		levels := cfg.Hierarchy()
		if len(levels) == 0 {
			return geometry.Geometry{}, fmt.Errorf("experiment: L2 resizing needs a shared level in the hierarchy")
		}
		return levels[0].Geom, nil
	default:
		return cfg.DCache.Geom, nil
	}
}

// checkSweepSide rejects sides a single-cache profiling sweep cannot
// resize; without it BothSides would silently profile the d-cache only
// while reporting combined d+i metrics.
func checkSweepSide(side Side) error {
	if side != DSide && side != ISide && side != L2Side {
		return fmt.Errorf("experiment: profiling sweeps resize one cache (got %v); use CombinedBests for several", side)
	}
	return nil
}

// pickBest selects the minimum-EDP candidate from a sweep batch whose
// first element is the baseline.
func pickBest(res []sim.Result) int {
	best := 1
	for i := 2; i < len(res); i++ {
		if res[i].EDP.Product() < res[best].EDP.Product() {
			best = i
		}
	}
	return best
}

// SweepSpec identifies one profiling sweep — the unit a BestStatic or
// BestDynamic call executes, and the unit plan-level batch scheduling
// enqueues up front (see EnqueueSweeps). Base is the fully resolved
// non-resizable baseline config (benchmark, engine, instruction budget,
// associativities, and any sensitivity overrides such as subarray or L2
// geometry); the sweep derives its candidate configs from it
// deterministically, so a spec built twice enumerates byte-identical
// batches and fingerprints to the same artifact.
type SweepSpec struct {
	App     string
	Side    Side
	Org     core.Organization
	Dynamic bool
	Base    sim.Config
}

// NewSweepSpec builds the spec for one (app, side, org, assoc) sweep
// under opts — exactly the sweep BestStaticContext/BestDynamicContext
// run for the same arguments.
func NewSweepSpec(app string, side Side, org core.Organization, assoc int, dynamic bool, opts Options) SweepSpec {
	return SweepSpec{App: app, Side: side, Org: org, Dynamic: dynamic,
		Base: baseConfig(app, opts.Engine, opts.Instructions, assoc, assoc)}
}

// kind is the artifact-cache namespace of the sweep.
func (s SweepSpec) kind() string {
	if s.Dynamic {
		return "best-dynamic"
	}
	return "best-static"
}

// ArtifactKey is the sweep's artifact-cache fingerprint: the sweep kind
// and schema version plus the content fingerprint of every config the
// sweep would run (baseline and all candidates). Anything that changes
// the winner selection — candidate enumeration, schedule building, any
// underlying simulation, or artifactVersion itself — moves it. Layers
// caching values derived from whole sweeps (the facade's figure-level
// aggregates) compose it into their own fingerprints so their caches
// invalidate together with the sweep tier.
func (s SweepSpec) ArtifactKey() (sim.Key, error) {
	cfgs, _, err := s.sweep()
	if err != nil {
		return sim.Key{}, err
	}
	return sweepArtifactKey(s.kind(), sim.Keys(cfgs)), nil
}

// sweep enumerates the batch the spec would run — the baseline followed
// by every candidate — plus a describe function mapping the winning
// batch index to the chosen description and policy.
func (s SweepSpec) sweep() (cfgs []sim.Config, describe func(bestIdx int) (string, sim.PolicySpec), err error) {
	geom, err := sideGeom(s.Base, s.Side)
	if err != nil {
		return nil, nil, err
	}
	sched, err := core.BuildSchedule(geom, s.Org)
	if err != nil {
		return nil, nil, err
	}
	cfgs = []sim.Config{s.Base}
	if s.Dynamic {
		cands := dynamicCandidates(sched, s.Side == L2Side)
		for _, p := range cands {
			cfg := s.Base
			applySide(&cfg, s.Side, sim.CacheSpec{Geom: geom, Org: s.Org,
				Policy: sim.PolicySpec{Kind: sim.PolicyDynamic, Interval: p.Interval,
					MissBound: p.MissBound, SizeBoundBytes: p.SizeBoundBytes,
					UpsizeHoldIntervals: p.UpsizeHold}})
			cfgs = append(cfgs, cfg)
		}
		return cfgs, func(bestIdx int) (string, sim.PolicySpec) {
			p := cands[bestIdx-1]
			return fmt.Sprintf("dynamic mb=%d sb=%s", p.MissBound,
					geometry.FormatSize(p.SizeBoundBytes)),
				sim.PolicySpec{Kind: sim.PolicyDynamic, Interval: p.Interval,
					MissBound: p.MissBound, SizeBoundBytes: p.SizeBoundBytes,
					UpsizeHoldIntervals: p.UpsizeHold}
		}, nil
	}
	for i := range sched.Points {
		cfg := s.Base
		applySide(&cfg, s.Side, sim.CacheSpec{Geom: geom, Org: s.Org,
			Policy: sim.PolicySpec{Kind: sim.PolicyStatic, StaticIndex: i}})
		cfgs = append(cfgs, cfg)
	}
	return cfgs, func(bestIdx int) (string, sim.PolicySpec) {
		return fmt.Sprintf("static %v", sched.Points[bestIdx-1]),
			sim.PolicySpec{Kind: sim.PolicyStatic, StaticIndex: bestIdx - 1}
	}, nil
}

// BestSpec profiles one sweep and returns its minimum-EDP winner versus
// the baseline.
func BestSpec(spec SweepSpec, opts Options) (Best, error) {
	return BestSpecContext(context.Background(), spec, opts)
}

// BestSpecContext is the sweep core: it runs (or resolves) the spec's
// batch and selects the winner. The whole sweep memoizes as one
// artifact through the runner's artifact cache, keyed by the configs it
// would run — so a repeated sweep (the same grid cell in a later
// figure, or a resumed process with a persistent store) resolves
// without submitting a single simulation, and a sweep enqueued up front
// by a plan gathers by joining the in-flight work instead of fanning
// out its own barrier.
func BestSpecContext(ctx context.Context, spec SweepSpec, opts Options) (Best, error) {
	if err := checkSweepSide(spec.Side); err != nil {
		return Best{}, err
	}
	cfgs, describe, err := spec.sweep()
	if err != nil {
		return Best{}, err
	}
	keys := sim.Keys(cfgs)
	return cachedBest(ctx, opts.runner(), sweepArtifactKey(spec.kind(), keys), func(ctx context.Context) (Best, error) {
		// Batch-enqueue the candidate set before gathering, so a solo
		// sweep (a single Session.Simulate, cmd/respcache) coalesces its
		// same-front candidates into gangs exactly like a plan's
		// batched pass does — instead of fanning them out one Run at a
		// time behind a barrier. Skipped when the caller bounds
		// Parallelism, which Enqueue's pool-wide dispatch cannot honour.
		if opts.Parallelism <= 0 {
			enqCtx, stopEnqueue := context.WithCancel(ctx)
			_, waitEnqueued := opts.runner().Enqueue(enqCtx, cfgs, keys)
			defer func() {
				// Abandon stragglers on error; see Enqueue's wait contract.
				stopEnqueue()
				waitEnqueued()
			}()
		}
		res, err := opts.runAll(ctx, cfgs, keys)
		if err != nil {
			return Best{}, err
		}
		bestIdx := pickBest(res)
		desc, pspec := describe(bestIdx)
		return Best{
			App: spec.App, Side: spec.Side, Org: spec.Org,
			Desc: desc, Spec: pspec,
			Chosen: res[bestIdx],
			Base:   res[0],
		}, nil
	})
}

// EnqueueSweeps submits the simulations of every cold sweep in specs to
// the runner in one batched, non-blocking pass: sweeps whose artifact is
// already cached (either tier) are skipped outright, the rest have their
// configs deduplicated by fingerprint (sweeps of one plan share
// baselines) and handed to Runner.Enqueue in one call. The later
// per-sweep gathers (BestSpecContext) then join the in-flight work
// instead of each fanning out its own barrier, so a multi-scenario
// plan's simulations interleave freely on the shared pool. Best-effort:
// a spec whose schedule cannot be built is skipped here and surfaces its
// error from the gather. Returns the number of configs enqueued and a
// wait function with Runner.Enqueue's semantics (cancel ctx, then wait,
// before flushing a store out from under abandoned stragglers).
func EnqueueSweeps(ctx context.Context, specs []SweepSpec, opts Options) (int, func()) {
	r := opts.runner()
	seen := make(map[sim.Key]bool)
	var cfgs []sim.Config
	var keys []sim.Key
	for _, spec := range specs {
		if checkSweepSide(spec.Side) != nil {
			continue
		}
		scfgs, _, err := spec.sweep()
		if err != nil {
			continue
		}
		skeys := sim.Keys(scfgs)
		if r.HasArtifact(sweepArtifactKey(spec.kind(), skeys)) {
			continue
		}
		for i, k := range skeys {
			if !seen[k] {
				seen[k] = true
				cfgs = append(cfgs, scfgs[i])
				keys = append(keys, k)
			}
		}
	}
	if len(cfgs) == 0 {
		return 0, func() {}
	}
	return r.Enqueue(ctx, cfgs, keys)
}

// BestStatic profiles every schedule point of an organization (the
// paper's static strategy: run each offered size offline, pick the
// minimum-EDP one) and returns the winner for one application.
func BestStatic(app string, side Side, org core.Organization, assoc int, opts Options) (Best, error) {
	return BestStaticContext(context.Background(), app, side, org, assoc, opts)
}

// BestStaticContext is BestStatic with cancellation.
func BestStaticContext(ctx context.Context, app string, side Side, org core.Organization, assoc int, opts Options) (Best, error) {
	return BestSpecContext(ctx, NewSweepSpec(app, side, org, assoc, false, opts), opts)
}

// DynamicParams is one dynamic-controller parameterization.
type DynamicParams struct {
	Interval       uint64
	MissBound      uint64
	SizeBoundBytes int
	UpsizeHold     int
}

// dynamicCandidates enumerates the offline profiling grid for the
// miss-ratio controller: miss-bounds as fractions of the interval and
// size-bounds across the schedule's range. lowTraffic selects the
// interval set for caches that see only the level above's misses (the
// shared L2): an order of magnitude shorter, so the controller still
// observes enough interval boundaries to adapt.
func dynamicCandidates(sched core.Schedule, lowTraffic bool) []DynamicParams {
	// Miss-bounds span well past each app's background miss level
	// (conflict and cold misses) or the controller would pin at full
	// size; the shorter interval tracks phases in shorter runs; the
	// size-bound candidates are every offered size below full, since the
	// bound is how profiling pins the controller at an app's known floor.
	intervals := []uint64{4096, 16384, 65536}
	if lowTraffic {
		intervals = []uint64{128, 1024, 8192}
	}
	missFracs := []float64{0.002, 0.005, 0.01, 0.02, 0.04, 0.08, 0.15}
	var sizeBounds []int
	for _, p := range sched.Points[1:] {
		sizeBounds = append(sizeBounds, p.Bytes)
	}
	if len(sizeBounds) == 0 {
		sizeBounds = []int{sched.Geom.SizeBytes}
	}
	holds := []int{0, 3}
	var out []DynamicParams
	seen := map[DynamicParams]bool{}
	for _, iv := range intervals {
		for _, mf := range missFracs {
			for _, sb := range sizeBounds {
				for _, h := range holds {
					p := DynamicParams{Interval: iv,
						MissBound: uint64(mf * float64(iv)), SizeBoundBytes: sb,
						UpsizeHold: h}
					if !seen[p] {
						seen[p] = true
						out = append(out, p)
					}
				}
			}
		}
	}
	return out
}

// BestDynamic profiles the dynamic controller's parameter grid for one
// application and returns the minimum-EDP parameterization.
func BestDynamic(app string, side Side, org core.Organization, assoc int, opts Options) (Best, error) {
	return BestDynamicContext(context.Background(), app, side, org, assoc, opts)
}

// BestDynamicContext is BestDynamic with cancellation.
func BestDynamicContext(ctx context.Context, app string, side Side, org core.Organization, assoc int, opts Options) (Best, error) {
	return BestSpecContext(ctx, NewSweepSpec(app, side, org, assoc, true, opts), opts)
}

// Combined runs one simulation with both L1s resizing at their
// individually profiled configurations (the paper's Figure 9 protocol:
// the additivity of d- and i-cache resizing lets each be profiled
// alone). The returned Best compares against the shared non-resizable
// baseline.
func Combined(app string, org core.Organization, assoc int, dBest, iBest Best, opts Options) (Best, error) {
	return CombinedContext(context.Background(), app, org, assoc, dBest, iBest, opts)
}

// CombinedContext is Combined with cancellation.
func CombinedContext(ctx context.Context, app string, org core.Organization, assoc int, dBest, iBest Best, opts Options) (Best, error) {
	return CombinedBestsContext(ctx,
		baseConfig(app, opts.Engine, opts.Instructions, assoc, assoc),
		[]Best{dBest, iBest}, opts)
}

// CombinedBests is the decoupled-profiling protocol generalized over
// the hierarchy: one simulation with every profiled winner applied to
// its side of base — any subset of {d-cache, i-cache, L2}. Each part
// carries its own side, organization, and policy from its sweep; the
// returned Best compares against the parts' shared non-resizable
// baseline.
func CombinedBests(base sim.Config, parts []Best, opts Options) (Best, error) {
	return CombinedBestsContext(context.Background(), base, parts, opts)
}

// CombinedBestsContext is CombinedBests with cancellation.
func CombinedBestsContext(ctx context.Context, base sim.Config, parts []Best, opts Options) (Best, error) {
	if len(parts) == 0 {
		return Best{}, fmt.Errorf("experiment: no profiled parts to combine")
	}
	cfg := base
	descs := make([]string, 0, len(parts))
	resized := make([]Side, 0, len(parts))
	for _, p := range parts {
		geom, err := sideGeom(cfg, p.Side)
		if err != nil {
			return Best{}, err
		}
		applySide(&cfg, p.Side, sim.CacheSpec{Geom: geom, Org: p.Org, Policy: p.Spec})
		descs = append(descs, p.Desc)
		resized = append(resized, p.Side)
	}
	res, err := opts.runner().Run(ctx, cfg)
	if err != nil {
		return Best{}, err
	}
	return Best{
		App: parts[0].App, Side: BothSides, Org: parts[0].Org,
		Desc:    "both: " + strings.Join(descs, " + "),
		Chosen:  res,
		Base:    parts[0].Base,
		Resized: resized,
	}, nil
}
