// Package figures regenerates the paper's tables and figures on top of
// the public resizecache API. Every figure declares its design-space
// grid as a resizecache.Grid, expands it to a Plan, and executes it
// through Session.Run — one batched pass over the whole grid, with
// every cold profiling sweep enqueued on the shared pool up front —
// then aggregates the streamed outcomes into the figure's rows. Warm
// grids (a session that already rendered an overlapping figure, or one
// backed by a persistent store) resolve without submitting a single
// simulation.
package figures

import (
	"context"
	"fmt"
	"sort"

	"resizecache"
)

// Options control figure scale; the zero value regenerates at the
// paper's full fidelity.
type Options struct {
	// Instructions per simulation (0 = the facade default, 1.5M).
	Instructions uint64
	// Apps restricts the benchmark list (nil = all twelve).
	Apps []string
	// Sampling, when enabled, runs every figure simulation interval
	// sampled (resizecache.SamplingSpec): grids regenerate several times
	// faster and the aggregated EDP reductions become estimates with
	// error bars. Sampled and detailed figure aggregates cache under
	// distinct artifact fingerprints. The zero value keeps full detail.
	Sampling resizecache.SamplingSpec
	// Progress, if non-nil, is invoked after each completed scenario of
	// a figure's plan with completed-of-total counts.
	Progress func(completed, total int)
}

func (o Options) apps() []string {
	if len(o.Apps) > 0 {
		return o.Apps
	}
	return resizecache.Benchmarks()
}

// cell indexes one outcome of a figure's plan by its scenario axes.
type cell struct {
	app     string
	org     resizecache.Organization
	strat   resizecache.Strategy
	assoc   int
	sides   resizecache.Sides
	inOrder bool
	hier    resizecache.Hierarchy
	l2org   resizecache.Organization
	l2strat resizecache.Strategy
	l2assoc int
}

func cellOf(sc resizecache.Scenario) cell {
	return cell{app: sc.Benchmark, org: sc.Organization, strat: sc.Strategy,
		assoc: sc.Assoc, sides: sc.Sides, inOrder: sc.InOrder,
		hier: sc.Hierarchy, l2org: sc.L2.Organization, l2strat: sc.L2.Strategy,
		l2assoc: sc.L2.Assoc}
}

// collect runs a plan through the session and indexes the outcomes by
// their axes. The first per-scenario error (in plan order) aborts the
// figure.
func collect(ctx context.Context, s resizecache.Executor, plan resizecache.Plan, o Options) (map[cell]resizecache.Outcome, error) {
	var opts []resizecache.RunOption
	if o.Progress != nil {
		opts = append(opts, resizecache.OnResult(func(_ resizecache.Result, done, total int) {
			o.Progress(done, total)
		}))
	}
	results, err := resizecache.Collect(s.Run(ctx, plan, opts...))
	if err != nil {
		return nil, err
	}
	outs := make(map[cell]resizecache.Outcome, len(results))
	for _, r := range results {
		outs[cellOf(r.Scenario)] = r.Outcome
	}
	return outs, nil
}

// figureVersion tags the aggregated row-set schemas and the aggregation
// logic of every driver in this package. Bump it whenever a result
// struct or an aggregation changes: cached figure-level artifacts from
// older code then miss (and recompute) instead of decoding wrongly.
const figureVersion = 1

// cachedFigure resolves a whole figure — its aggregated, renderable
// result — through the session's plan-level artifact cache: the figure
// aggregate is a pure function of the outcomes of its plan, so it
// memoizes one tier above the per-sweep artifacts. A fully warm figure
// (same session, or a persistent store) returns without probing a
// single per-cell sweep; a cold one expands and runs the plan once and
// caches the aggregate. A cached payload that no longer decodes (e.g. a
// store written by a foreign build) is recomputed once and repaired by
// Executor.Artifact.
func cachedFigure[T any](ctx context.Context, s resizecache.Executor, domain string, g resizecache.Grid, o Options, aggregate func(map[cell]resizecache.Outcome) (T, error)) (T, error) {
	var out T
	plan, err := g.Expand()
	if err != nil {
		return out, err
	}
	err = s.Artifact(ctx, domain, figureVersion, plan, &out, func(ctx context.Context) (any, error) {
		outs, err := collect(ctx, s, plan, o)
		if err != nil {
			return nil, err
		}
		agg, err := aggregate(outs)
		return agg, err
	})
	return out, err
}

// ---------------------------------------------------------------------
// Figures 4 & 6: organization × associativity grids.
// ---------------------------------------------------------------------

// Fig4Cell is one bar of Figure 4: mean EDP reduction for one
// organization at one associativity.
type Fig4Cell struct {
	Assoc           int
	Org             resizecache.Organization
	EDPReductionPct float64
}

// Fig4Result holds both charts of Figure 4 (and Figure 6).
type Fig4Result struct {
	DCache []Fig4Cell
	ICache []Fig4Cell
}

// Cell returns the mean EDP reduction for (side, org, assoc); side is
// DOnly or IOnly.
func (f Fig4Result) Cell(side resizecache.Sides, org resizecache.Organization, assoc int) (float64, bool) {
	cells := f.DCache
	if side == resizecache.IOnly {
		cells = f.ICache
	}
	for _, c := range cells {
		if c.Org == org && c.Assoc == assoc {
			return c.EDPReductionPct, true
		}
	}
	return 0, false
}

// OrgGrid sweeps an organization × associativity grid for the d- and
// i-cache sides separately under the static strategy — the machinery of
// Figures 4 and 6 — as one plan.
func OrgGrid(ctx context.Context, s resizecache.Executor, orgs []resizecache.Organization, assocs []int, o Options) (Fig4Result, error) {
	grid := resizecache.Grid{
		Benchmarks:    o.apps(),
		Organizations: orgs,
		Strategies:    []resizecache.Strategy{resizecache.Static},
		Assocs:        assocs,
		Sides:         []resizecache.Sides{resizecache.DOnly, resizecache.IOnly},
		Instructions:  o.Instructions,
		Sampling:      o.Sampling,
	}
	apps := o.apps()
	return cachedFigure(ctx, s, "org-grid", grid, o, func(outs map[cell]resizecache.Outcome) (Fig4Result, error) {
		var f Fig4Result
		for _, side := range []resizecache.Sides{resizecache.DOnly, resizecache.IOnly} {
			for _, assoc := range assocs {
				for _, org := range orgs {
					var sum float64
					for _, app := range apps {
						sum += outs[cell{app: app, org: org, strat: resizecache.Static,
							assoc: assoc, sides: side}].EDPReductionPct
					}
					c := Fig4Cell{Assoc: assoc, Org: org,
						EDPReductionPct: sum / float64(len(apps))}
					if side == resizecache.DOnly {
						f.DCache = append(f.DCache, c)
					} else {
						f.ICache = append(f.ICache, c)
					}
				}
			}
		}
		return f, nil
	})
}

// Figure4 regenerates Figure 4: static selective-ways vs selective-sets,
// mean processor EDP reduction, for 2/4/8/16-way 32K caches.
func Figure4(ctx context.Context, s resizecache.Executor, o Options) (Fig4Result, error) {
	return OrgGrid(ctx, s,
		[]resizecache.Organization{resizecache.SelectiveWays, resizecache.SelectiveSets},
		[]int{2, 4, 8, 16}, o)
}

// Figure6 regenerates Figure 6: hybrid vs selective-ways vs
// selective-sets across associativities.
func Figure6(ctx context.Context, s resizecache.Executor, o Options) (Fig4Result, error) {
	return OrgGrid(ctx, s,
		[]resizecache.Organization{resizecache.Hybrid, resizecache.SelectiveWays, resizecache.SelectiveSets},
		[]int{2, 4, 8, 16}, o)
}

// ---------------------------------------------------------------------
// Figure 5: per-application comparison at 4-way.
// ---------------------------------------------------------------------

// Fig5Row is one application's bars in Figure 5.
type Fig5Row struct {
	App             string
	WaysSizeRedPct  float64
	SetsSizeRedPct  float64
	WaysEDPRedPct   float64
	SetsEDPRedPct   float64
	WaysChosen      string
	SetsChosen      string
	WaysSlowdownPct float64
	SetsSlowdownPct float64
}

// Fig5Result holds per-app rows plus averages for one cache side.
type Fig5Result struct {
	Side resizecache.Sides
	Rows []Fig5Row
}

// Averages returns mean (sizeWays, sizeSets, edpWays, edpSets).
func (f Fig5Result) Averages() (sw, ss, ew, es float64) {
	if len(f.Rows) == 0 {
		return
	}
	for _, r := range f.Rows {
		sw += r.WaysSizeRedPct
		ss += r.SetsSizeRedPct
		ew += r.WaysEDPRedPct
		es += r.SetsEDPRedPct
	}
	n := float64(len(f.Rows))
	return sw / n, ss / n, ew / n, es / n
}

// Row returns the row for an app.
func (f Fig5Result) Row(app string) (Fig5Row, bool) {
	for _, r := range f.Rows {
		if r.App == app {
			return r, true
		}
	}
	return Fig5Row{}, false
}

// Figure5 regenerates Figure 5 for one side (DOnly or IOnly): per-app
// average-size and EDP reductions of static selective-ways vs
// selective-sets on 32K 4-way.
func Figure5(ctx context.Context, s resizecache.Executor, side resizecache.Sides, o Options) (Fig5Result, error) {
	if side != resizecache.DOnly && side != resizecache.IOnly {
		return Fig5Result{}, fmt.Errorf("figures: Figure 5 compares single-cache resizings (got %v)", side)
	}
	grid := resizecache.Grid{
		Benchmarks:    o.apps(),
		Organizations: []resizecache.Organization{resizecache.SelectiveWays, resizecache.SelectiveSets},
		Strategies:    []resizecache.Strategy{resizecache.Static},
		Assocs:        []int{4},
		Sides:         []resizecache.Sides{side},
		Instructions:  o.Instructions,
		Sampling:      o.Sampling,
	}
	return cachedFigure(ctx, s, "fig5", grid, o, func(outs map[cell]resizecache.Outcome) (Fig5Result, error) {
		sizeRed := func(out resizecache.Outcome) float64 {
			if side == resizecache.IOnly {
				return out.ICacheSizeReductionPct
			}
			return out.DCacheSizeReductionPct
		}
		chosen := func(out resizecache.Outcome) string {
			if side == resizecache.IOnly {
				return out.IChosen
			}
			return out.DChosen
		}
		f := Fig5Result{Side: side}
		for _, app := range o.apps() {
			w := outs[cell{app: app, org: resizecache.SelectiveWays, strat: resizecache.Static, assoc: 4, sides: side}]
			st := outs[cell{app: app, org: resizecache.SelectiveSets, strat: resizecache.Static, assoc: 4, sides: side}]
			f.Rows = append(f.Rows, Fig5Row{
				App:             app,
				WaysSizeRedPct:  sizeRed(w),
				SetsSizeRedPct:  sizeRed(st),
				WaysEDPRedPct:   w.EDPReductionPct,
				SetsEDPRedPct:   st.EDPReductionPct,
				WaysChosen:      chosen(w),
				SetsChosen:      chosen(st),
				WaysSlowdownPct: w.SlowdownPct,
				SetsSlowdownPct: st.SlowdownPct,
			})
		}
		sort.Slice(f.Rows, func(i, j int) bool { return f.Rows[i].App < f.Rows[j].App })
		return f, nil
	})
}

// ---------------------------------------------------------------------
// Figures 7 & 8: static vs dynamic on the two processor types.
// ---------------------------------------------------------------------

// Fig7Row is one application under one engine: static vs dynamic.
type Fig7Row struct {
	App               string
	StaticSizeRedPct  float64
	DynamicSizeRedPct float64
	StaticEDPRedPct   float64
	DynamicEDPRedPct  float64
	StaticChosen      string
	DynamicChosen     string
}

// Fig7Result is one panel (one engine) of Figure 7 or 8.
type Fig7Result struct {
	Side   resizecache.Sides
	Engine resizecache.Engine
	Rows   []Fig7Row
}

// Averages returns mean (staticSize, dynSize, staticEDP, dynEDP).
func (f Fig7Result) Averages() (ss, ds, se, de float64) {
	if len(f.Rows) == 0 {
		return
	}
	for _, r := range f.Rows {
		ss += r.StaticSizeRedPct
		ds += r.DynamicSizeRedPct
		se += r.StaticEDPRedPct
		de += r.DynamicEDPRedPct
	}
	n := float64(len(f.Rows))
	return ss / n, ds / n, se / n, de / n
}

// Row returns the row for an app.
func (f Fig7Result) Row(app string) (Fig7Row, bool) {
	for _, r := range f.Rows {
		if r.App == app {
			return r, true
		}
	}
	return Fig7Row{}, false
}

// StrategyPanel runs the static-vs-dynamic comparison (the machinery of
// Figures 7 and 8) for one cache side (DOnly or IOnly) and engine, on
// 32K 2-way selective-sets as in the paper — one plan spanning both
// strategies' sweeps.
func StrategyPanel(ctx context.Context, s resizecache.Executor, side resizecache.Sides, engine resizecache.Engine, o Options) (Fig7Result, error) {
	if side != resizecache.DOnly && side != resizecache.IOnly {
		return Fig7Result{}, fmt.Errorf("figures: strategy panels compare single-cache resizings (got %v)", side)
	}
	grid := resizecache.Grid{
		Benchmarks:    o.apps(),
		Organizations: []resizecache.Organization{resizecache.SelectiveSets},
		Strategies:    []resizecache.Strategy{resizecache.Static, resizecache.Dynamic},
		Assocs:        []int{2},
		Sides:         []resizecache.Sides{side},
		Engines:       []resizecache.Engine{engine},
		Instructions:  o.Instructions,
		Sampling:      o.Sampling,
	}
	return cachedFigure(ctx, s, "strategy-panel", grid, o, func(outs map[cell]resizecache.Outcome) (Fig7Result, error) {
		inOrder := engine == resizecache.InOrderEngine
		sizeRed := func(out resizecache.Outcome) float64 {
			if side == resizecache.IOnly {
				return out.ICacheSizeReductionPct
			}
			return out.DCacheSizeReductionPct
		}
		chosen := func(out resizecache.Outcome) string {
			if side == resizecache.IOnly {
				return out.IChosen
			}
			return out.DChosen
		}
		f := Fig7Result{Side: side, Engine: engine}
		for _, app := range o.apps() {
			st := outs[cell{app: app, org: resizecache.SelectiveSets, strat: resizecache.Static, assoc: 2, sides: side, inOrder: inOrder}]
			dy := outs[cell{app: app, org: resizecache.SelectiveSets, strat: resizecache.Dynamic, assoc: 2, sides: side, inOrder: inOrder}]
			f.Rows = append(f.Rows, Fig7Row{
				App:               app,
				StaticSizeRedPct:  sizeRed(st),
				DynamicSizeRedPct: sizeRed(dy),
				StaticEDPRedPct:   st.EDPReductionPct,
				DynamicEDPRedPct:  dy.EDPReductionPct,
				StaticChosen:      chosen(st),
				DynamicChosen:     chosen(dy),
			})
		}
		sort.Slice(f.Rows, func(i, j int) bool { return f.Rows[i].App < f.Rows[j].App })
		return f, nil
	})
}

// Figure7 regenerates Figure 7 (d-cache): panel (a) in-order/blocking,
// panel (b) out-of-order/non-blocking.
func Figure7(ctx context.Context, s resizecache.Executor, o Options) (inorder, ooo Fig7Result, err error) {
	inorder, err = StrategyPanel(ctx, s, resizecache.DOnly, resizecache.InOrderEngine, o)
	if err != nil {
		return
	}
	ooo, err = StrategyPanel(ctx, s, resizecache.DOnly, resizecache.OutOfOrderEngine, o)
	return
}

// Figure8 regenerates Figure 8 (i-cache).
func Figure8(ctx context.Context, s resizecache.Executor, o Options) (inorder, ooo Fig7Result, err error) {
	inorder, err = StrategyPanel(ctx, s, resizecache.IOnly, resizecache.InOrderEngine, o)
	if err != nil {
		return
	}
	ooo, err = StrategyPanel(ctx, s, resizecache.IOnly, resizecache.OutOfOrderEngine, o)
	return
}

// ---------------------------------------------------------------------
// Figure 9: resizing d-cache and i-cache together.
// ---------------------------------------------------------------------

// Fig9Row is one application's three bars: d alone, i alone, both.
type Fig9Row struct {
	App string
	// Size reductions are normalized to the combined base d+i capacity.
	DAloneSizeRedPct float64
	IAloneSizeRedPct float64
	BothSizeRedPct   float64
	DAloneEDPRedPct  float64
	IAloneEDPRedPct  float64
	BothEDPRedPct    float64
	BothSlowdownPct  float64
}

// Fig9Result holds Figure 9.
type Fig9Result struct {
	Rows []Fig9Row
}

// Averages returns mean (dSize, iSize, bothSize, dEDP, iEDP, bothEDP).
func (f Fig9Result) Averages() (dsz, isz, bsz, de, ie, be float64) {
	if len(f.Rows) == 0 {
		return
	}
	for _, r := range f.Rows {
		dsz += r.DAloneSizeRedPct
		isz += r.IAloneSizeRedPct
		bsz += r.BothSizeRedPct
		de += r.DAloneEDPRedPct
		ie += r.IAloneEDPRedPct
		be += r.BothEDPRedPct
	}
	n := float64(len(f.Rows))
	return dsz / n, isz / n, bsz / n, de / n, ie / n, be / n
}

// Row returns the row for an app.
func (f Fig9Result) Row(app string) (Fig9Row, bool) {
	for _, r := range f.Rows {
		if r.App == app {
			return r, true
		}
	}
	return Fig9Row{}, false
}

// Figure9 regenerates Figure 9: static selective-sets resizing of the
// d-cache alone, the i-cache alone, and both simultaneously, on the
// base configuration (32K 2-way L1s, out-of-order engine) — one plan
// over the three Sides values. The BothSides scenario holds each cache
// at its standalone profiled winner, matching the paper's
// decoupled-profiling argument.
func Figure9(ctx context.Context, s resizecache.Executor, o Options) (Fig9Result, error) {
	grid := resizecache.Grid{
		Benchmarks:    o.apps(),
		Organizations: []resizecache.Organization{resizecache.SelectiveSets},
		Strategies:    []resizecache.Strategy{resizecache.Static},
		Assocs:        []int{2},
		Sides:         []resizecache.Sides{resizecache.DOnly, resizecache.IOnly, resizecache.BothSides},
		Instructions:  o.Instructions,
		Sampling:      o.Sampling,
	}
	return cachedFigure(ctx, s, "fig9", grid, o, func(outs map[cell]resizecache.Outcome) (Fig9Result, error) {
		var f Fig9Result
		at := func(app string, side resizecache.Sides) resizecache.Outcome {
			return outs[cell{app: app, org: resizecache.SelectiveSets,
				strat: resizecache.Static, assoc: 2, sides: side}]
		}
		for _, app := range o.apps() {
			d, i, both := at(app, resizecache.DOnly), at(app, resizecache.IOnly), at(app, resizecache.BothSides)
			// The two L1s are the same size, so a per-cache reduction is half
			// of the combined d+i capacity reduction.
			f.Rows = append(f.Rows, Fig9Row{
				App:              app,
				DAloneSizeRedPct: d.DCacheSizeReductionPct / 2,
				IAloneSizeRedPct: i.ICacheSizeReductionPct / 2,
				BothSizeRedPct:   (both.DCacheSizeReductionPct + both.ICacheSizeReductionPct) / 2,
				DAloneEDPRedPct:  d.EDPReductionPct,
				IAloneEDPRedPct:  i.EDPReductionPct,
				BothEDPRedPct:    both.EDPReductionPct,
				BothSlowdownPct:  both.SlowdownPct,
			})
		}
		sort.Slice(f.Rows, func(i, j int) bool { return f.Rows[i].App < f.Rows[j].App })
		return f, nil
	})
}

// ---------------------------------------------------------------------
// L2 resizing: the hierarchy-as-data extension figure.
// ---------------------------------------------------------------------

// FigL2Row is one L2 organization's suite-mean outcome under L2-only
// resizing of the base hierarchy's 512K 4-way L2.
type FigL2Row struct {
	Org             resizecache.Organization
	EDPReductionPct float64
	L2SizeRedPct    float64
	SlowdownPct     float64
	// Energy is the suite-mean processor energy breakdown of the chosen
	// configurations — where the saved L2 energy shows up.
	Energy resizecache.EnergyShares
}

// FigL2Result holds the L2-resizing sensitivity figure for one strategy.
type FigL2Result struct {
	Strategy resizecache.Strategy
	Rows     []FigL2Row
}

// Row returns the row for an organization.
func (f FigL2Result) Row(org resizecache.Organization) (FigL2Row, bool) {
	for _, r := range f.Rows {
		if r.Org == org {
			return r, true
		}
	}
	return FigL2Row{}, false
}

// FigureL2 regenerates the L2-resizing sensitivity extension: resize
// the shared L2 alone under each organization (selective-ways,
// selective-sets, hybrid) with the given strategy, and report the
// suite-mean EDP reduction, L2 size reduction, and energy breakdown —
// one plan over the L2Orgs axis through Session.Run, cached like every
// other figure.
func FigureL2(ctx context.Context, s resizecache.Executor, strat resizecache.Strategy, o Options) (FigL2Result, error) {
	orgs := []resizecache.Organization{
		resizecache.SelectiveWays, resizecache.SelectiveSets, resizecache.Hybrid}
	grid := resizecache.Grid{
		Benchmarks: o.apps(),
		// The L1 organization axis is inert for L2-only cells; one value
		// keeps the pre-dedup expansion small.
		Organizations: []resizecache.Organization{resizecache.SelectiveSets},
		Sides:         []resizecache.Sides{resizecache.L2Only},
		L2Orgs:        orgs,
		L2Strategies:  []resizecache.Strategy{strat},
		Instructions:  o.Instructions,
		Sampling:      o.Sampling,
	}
	apps := o.apps()
	return cachedFigure(ctx, s, "fig-l2", grid, o, func(outs map[cell]resizecache.Outcome) (FigL2Result, error) {
		f := FigL2Result{Strategy: strat}
		for _, org := range orgs {
			row := FigL2Row{Org: org}
			for _, app := range apps {
				out := outs[cell{app: app, org: resizecache.NonResizable,
					strat: resizecache.Static, assoc: 2, sides: resizecache.L2Only,
					l2org: org, l2strat: strat, l2assoc: 4}]
				row.EDPReductionPct += out.EDPReductionPct
				row.L2SizeRedPct += out.L2SizeReductionPct
				row.SlowdownPct += out.SlowdownPct
				row.Energy = row.Energy.Add(out.Energy)
			}
			inv := 1 / float64(len(apps))
			row.EDPReductionPct *= inv
			row.L2SizeRedPct *= inv
			row.SlowdownPct *= inv
			row.Energy = row.Energy.Scale(inv)
			f.Rows = append(f.Rows, row)
		}
		return f, nil
	})
}
