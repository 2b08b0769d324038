package main

import (
	"fmt"
	"math/rand/v2"

	"resizecache"
)

// roles groups the twelve profiles by the behaviour that decides how a
// design-space sweep spends its time. A seed picks one profile per role,
// so every seed exercises each behaviour once while the benchmark is
// never tuned to one app.
var roles = []struct {
	name string
	apps []string
}{
	{"small-working-set", []string{"m88ksim", "ammp", "applu"}},
	{"conflict-bound", []string{"vpr", "apsi", "ijpeg"}},
	{"phase-varying", []string{"su2cor", "compress", "swim"}},
	{"large-code", []string{"gcc", "tomcatv", "vortex"}},
}

// allApps lists the profiles in role order; every reference table covers
// all of them so any seed's draw can be checked.
func allApps() []string {
	var out []string
	for _, r := range roles {
		out = append(out, r.apps...)
	}
	return out
}

var allOrgs = []resizecache.Organization{
	resizecache.SelectiveWays, resizecache.SelectiveSets, resizecache.Hybrid}

// Instruction budgets per workload.
const (
	sweepInstr  = 200_000
	serveInstr  = 400_000
	replayInstr = 20_000
)

// drawRNG returns the random stream for one draw of a workload's
// inputs. A run draws afresh for every pass, so its medians average over
// the seed's draws instead of resting on one app pick or one order.
func drawRNG(seed uint64, draw int, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(draw)<<16^salt))
}

// sweepGrids returns the sweep-cold static grid over apps and the
// dynamic-strategy slice for one app (controller resizes happen only
// under the dynamic strategy).
func sweepGrids(apps []string, dynApp string) []resizecache.Grid {
	return []resizecache.Grid{
		{
			Benchmarks:    apps,
			Organizations: allOrgs,
			Assocs:        []int{2, 4},
			Sides:         []resizecache.Sides{resizecache.DOnly, resizecache.IOnly},
			Engines:       []resizecache.Engine{resizecache.OutOfOrderEngine, resizecache.InOrderEngine},
			Instructions:  sweepInstr,
		},
		{
			Benchmarks:    []string{dynApp},
			Organizations: allOrgs,
			Strategies:    []resizecache.Strategy{resizecache.Dynamic},
			Sides:         []resizecache.Sides{resizecache.DOnly},
			Instructions:  sweepInstr,
		},
	}
}

// serveGrid is the per-app scenario set both serve-sampled clients draw
// their requests from.
func serveGrid(apps []string) resizecache.Grid {
	return resizecache.Grid{
		Benchmarks:    apps,
		Organizations: allOrgs,
		Assocs:        []int{2, 4},
		Sides:         []resizecache.Sides{resizecache.DOnly, resizecache.IOnly, resizecache.BothSides},
		Instructions:  serveInstr,
		Sampling:      resizecache.DefaultSampling(),
	}
}

// replayGrids is the replay-warm plan before the seed orders it: static
// single- and both-cache scenarios, plus a dynamic d-cache slice whose
// controller-parameter sweeps make up most of the store.
func replayGrids(apps []string) []resizecache.Grid {
	return []resizecache.Grid{
		{
			Benchmarks:    apps,
			Organizations: allOrgs,
			Assocs:        []int{2, 4, 8},
			Sides:         []resizecache.Sides{resizecache.DOnly, resizecache.IOnly},
			Instructions:  replayInstr,
		},
		{
			Benchmarks:    apps,
			Organizations: allOrgs,
			Assocs:        []int{2, 4},
			Sides:         []resizecache.Sides{resizecache.BothSides},
			Instructions:  replayInstr,
		},
		{
			Benchmarks:    apps,
			Organizations: allOrgs,
			Strategies:    []resizecache.Strategy{resizecache.Dynamic},
			Sides:         []resizecache.Sides{resizecache.DOnly},
			Instructions:  replayInstr,
		},
	}
}

// scale shrinks a workload for the benchmark's own tests; the zero value
// is the full benchmark.
type scale struct {
	roles      int // sweep-cold roles used (0 = all four)
	perClient  int // serve-sampled apps per client (0 = 7)
	replayApps int // replay-warm apps (0 = all twelve)
	minPasses  int // passes run even past the deadline (0 = 3, or 4 when traced)
	maxPasses  int // 0 = no limit
	skipLayers bool
}

// planSpec is a workload's input: the grids it expands and the
// seed-drawn order of the expanded scenarios. Expansion itself is
// program work, timed by the pass that performs it.
type planSpec struct {
	grids []resizecache.Grid
	perm  []int
}

// expand runs Grid.Expand on every grid and applies the drawn order.
func (p planSpec) expand() ([]resizecache.Scenario, error) {
	var all []resizecache.Scenario
	for _, g := range p.grids {
		plan, err := g.Expand()
		if err != nil {
			return nil, err
		}
		all = append(all, plan.Scenarios()...)
	}
	if len(all) != len(p.perm) {
		return nil, fmt.Errorf("plan expands to %d scenarios, order drawn for %d", len(all), len(p.perm))
	}
	out := make([]resizecache.Scenario, len(all))
	for i, j := range p.perm {
		out[i] = all[j]
	}
	return out, nil
}

// newPlanSpec draws a seed order for grids.
func newPlanSpec(rng *rand.Rand, grids []resizecache.Grid) (planSpec, error) {
	p := planSpec{grids: grids}
	n := 0
	for _, g := range grids {
		plan, err := g.Expand()
		if err != nil {
			return planSpec{}, err
		}
		n += plan.Len()
	}
	p.perm = rng.Perm(n)
	return p, nil
}

// sweepPlan draws the sweep-cold plan: one app per role, the
// phase-varying one also running the dynamic slice. The seed fixes, per
// role, the order in which a run's passes take the role's apps, so any
// three consecutive draws use every app once and the apps' different
// costs average out within a run.
func sweepPlan(seed uint64, draw int, sc scale) (planSpec, []string, error) {
	pick := drawRNG(seed, 0, 0x55)
	n := len(roles)
	if sc.roles > 0 {
		n = sc.roles
	}
	var apps []string
	for _, r := range roles[:n] {
		order := pick.Perm(len(r.apps))
		apps = append(apps, r.apps[order[draw%len(order)]])
	}
	// The dynamic slice costs three times a static app; pinning it to the
	// phase-varying role, where run-time resizing matters most, keeps the
	// draws close in cost.
	p, err := newPlanSpec(drawRNG(seed, draw, 0x5), sweepGrids(apps, apps[min(2, len(apps)-1)]))
	return p, apps, err
}

// servePlan draws the two clients' request lists. Between them the
// lists cover every profile, so each seed asks for the same unique work;
// the seed picks the split, which two apps both clients request (they
// meet on the daemon), and each list's order.
func servePlan(seed uint64, draw int, sc scale) ([2]planSpec, []string, error) {
	rng := drawRNG(seed, draw, 0x5e)
	per, overlap := 7, 2
	if sc.perClient > 0 {
		per, overlap = sc.perClient, 1
	}
	apps := allApps()
	rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	apps = apps[:2*per-overlap]
	var lists [2]planSpec
	for c, sub := range [2][]string{apps[:per], apps[per-overlap:]} {
		p, err := newPlanSpec(rng, []resizecache.Grid{serveGrid(sub)})
		if err != nil {
			return lists, nil, err
		}
		lists[c] = p
	}
	return lists, apps, nil
}

// replayPlan draws the replay-warm plan order.
func replayPlan(seed uint64, draw int, sc scale) (planSpec, []string, error) {
	apps := allApps()
	if sc.replayApps > 0 {
		apps = apps[:sc.replayApps]
	}
	p, err := newPlanSpec(drawRNG(seed, draw, 0x4e), replayGrids(apps))
	return p, apps, err
}

// universe lists every scenario any seed can draw, per workload, at full
// scale or at the tests' reduced one (which gives the dynamic slice to a
// small-working-set app): the reference table is recorded over these.
func universe(workload string) ([]resizecache.Scenario, error) {
	var grids []resizecache.Grid
	switch workload {
	case "sweep-cold":
		for _, app := range allApps() {
			grids = append(grids, sweepGrids([]string{app}, app)...)
		}
	case "serve-sampled":
		grids = []resizecache.Grid{serveGrid(allApps())}
	case "replay-warm":
		grids = replayGrids(allApps())
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	var out []resizecache.Scenario
	for _, g := range grids {
		p, err := g.Expand()
		if err != nil {
			return nil, err
		}
		out = append(out, p.Scenarios()...)
	}
	return out, nil
}
