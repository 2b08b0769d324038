package figures

import (
	"context"
	"fmt"

	"resizecache"
	"resizecache/internal/core"
	"resizecache/internal/geometry"
)

// Sensitivity studies — the "exploiting choice" follow-ups the paper
// leaves implicit: how the headline d-cache result moves with the
// subarray granularity (which sets the resizing floor and step), the
// dynamic controller's interval, and the L2 capacity behind the resized
// L1s. Each study runs as one plan, cached like every figure.

// SensitivityRow is one parameter point of a sensitivity study: the
// suite-mean outcome of resizing the d-cache at that point.
type SensitivityRow struct {
	Label           string
	EDPReductionPct float64
	SizeRedPct      float64
}

// sensPoint is one parameter point of a sensitivity study: its row
// label and the d-cache scenario it runs for every app.
type sensPoint struct {
	label string
	sc    resizecache.Scenario
}

// sensitivity runs every point of a study for every app as one plan and
// averages each point's EDP and d-cache size reductions over the apps.
func sensitivity(ctx context.Context, s resizecache.Executor, domain string, points []sensPoint, o Options) ([]SensitivityRow, error) {
	apps := o.apps()
	var scenarios []resizecache.Scenario
	var cells []cell
	for _, p := range points {
		for _, app := range apps {
			sc := p.sc
			sc.Benchmark, sc.Instructions, sc.Sampling = app, o.Instructions, o.Sampling
			// Results carry the normal form, so index by it.
			one, err := resizecache.PlanOf(sc)
			if err != nil {
				return nil, err
			}
			scenarios = append(scenarios, sc)
			cells = append(cells, cellOf(one.Scenarios()[0]))
		}
	}
	plan, err := resizecache.PlanOf(scenarios...)
	if err != nil {
		return nil, err
	}
	return cachedFigure(ctx, s, domain, plan, o, func(outs map[cell]resizecache.Outcome) ([]SensitivityRow, error) {
		rows := make([]SensitivityRow, 0, len(points))
		for i, p := range points {
			var edp, size float64
			for _, c := range cells[i*len(apps) : (i+1)*len(apps)] {
				edp += outs[c].EDPReductionPct
				size += outs[c].DCacheSizeReductionPct
			}
			n := float64(len(apps))
			rows = append(rows, SensitivityRow{Label: p.label,
				EDPReductionPct: edp / n, SizeRedPct: size / n})
		}
		return rows, nil
	})
}

// SubarraySensitivity sweeps the subarray size (512B, 1K, 2K, 4K) of a
// static selective-sets 32K 2-way d-cache. Smaller subarrays offer
// smaller minimum sizes (a 512B subarray gives a 1K minimum at 2-way),
// larger ones coarser schedules.
func SubarraySensitivity(ctx context.Context, s resizecache.Executor, o Options) ([]SensitivityRow, error) {
	var points []sensPoint
	for _, sub := range []int{512, 1 << 10, 2 << 10, 4 << 10} {
		sched, err := core.BuildSchedule(geometry.Geometry{SizeBytes: 32 << 10, Assoc: 2,
			BlockBytes: 32, SubarrayBytes: sub}, core.SelectiveSets)
		if err != nil {
			return nil, err
		}
		points = append(points, sensPoint{
			label: fmt.Sprintf("%s subarray (%d points, min %s)", geometry.FormatSize(sub),
				len(sched.Points), geometry.FormatSize(sched.MinBytes())),
			sc: resizecache.Scenario{Organization: resizecache.SelectiveSets,
				Sides: resizecache.DOnly, SubarrayBytes: sub},
		})
	}
	return sensitivity(ctx, s, "sens-subarray", points, o)
}

// IntervalSensitivity sweeps the dynamic controller's interval (2K to
// 128K accesses) of a selective-sets 32K 2-way d-cache at a fixed
// miss-bound of 1% of the interval, a 4K size-bound and a 3-interval
// upsize hold, on the in-order engine where adaptation lag is most
// exposed.
func IntervalSensitivity(ctx context.Context, s resizecache.Executor, o Options) ([]SensitivityRow, error) {
	var points []sensPoint
	for _, interval := range []uint64{2048, 8192, 32768, 131072} {
		points = append(points, sensPoint{
			label: fmt.Sprintf("interval %d accesses", interval),
			sc: resizecache.Scenario{Organization: resizecache.SelectiveSets,
				Strategy: resizecache.Dynamic, Sides: resizecache.DOnly, InOrder: true,
				Controller: resizecache.DynamicParams{Interval: interval,
					MissBound: uint64(float64(interval) * 0.01), SizeBoundBytes: 4 << 10,
					UpsizeHold: 3}},
		})
	}
	return sensitivity(ctx, s, "sens-interval", points, o)
}

// L2Sensitivity sweeps the L2 capacity (the 256K, 512K and 1M 4-way
// hierarchy presets) behind a static selective-sets 32K 2-way d-cache,
// to test the paper's claim that L1 resizing has minimal impact on the
// L2 footprint: the resizing gain should be stable across L2 sizes.
func L2Sensitivity(ctx context.Context, s resizecache.Executor, o Options) ([]SensitivityRow, error) {
	var points []sensPoint
	for _, h := range []struct {
		kb   int
		hier resizecache.Hierarchy
	}{{256, resizecache.SmallL2}, {512, resizecache.BaseL2}, {1024, resizecache.BigL2}} {
		points = append(points, sensPoint{
			label: fmt.Sprintf("%dK L2", h.kb),
			sc: resizecache.Scenario{Organization: resizecache.SelectiveSets,
				Sides: resizecache.DOnly, Hierarchy: h.hier},
		})
	}
	return sensitivity(ctx, s, "sens-l2", points, o)
}
