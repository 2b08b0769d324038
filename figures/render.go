package figures

import (
	"fmt"
	"strings"

	"resizecache"
)

// Render formats Figure 4 as a text table.
func (f Fig4Result) Render() string {
	return renderOrgGrid("Figure 4: resizable cache organizations and energy-delay reductions",
		[]resizecache.Organization{resizecache.SelectiveWays, resizecache.SelectiveSets},
		[]int{2, 4, 8, 16}, f.DCache, f.ICache)
}

// RenderFigure6 formats Figure 6 (same grid shape as Figure 4 plus
// hybrid).
func RenderFigure6(f Fig4Result) string {
	return renderOrgGrid("Figure 6: effectiveness of hybrid organizations",
		[]resizecache.Organization{resizecache.Hybrid, resizecache.SelectiveWays, resizecache.SelectiveSets},
		[]int{2, 4, 8, 16}, f.DCache, f.ICache)
}

func renderOrgGrid(title string, orgs []resizecache.Organization, assocs []int, d, i []Fig4Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, side := range []struct {
		name  string
		cells []Fig4Cell
	}{{"(a) D-Cache", d}, {"(b) I-Cache", i}} {
		fmt.Fprintf(&b, "\n%s  — reduction (%%) in processor energy-delay\n", side.name)
		fmt.Fprintf(&b, "  %-16s", "")
		for _, a := range assocs {
			fmt.Fprintf(&b, "%8s", fmt.Sprintf("%d-way", a))
		}
		b.WriteString("\n")
		for _, org := range orgs {
			fmt.Fprintf(&b, "  %-16s", org)
			for _, a := range assocs {
				val := 0.0
				for _, c := range side.cells {
					if c.Org == org && c.Assoc == a {
						val = c.EDPReductionPct
					}
				}
				fmt.Fprintf(&b, "%8.1f", val)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Render formats Figure 5.
func (f Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 (%s): selective-ways vs selective-sets, 32K 4-way, static\n\n", f.Side)
	fmt.Fprintf(&b, "  %-10s %22s   %22s   %-18s %-18s\n", "",
		"size reduction (%)", "EDP reduction (%)", "ways chose", "sets chose")
	fmt.Fprintf(&b, "  %-10s %10s %10s   %10s %10s\n", "app", "ways", "sets", "ways", "sets")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "  %-10s %10.1f %10.1f   %10.1f %10.1f   %-18s %-18s\n",
			r.App, r.WaysSizeRedPct, r.SetsSizeRedPct, r.WaysEDPRedPct, r.SetsEDPRedPct,
			r.WaysChosen, r.SetsChosen)
	}
	sw, ss, ew, es := f.Averages()
	fmt.Fprintf(&b, "  %-10s %10.1f %10.1f   %10.1f %10.1f\n", "AVG.", sw, ss, ew, es)
	return b.String()
}

// Render formats one strategy panel of Figure 7 or 8.
func (f Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s resizing, %v engine: static vs dynamic (32K 2-way selective-sets)\n\n",
		f.Side, f.Engine)
	fmt.Fprintf(&b, "  %-10s %22s   %22s\n", "",
		"size reduction (%)", "EDP reduction (%)")
	fmt.Fprintf(&b, "  %-10s %10s %10s   %10s %10s   %s\n", "app",
		"static", "dynamic", "static", "dynamic", "chosen")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "  %-10s %10.1f %10.1f   %10.1f %10.1f   %s | %s\n",
			r.App, r.StaticSizeRedPct, r.DynamicSizeRedPct,
			r.StaticEDPRedPct, r.DynamicEDPRedPct, r.StaticChosen, r.DynamicChosen)
	}
	ss, ds, se, de := f.Averages()
	fmt.Fprintf(&b, "  %-10s %10.1f %10.1f   %10.1f %10.1f\n", "AVG.", ss, ds, se, de)
	return b.String()
}

// Render formats the L2-resizing sensitivity figure.
func (f FigL2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "L2 resizing (%v): suite-mean outcome per L2 organization (512K 4-way L2, OoO)\n\n", f.Strategy)
	fmt.Fprintf(&b, "  %-16s %8s %9s %9s   %s\n", "L2 organization",
		"EDP (%)", "size (%)", "slow (%)", "energy shares (core/l1i/l1d/l2/mem, %)")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "  %-16s %8.1f %9.1f %9.1f   %.1f / %.1f / %.1f / %.1f / %.1f\n",
			r.Org, r.EDPReductionPct, r.L2SizeRedPct, r.SlowdownPct,
			r.Energy.CorePct, r.Energy.L1IPct, r.Energy.L1DPct, r.Energy.L2Pct, r.Energy.MemPct)
	}
	return b.String()
}

// Render formats Figure 9.
func (f Fig9Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 9: decoupled resizings on d-cache and i-cache (static selective-sets, 32K 2-way, OoO)\n\n")
	fmt.Fprintf(&b, "  %-10s %28s   %28s\n", "",
		"size reduction (%, of d+i)", "EDP reduction (%)")
	fmt.Fprintf(&b, "  %-10s %8s %8s %8s   %8s %8s %8s %8s\n", "app",
		"d", "i", "both", "d", "i", "both", "d+i sum")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "  %-10s %8.1f %8.1f %8.1f   %8.1f %8.1f %8.1f %8.1f\n",
			r.App, r.DAloneSizeRedPct, r.IAloneSizeRedPct, r.BothSizeRedPct,
			r.DAloneEDPRedPct, r.IAloneEDPRedPct, r.BothEDPRedPct,
			r.DAloneEDPRedPct+r.IAloneEDPRedPct)
	}
	dsz, isz, bsz, de, ie, be := f.Averages()
	fmt.Fprintf(&b, "  %-10s %8.1f %8.1f %8.1f   %8.1f %8.1f %8.1f %8.1f\n",
		"AVG.", dsz, isz, bsz, de, ie, be, de+ie)
	return b.String()
}

// RenderSensitivity formats a sensitivity study as a text table.
func RenderSensitivity(title string, rows []SensitivityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n  %-36s %14s %14s\n", title, "parameter", "EDP red (%)", "size red (%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-36s %14.1f %14.1f\n", r.Label, r.EDPReductionPct, r.SizeRedPct)
	}
	return b.String()
}
