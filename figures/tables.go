package figures

import (
	"fmt"
	"strings"

	"resizecache/internal/core"
	"resizecache/internal/geometry"
	"resizecache/internal/sim"
)

// The tables are static renderings of the design space and base system —
// no simulation, so they bypass the plan machinery.

// Table1 renders the hybrid size/associativity matrix of the paper's
// Table 1 together with the derived resizing schedule.
func Table1() (string, error) {
	g := geometry.Geometry{SizeBytes: 32 << 10, Assoc: 4, BlockBytes: 32, SubarrayBytes: 1 << 10}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: hybrid resizing granularity, %v\n\n", g)
	fmt.Fprintf(&b, "%-12s", "way size")
	for w := g.Assoc; w >= 1; w-- {
		fmt.Fprintf(&b, "%8s", fmt.Sprintf("%d-way", w))
	}
	b.WriteString("\n")
	for ws := g.WayBytes(); ws >= g.SubarrayBytes; ws >>= 1 {
		fmt.Fprintf(&b, "%-12s", geometry.FormatSize(ws))
		for w := g.Assoc; w >= 1; w-- {
			fmt.Fprintf(&b, "%8s", geometry.FormatSize(ws*w))
		}
		b.WriteString("\n")
	}
	sched, err := core.BuildSchedule(g, core.Hybrid)
	if err != nil {
		return "", err
	}
	b.WriteString("\nschedule (redundant sizes -> highest associativity):\n  ")
	for i, p := range sched.Points {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(p.String())
	}
	b.WriteString("\n")
	return b.String(), nil
}

// Table2 renders the base system configuration.
func Table2() string {
	cfg := sim.Default("gcc")
	var b strings.Builder
	b.WriteString("Table 2: base system configuration\n\n")
	rows := [][2]string{
		{"Issue/decode width", fmt.Sprintf("%d instrs per cycle", cfg.CPU.Width)},
		{"ROB / LSQ", fmt.Sprintf("%d entries / %d entries", cfg.CPU.ROBEntries, cfg.CPU.LSQEntries)},
		{"Branch predictor", "combination (gshare + bimodal)"},
		{"writeback buffer / mshr", fmt.Sprintf("%d entries / %d entries", cfg.WritebackEntries, cfg.MSHREntries)},
		{"Base L1 i-cache", fmt.Sprintf("%v; 1 cycle", cfg.ICache.Geom)},
		{"Base L1 d-cache", fmt.Sprintf("%v; 1 cycle", cfg.DCache.Geom)},
		{"L2 unified cache", fmt.Sprintf("%v; %d cycles", cfg.Levels[0].Geom,
			geometry.AccessLatencyCycles(cfg.Levels[0].Geom))},
		{"Memory access latency", "(80 + 5 per 8 bytes) cycles"},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-26s %s\n", r[0], r[1])
	}
	return b.String()
}
