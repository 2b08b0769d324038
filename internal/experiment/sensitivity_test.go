package experiment

import (
	"context"
	"strings"
	"testing"
)

func sensOpts() Options {
	o := DefaultOptions()
	o.Instructions = 400_000
	o.Apps = []string{"ammp", "vpr"}
	return o
}

func TestSubarraySensitivityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	rows, err := SubarraySensitivity(context.Background(), claimRunner, sensOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Finer subarrays offer more schedule points, so size reduction must
	// be monotonically non-increasing as subarrays coarsen.
	for i := 1; i < len(rows); i++ {
		if rows[i].SizeRedPct > rows[i-1].SizeRedPct+1 {
			t.Errorf("coarser subarray increased size reduction: %+v -> %+v",
				rows[i-1], rows[i])
		}
	}
	// 512B subarrays enable at least as much saving as 4K ones.
	if rows[0].EDPReductionPct < rows[3].EDPReductionPct-0.5 {
		t.Errorf("finest granularity should not lose to coarsest: %+v vs %+v",
			rows[0], rows[3])
	}
}

func TestIntervalSensitivityRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	rows, err := IntervalSensitivity(context.Background(), claimRunner, sensOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SizeRedPct < 0 || r.SizeRedPct > 100 {
			t.Errorf("implausible size reduction %+v", r)
		}
	}
}

func TestL2SensitivityStability(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	rows, err := L2Sensitivity(context.Background(), claimRunner, sensOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's decoupling claim is about footprint: the profiled L1
	// sizes should be stable across L2 capacities. (The EDP percentage
	// legitimately dilutes as a larger L2 takes a bigger energy share.)
	for i := 1; i < len(rows); i++ {
		d := rows[i].SizeRedPct - rows[0].SizeRedPct
		if d < -5 || d > 5 {
			t.Errorf("L2 size changed the profiled L1 sizes: %+v vs %+v", rows[0], rows[i])
		}
	}
	for _, r := range rows {
		if r.EDPReductionPct <= 0 {
			t.Errorf("resizing gain vanished at %s", r.Label)
		}
	}
}

func TestRenderSensitivity(t *testing.T) {
	s := RenderSensitivity("title", []SensitivityRow{{Label: "x", EDPReductionPct: 1.5, SizeRedPct: 50}})
	if !strings.Contains(s, "title") || !strings.Contains(s, "x") || !strings.Contains(s, "1.5") {
		t.Fatalf("render = %q", s)
	}
}
