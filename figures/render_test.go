package figures

import (
	"strings"
	"testing"

	"resizecache"
)

func TestFig4ResultAccessorsAndRender(t *testing.T) {
	f := Fig4Result{
		DCache: []Fig4Cell{{Assoc: 2, Org: resizecache.SelectiveWays, EDPReductionPct: 5.5},
			{Assoc: 2, Org: resizecache.SelectiveSets, EDPReductionPct: 9.1}},
		ICache: []Fig4Cell{{Assoc: 2, Org: resizecache.SelectiveWays, EDPReductionPct: 6.0},
			{Assoc: 2, Org: resizecache.SelectiveSets, EDPReductionPct: 11.2}},
	}
	if v, ok := f.Cell(resizecache.DOnly, resizecache.SelectiveSets, 2); !ok || v != 9.1 {
		t.Fatalf("Cell = %v,%v", v, ok)
	}
	if _, ok := f.Cell(resizecache.IOnly, resizecache.Hybrid, 16); ok {
		t.Fatal("missing cell reported present")
	}
	s := f.Render()
	for _, frag := range []string{"Figure 4", "D-Cache", "I-Cache", "selective-ways", "9.1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Render missing %q", frag)
		}
	}
	s6 := RenderFigure6(f)
	if !strings.Contains(s6, "Figure 6") || !strings.Contains(s6, "hybrid") {
		t.Errorf("Figure 6 render broken: %q", s6[:60])
	}
}

func TestFig5ResultAccessorsAndRender(t *testing.T) {
	f := Fig5Result{Side: resizecache.DOnly, Rows: []Fig5Row{
		{App: "gcc", WaysSizeRedPct: 50, SetsSizeRedPct: 50, WaysEDPRedPct: 2, SetsEDPRedPct: 4,
			WaysChosen: "static 16K/2-way", SetsChosen: "static 16K/4-way"},
		{App: "vpr", WaysSizeRedPct: 25, SetsSizeRedPct: 50, WaysEDPRedPct: 1, SetsEDPRedPct: 5},
	}}
	sw, ss, ew, es := f.Averages()
	if sw != 37.5 || ss != 50 || ew != 1.5 || es != 4.5 {
		t.Fatalf("Averages = %v %v %v %v", sw, ss, ew, es)
	}
	if r, ok := f.Row("vpr"); !ok || r.SetsEDPRedPct != 5 {
		t.Fatalf("Row = %+v,%v", r, ok)
	}
	if _, ok := f.Row("nosuch"); ok {
		t.Fatal("missing row reported present")
	}
	s := f.Render()
	for _, frag := range []string{"Figure 5", "d-cache", "gcc", "AVG.", "16K/2-way"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Render missing %q", frag)
		}
	}
	if (Fig5Result{}).Render() == "" {
		t.Error("empty render should still produce a header")
	}
	var empty Fig5Result
	if a, b, c, d := empty.Averages(); a+b+c+d != 0 {
		t.Error("empty averages should be zero")
	}
}

func TestFig7ResultAccessorsAndRender(t *testing.T) {
	f := Fig7Result{Side: resizecache.IOnly, Engine: resizecache.InOrderEngine, Rows: []Fig7Row{
		{App: "su2cor", StaticSizeRedPct: 50, DynamicSizeRedPct: 60,
			StaticEDPRedPct: 6, DynamicEDPRedPct: 8,
			StaticChosen: "static 16K", DynamicChosen: "dynamic mb=512"},
	}}
	ss, ds, se, de := f.Averages()
	if ss != 50 || ds != 60 || se != 6 || de != 8 {
		t.Fatalf("Averages = %v %v %v %v", ss, ds, se, de)
	}
	if r, ok := f.Row("su2cor"); !ok || r.DynamicEDPRedPct != 8 {
		t.Fatalf("Row = %+v,%v", r, ok)
	}
	if _, ok := f.Row("x"); ok {
		t.Fatal("missing row reported present")
	}
	s := f.Render()
	for _, frag := range []string{"i-cache", "in-order", "su2cor", "dynamic mb=512", "AVG."} {
		if !strings.Contains(s, frag) {
			t.Errorf("Render missing %q", frag)
		}
	}
	var empty Fig7Result
	if a, b, c, d := empty.Averages(); a+b+c+d != 0 {
		t.Error("empty averages should be zero")
	}
}

func TestFig9ResultAccessorsAndRender(t *testing.T) {
	f := Fig9Result{Rows: []Fig9Row{
		{App: "ammp", DAloneSizeRedPct: 40, IAloneSizeRedPct: 45, BothSizeRedPct: 85,
			DAloneEDPRedPct: 15, IAloneEDPRedPct: 13, BothEDPRedPct: 28},
	}}
	dsz, isz, bsz, de, ie, be := f.Averages()
	if dsz != 40 || isz != 45 || bsz != 85 || de != 15 || ie != 13 || be != 28 {
		t.Fatal("Averages broken")
	}
	if r, ok := f.Row("ammp"); !ok || r.BothEDPRedPct != 28 {
		t.Fatalf("Row = %+v,%v", r, ok)
	}
	if _, ok := f.Row("x"); ok {
		t.Fatal("missing row reported present")
	}
	s := f.Render()
	for _, frag := range []string{"Figure 9", "ammp", "d+i sum", "AVG."} {
		if !strings.Contains(s, frag) {
			t.Errorf("Render missing %q", frag)
		}
	}
	var empty Fig9Result
	a1, a2, a3, a4, a5, a6 := empty.Averages()
	if a1+a2+a3+a4+a5+a6 != 0 {
		t.Error("empty averages should be zero")
	}
}

func TestRenderSensitivity(t *testing.T) {
	s := RenderSensitivity("title", []SensitivityRow{{Label: "x", EDPReductionPct: 1.5, SizeRedPct: 50}})
	if !strings.Contains(s, "title") || !strings.Contains(s, "x") || !strings.Contains(s, "1.5") {
		t.Fatalf("render = %q", s)
	}
}
