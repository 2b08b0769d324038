package sim

import (
	"testing"

	"resizecache/internal/core"
	"resizecache/internal/geometry"
)

func TestDefaultConfigRuns(t *testing.T) {
	cfg := Default("m88ksim")
	cfg.Instructions = 200_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Instructions != 200_000 {
		t.Fatalf("ran %d instructions", res.CPU.Instructions)
	}
	if res.CPU.IPC() <= 0.2 || res.CPU.IPC() > 4 {
		t.Fatalf("implausible IPC %.2f", res.CPU.IPC())
	}
	if res.Energy.TotalPJ() <= 0 {
		t.Fatal("no energy accounted")
	}
	if res.EDP.Product() <= 0 {
		t.Fatal("no EDP")
	}
	if res.DCache.Accesses == 0 || res.ICache.Accesses == 0 {
		t.Fatal("cache accesses missing")
	}
	if res.DCache.AvgBytes != 32<<10 {
		t.Fatalf("non-resizable d-cache avg size %v", res.DCache.AvgBytes)
	}
}

func TestRunValidatesInputs(t *testing.T) {
	if _, err := Run(Default("nosuchapp")); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	cfg := Default("gcc")
	cfg.Instructions = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero budget accepted")
	}
	cfg = Default("gcc")
	cfg.DCache.Geom.BlockBytes = 33
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid d-geometry accepted")
	}
}

func TestStaticResizingReducesEnergy(t *testing.T) {
	// m88ksim has a tiny working set: a statically downsized
	// selective-sets d-cache must cut total energy with little slowdown.
	base := Default("m88ksim")
	base.Instructions = 400_000
	bres, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	small := base
	small.DCache.Org = core.SelectiveSets
	small.DCache.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 2} // 8K
	sres, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	if sres.DCache.AvgBytes >= float64(32<<10) {
		t.Fatalf("d-cache not downsized: %v", sres.DCache.AvgBytes)
	}
	if sres.Energy.L1DPJ >= bres.Energy.L1DPJ {
		t.Fatal("downsizing did not reduce d-cache energy")
	}
	slow := sres.EDP.Slowdown(bres.EDP)
	if slow > 0.06 {
		t.Fatalf("slowdown %.1f%% exceeds paper's 6%% envelope for a fitting WS", 100*slow)
	}
	if sres.EDP.Product() >= bres.EDP.Product() {
		t.Fatal("EDP did not improve")
	}
}

func TestInOrderExposesDMissLatency(t *testing.T) {
	// swim misses a lot when downsized; the in-order engine must suffer
	// more slowdown from the same downsizing than the OoO engine.
	slowdown := func(kind EngineKind) float64 {
		base := Default("swim")
		base.Engine = kind
		base.Instructions = 300_000
		b, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		cut := base
		cut.DCache.Org = core.SelectiveSets
		cut.DCache.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 2} // 8K
		c, err := Run(cut)
		if err != nil {
			t.Fatal(err)
		}
		return c.EDP.Slowdown(b.EDP)
	}
	inord := slowdown(InOrder)
	ooo := slowdown(OutOfOrder)
	if inord <= ooo {
		t.Fatalf("in-order slowdown %.3f should exceed OoO %.3f", inord, ooo)
	}
}

func TestDynamicPolicyProducesSizeTrace(t *testing.T) {
	cfg := Default("su2cor")
	cfg.Instructions = 600_000
	cfg.DCache.Org = core.SelectiveSets
	// The miss-bound must sit above the conflict-miss noise floor of the
	// 2-way base cache or the controller pins at full size.
	cfg.DCache.Policy = PolicySpec{Kind: PolicyDynamic, Interval: 32768, MissBound: 3000}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DCache.SizeTrace) == 0 {
		t.Fatal("dynamic run recorded no intervals")
	}
	if res.DCache.Resizes == 0 {
		t.Fatal("dynamic policy never resized on a periodic workload")
	}
	if res.DCache.SizeReductionPct() <= 0 {
		t.Fatal("no average size reduction")
	}
}

func TestEngineKindString(t *testing.T) {
	if OutOfOrder.String() != "out-of-order" || InOrder.String() != "in-order" {
		t.Fatal("EngineKind strings wrong")
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := Default("vpr")
	cfg.Instructions = 150_000
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.CPU.Cycles != b.CPU.Cycles || a.Energy.TotalPJ() != b.Energy.TotalPJ() {
		t.Fatal("simulation not deterministic")
	}
}

// Energy-share calibration: averaged over the suite on the base config,
// the L1 d-cache share should be near the paper's 18.5 % and the i-cache
// near 17.5 %.
func TestEnergySharesMatchPaperCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep in -short mode")
	}
	var dSum, iSum float64
	names := []string{"ammp", "applu", "apsi", "compress", "gcc", "ijpeg",
		"m88ksim", "su2cor", "swim", "tomcatv", "vortex", "vpr"}
	for _, name := range names {
		cfg := Default(name)
		cfg.Instructions = 300_000
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := res.Energy.Share("l1d")
		i, _ := res.Energy.Share("l1i")
		dSum += d
		iSum += i
	}
	dAvg := dSum / float64(len(names))
	iAvg := iSum / float64(len(names))
	if dAvg < 0.145 || dAvg > 0.225 {
		t.Errorf("avg d-cache share %.1f%%, want ~18.5%%", 100*dAvg)
	}
	if iAvg < 0.135 || iAvg > 0.215 {
		t.Errorf("avg i-cache share %.1f%%, want ~17.5%%", 100*iAvg)
	}
	t.Logf("calibration: l1d %.1f%% (paper 18.5%%), l1i %.1f%% (paper 17.5%%)",
		100*dAvg, 100*iAvg)
}

// The paper's §3 leakage argument: background (clock + leakage) energy is
// proportional to enabled capacity, so downsizing cuts it in proportion.
func TestBackgroundEnergyScalesWithSize(t *testing.T) {
	run := func(static int) Result {
		cfg := Default("m88ksim")
		cfg.Instructions = 200_000
		if static >= 0 {
			cfg.DCache.Org = core.SelectiveSets
			cfg.DCache.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: static}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(-1)
	quarter := run(2) // 8K of 32K
	if full.DCache.BackgroundPJ <= 0 || full.DCache.SwitchingPJ <= 0 {
		t.Fatal("energy split not populated")
	}
	ratio := quarter.DCache.BackgroundPJ / full.DCache.BackgroundPJ
	// Cycles differ slightly between runs; allow a loose band around 1/4.
	if ratio < 0.15 || ratio > 0.45 {
		t.Fatalf("background energy ratio %.2f, want ~0.25 for a quarter-size cache", ratio)
	}
}

// TestHierarchyAsData: the shared hierarchy is built from the Levels
// spec — a resizable L2, a deeper L2+L3 stack, and an L1-only machine
// are all just configs.
func TestHierarchyAsData(t *testing.T) {
	base := Default("m88ksim")
	base.Instructions = 150_000
	bres, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(bres.Levels) != 1 || bres.Levels[0].Name != "L2" {
		t.Fatalf("base hierarchy reports %+v, want one L2", bres.Levels)
	}
	if bres.L2().Accesses == 0 || bres.L2().EnergyPJ <= 0 {
		t.Fatalf("L2 report empty: %+v", bres.L2())
	}
	if bres.L2().AvgBytes != 512<<10 {
		t.Fatalf("non-resizable L2 avg size %v", bres.L2().AvgBytes)
	}

	// Statically downsized selective-ways L2: smaller average size, less
	// L2 energy, and the breakdown's L2 share follows the level reports.
	cut := base
	cut.Levels = []LevelSpec{{CacheSpec: CacheSpec{
		Geom:   base.Levels[0].Geom,
		Org:    core.SelectiveWays,
		Policy: PolicySpec{Kind: PolicyStatic, StaticIndex: 2}, // 2 of 4 ways
	}}}
	cres, err := Run(cut)
	if err != nil {
		t.Fatal(err)
	}
	if got := cres.L2().AvgBytes; got != 256<<10 {
		t.Fatalf("downsized L2 avg %v bytes, want 256K", got)
	}
	if cres.L2().EnergyPJ >= bres.L2().EnergyPJ {
		t.Fatal("downsized L2 should use less energy")
	}
	if cres.Energy.L2PJ != cres.L2().EnergyPJ {
		t.Fatalf("breakdown L2 %.1f != level report %.1f", cres.Energy.L2PJ, cres.L2().EnergyPJ)
	}

	// Dynamic L2 resizing records a size trace through the level report.
	// The interval is short because the L2 only sees L1 misses.
	dyn := base
	dyn.Levels = []LevelSpec{{CacheSpec: CacheSpec{
		Geom: base.Levels[0].Geom,
		Org:  core.SelectiveSets,
		Policy: PolicySpec{Kind: PolicyDynamic, Interval: 128, MissBound: 8,
			SizeBoundBytes: 64 << 10},
	}}}
	dres, err := Run(dyn)
	if err != nil {
		t.Fatal(err)
	}
	if len(dres.Levels[0].SizeTrace) == 0 {
		t.Fatal("dynamic L2 recorded no size trace")
	}

	// Deeper hierarchy: an L3 behind the L2.
	deep := base
	deep.Levels = append(append([]LevelSpec(nil), base.Levels...), LevelSpec{CacheSpec: CacheSpec{
		Geom: geometry.Geometry{SizeBytes: 2 << 20, Assoc: 8, BlockBytes: 64, SubarrayBytes: 4 << 10},
		Org:  core.NonResizable,
	}})
	deepRes, err := Run(deep)
	if err != nil {
		t.Fatal(err)
	}
	if len(deepRes.Levels) != 2 || deepRes.Levels[1].Name != "L3" {
		t.Fatalf("deep hierarchy reports %+v", deepRes.Levels)
	}
	if deepRes.Levels[1].Accesses == 0 {
		t.Fatal("L3 never accessed")
	}
	if deepRes.Levels[1].Accesses > deepRes.Levels[0].Accesses {
		t.Fatal("L3 saw more traffic than the L2 in front of it")
	}

	// No shared levels at all: L1 misses go straight to memory. Fewer
	// levels to absorb misses means more cycles, never fewer.
	flat := base
	flat.Levels = nil
	flatRes, err := Run(flat)
	if err != nil {
		t.Fatal(err)
	}
	if len(flatRes.Levels) != 0 {
		t.Fatalf("flat hierarchy reports %+v", flatRes.Levels)
	}
	if flatRes.Energy.L2PJ != 0 {
		t.Fatalf("flat hierarchy charged L2 energy %.1f", flatRes.Energy.L2PJ)
	}
	if flatRes.CPU.Cycles <= bres.CPU.Cycles {
		t.Fatal("removing the L2 should not speed the machine up")
	}
}
