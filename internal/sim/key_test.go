package sim

import (
	"testing"

	"resizecache/internal/analysis/keycomplete"
	"resizecache/internal/core"
	"resizecache/internal/geometry"
)

// TestKeyVersionPinnedToFieldSet derives its assertion from the
// keycomplete analyzer instead of hand-maintaining a parallel list of
// fingerprinted fields: the analyzer re-extracts this package's
// keyVersion and field-set hash from source and both must match the
// pin table embedded in the analyzer
// (internal/analysis/keycomplete/testdata/fieldhash.txt). Adding a
// Config field without routing it into Key() fails keycomplete;
// changing the fingerprinted shape without bumping keyVersion and
// re-pinning fails here and in simlint identically.
func TestKeyVersionPinnedToFieldSet(t *testing.T) {
	version, hash, err := keycomplete.RepoFieldSet()
	if err != nil {
		t.Fatalf("extracting field set: %v", err)
	}
	if version != keyVersion {
		t.Fatalf("analyzer saw keyVersion %d, package declares %d", version, keyVersion)
	}
	pinned, ok := keycomplete.Pin("resizecache/internal/sim", version)
	if !ok {
		t.Fatalf("keyVersion %d has no pin: add %q to internal/analysis/keycomplete/testdata/fieldhash.txt",
			version, hash)
	}
	if pinned != hash {
		t.Fatalf("fingerprinted field set (hash %s) drifted from the keyVersion-%d pin %s: bump keyVersion and pin the new hash",
			hash, version, pinned)
	}
}

// mutateL2 clones the hierarchy (the Levels backing array is shared
// between config copies) and applies fn to the outermost level.
func mutateL2(c *Config, fn func(*LevelSpec)) {
	c.Levels = append([]LevelSpec(nil), c.Levels...)
	fn(&c.Levels[0])
}

func TestKeyStableAcrossCalls(t *testing.T) {
	a := Default("gcc").Key()
	b := Default("gcc").Key()
	if a != b {
		t.Fatal("identical configs produced different keys")
	}
	if a.String() == "" || len(a.String()) != 64 {
		t.Fatalf("key hex %q not 64 chars", a.String())
	}
}

// TestKeyDistinguishesConfigs mutates every semantically meaningful
// field group and checks each mutation moves the fingerprint.
func TestKeyDistinguishesConfigs(t *testing.T) {
	base := Default("gcc")
	mutations := map[string]func(*Config){
		"benchmark":     func(c *Config) { c.Benchmark = "vpr" },
		"instructions":  func(c *Config) { c.Instructions++ },
		"engine":        func(c *Config) { c.Engine = InOrder },
		"cpu width":     func(c *Config) { c.CPU.Width++ },
		"rob":           func(c *Config) { c.CPU.ROBEntries++ },
		"dcache geom":   func(c *Config) { c.DCache.Geom.Assoc *= 2 },
		"dcache org":    func(c *Config) { c.DCache.Org = core.SelectiveSets },
		"icache org":    func(c *Config) { c.ICache.Org = core.SelectiveWays },
		"dcache policy": func(c *Config) { c.DCache.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 1} },
		"static index": func(c *Config) {
			c.DCache.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 2}
		},
		"dynamic params": func(c *Config) {
			c.DCache.Policy = PolicySpec{Kind: PolicyDynamic, Interval: 4096, MissBound: 64}
		},
		"ablation precharge": func(c *Config) { c.DCache.AblationFullPrecharge = true },
		"ablation flush":     func(c *Config) { c.ICache.AblationFreeFlush = true },
		"l2 geom":            func(c *Config) { mutateL2(c, func(l *LevelSpec) { l.Geom.SizeBytes *= 2 }) },
		"l2 assoc":           func(c *Config) { mutateL2(c, func(l *LevelSpec) { l.Geom.Assoc *= 2 }) },
		"l2 org":             func(c *Config) { mutateL2(c, func(l *LevelSpec) { l.Org = core.SelectiveWays }) },
		"l2 policy": func(c *Config) {
			mutateL2(c, func(l *LevelSpec) {
				l.Org = core.SelectiveWays
				l.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 1}
			})
		},
		"l2 precharge": func(c *Config) { mutateL2(c, func(l *LevelSpec) { l.Precharge = PrechargeFull }) },
		"l2 mshrs":     func(c *Config) { mutateL2(c, func(l *LevelSpec) { l.MSHREntries = 4 }) },
		"l2 writeback": func(c *Config) { mutateL2(c, func(l *LevelSpec) { l.WritebackEntries = 4 }) },
		"l2 ablation":  func(c *Config) { mutateL2(c, func(l *LevelSpec) { l.AblationFreeFlush = true }) },
		"added l3": func(c *Config) {
			c.Levels = append(append([]LevelSpec(nil), c.Levels...), LevelSpec{CacheSpec: CacheSpec{
				Geom: geometry.Geometry{SizeBytes: 2 << 20, Assoc: 8, BlockBytes: 64, SubarrayBytes: 4 << 10},
				Org:  core.NonResizable,
			}})
		},
		"no shared levels": func(c *Config) { c.Levels = nil },
		"mshrs":            func(c *Config) { c.MSHREntries++ },
		"writeback":        func(c *Config) { c.WritebackEntries++ },
		"energy model":     func(c *Config) { c.Energy.PrechargePJPerBit *= 2 },
		"core energies":    func(c *Config) { c.Core.ClockPJ *= 2 },
	}
	baseKey := base.Key()
	seen := map[Key]string{baseKey: "base"}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		k := cfg.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestKeyHierarchySpellings: spellings of one hierarchy (zero-valued
// level knobs set explicitly, nil vs empty Levels) share a fingerprint;
// materially different hierarchies must not.
func TestKeyHierarchySpellings(t *testing.T) {
	modern := Default("gcc")
	l2 := modern.Levels[0].Geom

	// A zero-value LevelSpec knob set explicitly is still the same level.
	explicit := Default("gcc")
	explicit.Levels = []LevelSpec{{CacheSpec: CacheSpec{Geom: l2, Org: core.NonResizable},
		Precharge: PrechargeDelayed}}
	if explicit.Key() != modern.Key() {
		t.Error("explicit delayed precharge perturbed the fingerprint")
	}

	deep := Default("gcc")
	deep.Levels = append(append([]LevelSpec(nil), deep.Levels...), LevelSpec{CacheSpec: CacheSpec{
		Geom: geometry.Geometry{SizeBytes: 2 << 20, Assoc: 8, BlockBytes: 64, SubarrayBytes: 4 << 10},
		Org:  core.NonResizable,
	}})
	if deep.Key() == modern.Key() {
		t.Error("adding an L3 did not move the fingerprint")
	}

	flat, empty := Default("gcc"), Default("gcc")
	flat.Levels, empty.Levels = nil, []LevelSpec{}
	if flat.Key() != empty.Key() {
		t.Error("nil and empty hierarchies fingerprint differently")
	}
	if flat.Key() == modern.Key() {
		t.Error("removing the L2 did not move the fingerprint")
	}
}

// TestKeyVersionNeverAliasesRetired re-encodes the canonical base
// config with every retired layout — version 1 (flat L2 geometry),
// version 2 (hierarchy-as-data but no sampling fields) and version 3
// (sampling fields, plus the zero slot of the retired single-level L2
// geometry field) — and checks no fingerprint collides with the
// current key: a persisted store from an older version can only miss
// under current keys, never serve a stale result for a config it does
// not describe.
func TestKeyVersionNeverAliasesRetired(t *testing.T) {
	if keyVersion != 4 {
		t.Fatalf("keyVersion = %d, want 4 (update this test when bumping)", keyVersion)
	}
	c := Default("gcc").Canonical()
	l2 := c.Levels[0].Geom

	// Shared tails of the retired encodings.
	writeFront := func(w *keyWriter) {
		w.str(c.Benchmark)
		w.u64(c.Instructions)
		w.u64(uint64(c.Engine))
		w.i(c.CPU.Width)
		w.i(c.CPU.ROBEntries)
		w.i(c.CPU.LSQEntries)
		w.u64(c.CPU.DecodeLatency)
		w.u64(c.CPU.MispredictPenalty)
		w.cacheSpec(c.DCache)
		w.cacheSpec(c.ICache)
	}
	writeEnergies := func(w *keyWriter) {
		w.f64(c.Energy.PrechargePJPerBit)
		w.f64(c.Energy.BitlinePJPerBit)
		w.f64(c.Energy.WordlinePJPerBit)
		w.f64(c.Energy.SensePJPerBit)
		w.f64(c.Energy.DecodePJPerSubarray)
		w.f64(c.Energy.ComparePJPerBit)
		w.f64(c.Energy.OutputPJPerBit)
		w.f64(c.Energy.ClockPJPerSubarray)
		w.f64(c.Energy.LeakagePJPerBytePerCycle)
		w.f64(c.Core.DecodePJ)
		w.f64(c.Core.ROBWritePJ)
		w.f64(c.Core.LSQWritePJ)
		w.f64(c.Core.RegReadPJ)
		w.f64(c.Core.RegWritePJ)
		w.f64(c.Core.IntALUPJ)
		w.f64(c.Core.FPALUPJ)
		w.f64(c.Core.BpredPJ)
		w.f64(c.Core.BTBPJ)
		w.f64(c.Core.RASPJ)
		w.f64(c.Core.ResultBusPJ)
		w.f64(c.Core.ClockPJ)
	}

	var w1 keyWriter
	w1.u64(1) // keyVersion 1
	writeFront(&w1)
	w1.geometry(l2.SizeBytes, l2.Assoc, l2.BlockBytes, l2.SubarrayBytes) // v1: bare L2 geometry
	w1.i(c.MSHREntries)
	w1.i(c.WritebackEntries)
	writeEnergies(&w1)
	v1 := w1.sum()

	// v2 and v3: hierarchy as data, then the retired single-level L2
	// geometry slot (always zero); v3 appends the sampling fields.
	writeLevels := func(w *keyWriter) {
		w.i(len(c.Levels))
		for _, l := range c.Levels {
			w.cacheSpec(l.CacheSpec)
			w.u64(uint64(l.Precharge))
			w.i(l.MSHREntries)
			w.i(l.WritebackEntries)
		}
		w.geometry(0, 0, 0, 0)
		w.i(c.MSHREntries)
		w.i(c.WritebackEntries)
	}
	var w2 keyWriter
	w2.u64(2) // keyVersion 2
	writeFront(&w2)
	writeLevels(&w2)
	writeEnergies(&w2)
	v2 := w2.sum()

	var w3 keyWriter
	w3.u64(3) // keyVersion 3
	writeFront(&w3)
	writeLevels(&w3)
	w3.u64(c.Sampling.WarmupInstructions)
	w3.u64(c.Sampling.DetailedInstructions)
	w3.u64(c.Sampling.FastForwardInstructions)
	w3.u64(c.Sampling.SkipInstructions)
	writeEnergies(&w3)
	v3 := w3.sum()
	// The v3 re-encoding must reproduce the literal v3 key recorded for
	// this config while v3 was current, or this test checks a layout
	// that never existed.
	if got, want := v3.String(), "038f2d6d7a995f69b5473ec7187d415a94d82db65749b121a90b0d5d30bbfd8b"; got != want {
		t.Fatalf("v3 re-encoding = %s, want the recorded v3 key %s", got, want)
	}

	cur := Default("gcc").Key()
	for v, old := range map[int]Key{1: v1, 2: v2, 3: v3} {
		if old == cur {
			t.Fatalf("current key aliases the v%d encoding of the same config", v)
		}
	}
}

// TestKeyBuilderStability: identical field sequences fingerprint
// identically, and every perturbation — value, order, field boundary,
// domain — moves the key. The artifact cache depends on both halves:
// stability for hits, sensitivity against collisions.
func TestKeyBuilderStability(t *testing.T) {
	mk := func() Key {
		return NewKeyBuilder("d").Str("app").Int(4).U64(9).RawKey(Default("gcc").Key()).Sum()
	}
	if mk() != mk() {
		t.Fatal("identical builder sequences produced different keys")
	}
	variants := map[string]Key{
		"base":           mk(),
		"domain":         NewKeyBuilder("e").Str("app").Int(4).U64(9).RawKey(Default("gcc").Key()).Sum(),
		"str value":      NewKeyBuilder("d").Str("app2").Int(4).U64(9).RawKey(Default("gcc").Key()).Sum(),
		"int value":      NewKeyBuilder("d").Str("app").Int(5).U64(9).RawKey(Default("gcc").Key()).Sum(),
		"field order":    NewKeyBuilder("d").Int(4).Str("app").U64(9).RawKey(Default("gcc").Key()).Sum(),
		"raw key":        NewKeyBuilder("d").Str("app").Int(4).U64(9).RawKey(Default("vpr").Key()).Sum(),
		"dropped field":  NewKeyBuilder("d").Str("app").Int(4).RawKey(Default("gcc").Key()).Sum(),
		"no raw key":     NewKeyBuilder("d").Str("app").Int(4).U64(9).Sum(),
		"empty sequence": NewKeyBuilder("d").Sum(),
	}
	seen := map[Key]string{}
	for name, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestKeyBuilderNoAliasing: adjacent string fields must not alias under
// re-chunking (the classic "ab"+"c" vs "a"+"bc" hash mistake).
func TestKeyBuilderNoAliasing(t *testing.T) {
	a := NewKeyBuilder("d").Str("ab").Str("c").Sum()
	b := NewKeyBuilder("d").Str("a").Str("bc").Sum()
	if a == b {
		t.Fatal("string fields alias across boundaries")
	}
}

// TestKeyCanonicalization verifies that fields the configured policy
// kind never reads do not perturb the fingerprint.
func TestKeyCanonicalization(t *testing.T) {
	mk := func(p PolicySpec) Config {
		c := Default("gcc")
		c.DCache.Org = core.SelectiveSets
		c.DCache.Policy = p
		return c
	}
	// A static policy ignores the dynamic controller's knobs.
	a := mk(PolicySpec{Kind: PolicyStatic, StaticIndex: 1})
	b := mk(PolicySpec{Kind: PolicyStatic, StaticIndex: 1, Interval: 4096, MissBound: 99})
	if a.Key() != b.Key() {
		t.Error("static policy key depends on dynamic-only fields")
	}
	// A dynamic policy ignores the static index.
	c := mk(PolicySpec{Kind: PolicyDynamic, Interval: 4096, MissBound: 64})
	d := mk(PolicySpec{Kind: PolicyDynamic, Interval: 4096, MissBound: 64, StaticIndex: 3})
	if c.Key() != d.Key() {
		t.Error("dynamic policy key depends on static index")
	}
	// No policy ignores everything.
	e := mk(PolicySpec{})
	f := mk(PolicySpec{StaticIndex: 2, Interval: 1024})
	if e.Key() != f.Key() {
		t.Error("nil policy key depends on policy parameters")
	}
	// The in-order engine forces a blocking d-cache: MSHRs are inert.
	g := Default("gcc")
	g.Engine = InOrder
	h := g
	h.MSHREntries = 32
	if g.Key() != h.Key() {
		t.Error("in-order key depends on d-cache MSHR entries")
	}
	// ... but they are meaningful out of order.
	i := Default("gcc")
	j := i
	j.MSHREntries = 32
	if i.Key() == j.Key() {
		t.Error("out-of-order key ignores d-cache MSHR entries")
	}
}

// TestKeyCanonicalizationPerLevel: the policy-knob zeroing applies at
// every level of the hierarchy, not just the L1s.
func TestKeyCanonicalizationPerLevel(t *testing.T) {
	mk := func(p PolicySpec) Config {
		c := Default("gcc")
		mutateL2(&c, func(l *LevelSpec) {
			l.Org = core.SelectiveWays
			l.Policy = p
		})
		return c
	}
	// A static L2 policy ignores the dynamic controller's knobs.
	a := mk(PolicySpec{Kind: PolicyStatic, StaticIndex: 1})
	b := mk(PolicySpec{Kind: PolicyStatic, StaticIndex: 1, Interval: 4096, MissBound: 99})
	if a.Key() != b.Key() {
		t.Error("static L2 policy key depends on dynamic-only fields")
	}
	// A dynamic L2 policy ignores the static index.
	c := mk(PolicySpec{Kind: PolicyDynamic, Interval: 4096, MissBound: 64})
	d := mk(PolicySpec{Kind: PolicyDynamic, Interval: 4096, MissBound: 64, StaticIndex: 3})
	if c.Key() != d.Key() {
		t.Error("dynamic L2 policy key depends on static index")
	}
	// No policy ignores every policy parameter.
	e := mk(PolicySpec{StaticIndex: 2, Interval: 1024})
	f := mk(PolicySpec{})
	if e.Key() != f.Key() {
		t.Error("nil L2 policy key depends on policy parameters")
	}
	// Canonical must not mutate the caller's Levels in place.
	orig := Default("gcc")
	mutateL2(&orig, func(l *LevelSpec) {
		l.Org = core.SelectiveWays
		l.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 1, Interval: 4096}
	})
	_ = orig.Canonical()
	if orig.Levels[0].Policy.Interval != 4096 {
		t.Error("Canonical mutated the caller's level specs")
	}
}
