package sim

import (
	"testing"

	"resizecache/internal/core"
	"resizecache/internal/geometry"
)

// pinConfigs are the configs whose fingerprints TestKeyEncodingPinned
// asserts: the default, a sampled config, a dynamic-policy config and a
// two-level hierarchy.
func pinConfigs() map[string]Config {
	sampled := Default("vpr")
	sampled.Instructions = 400_000
	sampled.Sampling = DefaultSampling()

	dynamic := Default("m88ksim")
	dynamic.Engine = InOrder
	dynamic.DCache.Org = core.SelectiveSets
	dynamic.DCache.Policy = PolicySpec{Kind: PolicyDynamic, Interval: 4096, MissBound: 64,
		SizeBoundBytes: 4 << 10, UpsizeHoldIntervals: 2}

	twoLevel := Default("gcc")
	twoLevel.ICache.Org = core.SelectiveWays
	twoLevel.ICache.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 1}
	twoLevel.Levels = []LevelSpec{
		{CacheSpec: CacheSpec{
			Geom: geometry.Geometry{SizeBytes: 512 << 10, Assoc: 4, BlockBytes: 64, SubarrayBytes: 4 << 10},
			Org:  core.SelectiveWays, Policy: PolicySpec{Kind: PolicyStatic, StaticIndex: 2},
		}, Precharge: PrechargeFull, MSHREntries: 4, WritebackEntries: 4},
		{CacheSpec: CacheSpec{
			Geom: geometry.Geometry{SizeBytes: 2 << 20, Assoc: 8, BlockBytes: 64, SubarrayBytes: 4 << 10},
			Org:  core.NonResizable,
		}},
	}
	return map[string]Config{
		"default":   Default("gcc"),
		"sampled":   sampled,
		"dynamic":   dynamic,
		"two-level": twoLevel,
	}
}

// TestKeyEncodingPinned asserts literal fingerprints recorded before
// the key encoder was last rewritten. Persisted stores are indexed by
// these hex strings, so an encoder refactor that changes any byte of the
// stream orphans every store on disk; a deliberate encoding change must
// bump keyVersion and re-record the table.
func TestKeyEncodingPinned(t *testing.T) {
	want := map[string]struct{ key, front, builder string }{
		"default":   {"038f2d6d7a995f69b5473ec7187d415a94d82db65749b121a90b0d5d30bbfd8b", "e37d999078761b37b7a416a4f50ac2f71a6e89a0a0ab3f5908f2836648095cd5", "3e601fb7f6a9799a3e3a8a892f970d3a79abd7085110e1f93bb653735a65d76b"},
		"sampled":   {"013d14501d32b479a51fe1bc49852866d9f58bd8be97f10ce29be30cc1756f60", "2558c41fd5329889c0fe2053a9c200bac3b33ddc896bb8f4da601025360d138e", "ddfb86ce50aee7be602cd67b2f5ac95f3b0f66235f1b0835fe71522ab38652a0"},
		"dynamic":   {"cc093fb85aa73df9f7a0af83642fe9ae61c040298d5dfba32f971d7a450a9a16", "744de70d957cfa2b63b308e5398fb19d47d9fd210e85376f50c588b6233f7c98", "ea3690ddebe41051e886c8aa4f4001a520a9d7b2f95f44e0c6e971616a013822"},
		"two-level": {"37191b653f764cfabca6a946bc0f5d1c2bed3962924a2e578e224360b27bf2af", "e37d999078761b37b7a416a4f50ac2f71a6e89a0a0ab3f5908f2836648095cd5", "e0684413ced1b42ef7c61bf1c5dc94cfe29493c13e4bd959727619ad95940ad5"},
	}
	cfgs := pinConfigs()
	for name, w := range want {
		c := cfgs[name]
		if got := c.Key().String(); got != w.key {
			t.Errorf("%s: Key = %s, want %s", name, got, w.key)
		}
		if got := c.FrontKey().String(); got != w.front {
			t.Errorf("%s: FrontKey = %s, want %s", name, got, w.front)
		}
		b := NewKeyBuilder("pin").Str(name).Int(-3).U64(7).RawKey(c.Key()).Sum()
		if got := b.String(); got != w.builder {
			t.Errorf("%s: KeyBuilder = %s, want %s", name, got, w.builder)
		}
	}

	// A builder over a whole grid's fingerprints outgrows the inline
	// buffer; the spilled stream must hash identically.
	b := NewKeyBuilder("pin-spill")
	for i := 0; i < 64; i++ {
		c := Default("gcc")
		c.Instructions = uint64(i + 1)
		b.Int(i).RawKey(c.Key())
	}
	if got, want := b.Sum().String(), "334fb21c333e43e88ceb3b17d5245116e201636aaabd58aba04b216a618cf370"; got != want {
		t.Errorf("spilled KeyBuilder = %s, want %s", got, want)
	}
}

// TestKeyMatchesCanonical: Key normalizes as it encodes instead of
// calling Canonical, so the two must agree on every spelling Canonical
// rewrites: inert policy knobs, in-order MSHRs, the legacy L2Geom and
// the invalid Levels+L2Geom conflict.
func TestKeyMatchesCanonical(t *testing.T) {
	cfgs := pinConfigs()
	knobs := Default("gcc")
	knobs.Engine = InOrder
	knobs.MSHREntries = 32
	knobs.DCache.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 1, Interval: 4096}
	knobs.ICache.Policy = PolicySpec{Kind: PolicyDynamic, StaticIndex: 3, Interval: 4096, MissBound: 8}
	mutateL2(&knobs, func(l *LevelSpec) { l.Policy = PolicySpec{StaticIndex: 2, MissBound: 9} })
	cfgs["knobs"] = knobs
	legacy := Default("gcc")
	legacy.L2Geom, legacy.Levels = legacy.Levels[0].Geom, nil
	cfgs["legacy"] = legacy
	conflict := Default("gcc")
	conflict.L2Geom = conflict.Levels[0].Geom
	cfgs["conflict"] = conflict
	for name, c := range cfgs {
		if c.Key() != c.Canonical().Key() {
			t.Errorf("%s: Key differs from the key of its Canonical form", name)
		}
	}
}

// TestConfigKeyAllocFree pins Config.Key at zero heap allocations for
// the default configs: sweeps fingerprint every config they plan, so a
// per-field allocation here is paid thousands of times per replay.
func TestConfigKeyAllocFree(t *testing.T) {
	for _, app := range []string{"gcc", "vpr"} {
		c := Default(app)
		if n := testing.AllocsPerRun(100, func() { _ = c.Key() }); n != 0 {
			t.Errorf("Default(%q).Key() allocates %.0f times per call, want 0", app, n)
		}
	}
}

func BenchmarkConfigKey(b *testing.B) {
	c := Default("gcc")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Key()
	}
}
