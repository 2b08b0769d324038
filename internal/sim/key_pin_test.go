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

// TestKeyEncodingPinned asserts literal fingerprints recorded when
// keyVersion 4 was introduced. Persisted stores are indexed by these hex
// strings, so an encoder refactor that changes any byte of the stream
// orphans every store on disk; a deliberate encoding change must bump
// keyVersion and re-record the table.
func TestKeyEncodingPinned(t *testing.T) {
	want := map[string]struct{ key, front, builder string }{
		"default":   {"f6c4a0f8d2c5c726f32d96389df8e4f94459b645313d50fc9ba05a8127e9f1f0", "116b08b5c4d71a50ed3164857a4778ff2dc28f063cd19f617f219de828ab6382", "f4ca6fc21e7f76818a44c3240055a7e4a2ba6e1048f878fbd7edb2d6fc4de6d0"},
		"sampled":   {"8670dc2de03ebf99abd533da757f5b1da6a82b7e3fcc5752f26450433c79f873", "eb877560863f203c3e76b0c9ab4a827a23665cff84d70b606ae84bb3bd68b4a8", "bc4a84c27ee26e5ed188367e333a46a13b12bf53745d5b24d71c2f49e336f9a8"},
		"dynamic":   {"e40e4bb9f61070d7aad5048e22526856d4790df2baebc9fcea95b759c97515b7", "7e91d82849d2e31d5dd79abdd83e5239a74038e5317d534a5c1ecdf1036f33e6", "a304649b1cd3692cceb28490ed6859854ea9ca001e9622cf2047113947f53c30"},
		"two-level": {"cef87c7af12845905b6863e12aa73f3985a4f4cbbe89350b76fc029c8d620eb4", "116b08b5c4d71a50ed3164857a4778ff2dc28f063cd19f617f219de828ab6382", "7f5798f44f059a468e991798b8b0ee0f2c8bc1bf7d7b2bae2dd189b4e0f66321"},
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
	if got, want := b.Sum().String(), "442d4cdae575dbd95d85d6d185a5fc820199901df19783edea1ad392570d0444"; got != want {
		t.Errorf("spilled KeyBuilder = %s, want %s", got, want)
	}
}

// TestKeyMatchesCanonical: Key normalizes as it encodes instead of
// calling Canonical, so the two must agree on every spelling Canonical
// rewrites: inert policy knobs, in-order MSHRs and an empty (non-nil)
// hierarchy.
func TestKeyMatchesCanonical(t *testing.T) {
	cfgs := pinConfigs()
	knobs := Default("gcc")
	knobs.Engine = InOrder
	knobs.MSHREntries = 32
	knobs.DCache.Policy = PolicySpec{Kind: PolicyStatic, StaticIndex: 1, Interval: 4096}
	knobs.ICache.Policy = PolicySpec{Kind: PolicyDynamic, StaticIndex: 3, Interval: 4096, MissBound: 8}
	mutateL2(&knobs, func(l *LevelSpec) { l.Policy = PolicySpec{StaticIndex: 2, MissBound: 9} })
	cfgs["knobs"] = knobs
	empty := Default("gcc")
	empty.Levels = []LevelSpec{}
	cfgs["empty hierarchy"] = empty
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
