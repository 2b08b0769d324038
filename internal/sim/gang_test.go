package sim

import (
	"reflect"
	"strings"
	"testing"
)

// gangSiblings builds a gang around cfg: the config itself plus members
// that differ only in per-member state (cache geometry, hierarchy
// depth) — exactly what a sweep varies within one benchmark.
func gangSiblings(cfg Config) []Config {
	bigD := cfg
	bigD.DCache.Geom.SizeBytes *= 2
	noL2 := cfg
	noL2.Levels = nil
	return []Config{cfg, bigD, noL2}
}

// TestGangMatchesGolden: for every golden-fixture config, a gang of the
// config plus per-member variants returns Results bit-identical to each
// member run alone (Run, a gang of one) — the golden fixtures are the
// oracle because TestGoldenResults pins Run itself.
func TestGangMatchesGolden(t *testing.T) {
	for name, cfg := range goldenConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			gang := gangSiblings(cfg)
			want := make([]Result, len(gang))
			for i, c := range gang {
				r, err := Run(c)
				if err != nil {
					t.Fatalf("member %d alone: %v", i, err)
				}
				want[i] = r
			}
			got, err := RunGang(gang)
			if err != nil {
				t.Fatal(err)
			}
			for i := range gang {
				if !reflect.DeepEqual(got[i], want[i]) {
					diffResult(t, name, want[i], got[i])
				}
			}
		})
	}
}

// TestGangEmpty: an empty gang is a no-op, not an error.
func TestGangEmpty(t *testing.T) {
	res, err := RunGang(nil)
	if err != nil || res != nil {
		t.Fatalf("empty gang: %v, %v", res, err)
	}
}

// TestGangChunked: a gang larger than the chunk size runs one engine
// pass per chunk, each over its own generator, and still matches every
// member run alone.
func TestGangChunked(t *testing.T) {
	if testing.Short() {
		t.Skip("chunked gang is long")
	}
	base := Default("gcc")
	base.Instructions = 20_000
	var gang []Config
	for len(gang) <= gangChunk {
		for _, kb := range []int{8, 16, 32, 64} {
			c := base
			c.DCache.Geom.SizeBytes = kb << 10
			gang = append(gang, c)
		}
	}
	got, err := RunGang(gang)
	if err != nil {
		t.Fatal(err)
	}
	// Members 0 and last straddle the chunk boundary.
	for _, i := range []int{0, gangChunk - 1, gangChunk, len(gang) - 1} {
		want, err := Run(gang[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			diffResult(t, "chunked", want, got[i])
		}
	}
}

// TestGangRejectsMixedFront: configs that differ in any front-end field
// must error (not silently desync); the error names the mismatch.
func TestGangRejectsMixedFront(t *testing.T) {
	base := Default("gcc")
	base.Instructions = 10_000

	mismatches := map[string]func(*Config){
		"benchmark":    func(c *Config) { c.Benchmark = "vpr" },
		"engine":       func(c *Config) { c.Engine = InOrder },
		"instructions": func(c *Config) { c.Instructions = 20_000 },
		"width":        func(c *Config) { c.CPU.Width = 2 },
		"rob":          func(c *Config) { c.CPU.ROBEntries = 32 },
	}
	for name, mutate := range mismatches {
		other := base
		mutate(&other)
		if _, err := RunGang([]Config{base, other}); err == nil {
			t.Errorf("%s mismatch accepted", name)
		} else if !strings.Contains(err.Error(), "front-end mismatch") {
			t.Errorf("%s mismatch: unexpected error %v", name, err)
		}
	}

	// Per-member differences must NOT be rejected.
	if _, err := RunGang(gangSiblings(base)); err != nil {
		t.Errorf("per-member variation rejected: %v", err)
	}
}

// TestGangRejectsInvalidMember: an invalid member (unknown benchmark,
// zero budget) fails the whole gang up front.
func TestGangRejectsInvalidMember(t *testing.T) {
	good := Default("gcc")
	good.Instructions = 10_000
	zero := good
	zero.Instructions = 0
	if _, err := RunGang([]Config{good, zero}); err == nil {
		t.Error("zero-budget member accepted")
	}
	if _, err := RunGang([]Config{{Benchmark: "no-such-benchmark", Instructions: 1}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestFrontKeyProjection: FrontKey is exactly the front-end projection —
// sensitive to every front field, insensitive to every per-member field.
func TestFrontKeyProjection(t *testing.T) {
	base := Default("gcc")
	k := base.FrontKey()

	front := map[string]func(*Config){
		"benchmark":    func(c *Config) { c.Benchmark = "vpr" },
		"instructions": func(c *Config) { c.Instructions++ },
		"engine":       func(c *Config) { c.Engine = InOrder },
		"width":        func(c *Config) { c.CPU.Width = 2 },
		"rob":          func(c *Config) { c.CPU.ROBEntries = 32 },
		"lsq":          func(c *Config) { c.CPU.LSQEntries = 16 },
		"decode":       func(c *Config) { c.CPU.DecodeLatency = 5 },
		"mispredict":   func(c *Config) { c.CPU.MispredictPenalty = 9 },
	}
	for name, mutate := range front {
		c := base
		mutate(&c)
		if c.FrontKey() == k {
			t.Errorf("FrontKey insensitive to front field %s", name)
		}
	}

	member := map[string]func(*Config){
		"dcache":  func(c *Config) { c.DCache.Geom.SizeBytes *= 2 },
		"levels":  func(c *Config) { c.Levels = nil },
		"mshr":    func(c *Config) { c.MSHREntries = 2 },
		"energy":  func(c *Config) { c.Energy.BitlinePJPerBit *= 2 },
		"core-pj": func(c *Config) { c.Core.ClockPJ *= 2 },
	}
	for name, mutate := range member {
		c := base
		mutate(&c)
		if c.FrontKey() != k {
			t.Errorf("FrontKey sensitive to per-member field %s", name)
		}
	}
}
