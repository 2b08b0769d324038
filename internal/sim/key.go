package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Key is a content-addressed fingerprint of a Config: two Configs that
// describe the same simulation (after Canonical normalization) hash to
// the same Key, and any semantically meaningful field difference yields
// a different Key. Keys index the run-orchestration layer's memoized
// result store (internal/runner) and its on-disk resume files, so the
// encoding below is versioned: bump keyVersion whenever Config gains a
// field or an existing field changes meaning, which invalidates stale
// persisted results instead of silently aliasing them.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk store's map key).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// keyVersion tags the fingerprint encoding; see Key. Version 2
// introduced the hierarchy-as-data encoding: the full Levels list is
// fingerprinted (count plus every LevelSpec field) where version 1
// encoded a bare L2 geometry, so v1 stores invalidate cleanly — their
// keys can never alias a v2 config. Version 3 added the sampling spec
// (warmup/detailed/fast-forward instruction counts) to both Key and
// FrontKey for the interval-sampled execution mode. Version 4 dropped
// the deprecated single-level L2 geometry field and its four-word slot:
// the hierarchy is Levels alone.
const keyVersion = 4

// Canonical returns the config with semantically inert fields zeroed
// and the hierarchy in normal form, so that configs describing
// identical simulations fingerprint identically:
//
//   - policy parameters not read by the configured policy kind (a static
//     policy ignores the dynamic controller's knobs and vice versa), at
//     every level of the hierarchy;
//   - d-cache MSHRs under the in-order engine, which forces a blocking
//     d-cache regardless of the configured entry count;
//   - an empty hierarchy, spelled nil.
//
// Run never inspects the zeroed fields, so Canonical is behaviour
// preserving by construction.
func (c Config) Canonical() Config {
	c.DCache.Policy = c.DCache.Policy.canonical()
	c.ICache.Policy = c.ICache.Policy.canonical()
	if c.Engine == InOrder {
		c.MSHREntries = 0
	}
	if len(c.Levels) > 0 {
		canon := make([]LevelSpec, len(c.Levels))
		for i, l := range c.Levels {
			l.Policy = l.Policy.canonical()
			canon[i] = l
		}
		c.Levels = canon
	} else {
		c.Levels = nil
	}
	return c
}

// canonical zeroes the PolicySpec fields the policy kind does not read.
func (p PolicySpec) canonical() PolicySpec {
	switch p.Kind {
	case PolicyStatic:
		return PolicySpec{Kind: PolicyStatic, StaticIndex: p.StaticIndex}
	case PolicyDynamic:
		p.StaticIndex = 0
		return p
	default:
		return PolicySpec{}
	}
}

// Key returns the canonical fingerprint of the config: the encoding of
// c.Canonical(), computed without materializing it — the policies,
// in-order MSHRs and hierarchy are normalized as they are written — so
// fingerprinting a config makes no heap allocation.
func (c Config) Key() Key {
	var w keyWriter
	w.u64(keyVersion)
	w.str(c.Benchmark)
	w.u64(c.Instructions)
	w.u64(uint64(c.Engine))
	// CPU pipeline.
	w.i(c.CPU.Width)
	w.i(c.CPU.ROBEntries)
	w.i(c.CPU.LSQEntries)
	w.u64(c.CPU.DecodeLatency)
	w.u64(c.CPU.MispredictPenalty)
	// L1s and the shared hierarchy.
	w.cacheSpec(c.DCache)
	w.cacheSpec(c.ICache)
	w.i(len(c.Levels))
	for _, l := range c.Levels {
		w.cacheSpec(l.CacheSpec)
		w.u64(uint64(l.Precharge))
		w.i(l.MSHREntries)
		w.i(l.WritebackEntries)
	}
	mshrs := c.MSHREntries
	if c.Engine == InOrder {
		mshrs = 0
	}
	w.i(mshrs)
	w.i(c.WritebackEntries)
	// Sampled execution (all zero for fully detailed runs; a partial spec
	// is invalid but keeps its own fingerprint so the cold-path error
	// memoizes under its own key).
	w.u64(c.Sampling.WarmupInstructions)
	w.u64(c.Sampling.DetailedInstructions)
	w.u64(c.Sampling.FastForwardInstructions)
	w.u64(c.Sampling.SkipInstructions)
	// Energy models.
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
	return w.sum()
}

// Keys fingerprints each config once, in order: batch callers hash a
// sweep up front and hand the keys to every layer that indexes it.
func Keys(cfgs []Config) []Key {
	keys := make([]Key, len(cfgs))
	for i := range cfgs {
		keys[i] = cfgs[i].Key()
	}
	return keys
}

// FrontKey fingerprints the config's shared simulation front-end: the
// projection of the config that determines workload generation and the
// engine's functional stepping (benchmark, instruction budget, engine
// kind, the full pipeline shape, and the sampling window schedule). Two
// configs with equal FrontKeys drive bit-identical functional streams
// through identical window boundaries and may therefore run as one gang
// (RunGang); everything outside the projection — cache geometries,
// resizing organizations and policies, hierarchy depth, MSHRs, energy
// models — is per-member state a gang evaluates independently.
func (c Config) FrontKey() Key {
	return NewKeyBuilder("sim.front").
		Str(c.Benchmark).
		U64(c.Instructions).
		U64(uint64(c.Engine)).
		Int(c.CPU.Width).
		Int(c.CPU.ROBEntries).
		Int(c.CPU.LSQEntries).
		U64(c.CPU.DecodeLatency).
		U64(c.CPU.MispredictPenalty).
		U64(c.Sampling.WarmupInstructions).
		U64(c.Sampling.DetailedInstructions).
		U64(c.Sampling.FastForwardInstructions).
		U64(c.Sampling.SkipInstructions).
		Sum()
}

// KeyBuilder accumulates explicitly ordered fields into a
// content-addressed fingerprint with the same encoding rules as
// Config.Key (fixed-width integers, length-prefixed strings, the shared
// keyVersion prefix). Higher layers use it to fingerprint values
// *derived from* configs — most prominently sweep-level artifacts in
// the run-orchestration layer, keyed by the fingerprints of every
// config the sweep would run — so one versioning scheme invalidates
// both per-config results and derived artifacts together.
//
// A builder is single-use: construct with NewKeyBuilder, append fields,
// call Sum once.
type KeyBuilder struct {
	w keyWriter
}

// NewKeyBuilder starts a fingerprint in a named domain; distinct
// domains never collide even over identical field sequences.
func NewKeyBuilder(domain string) *KeyBuilder {
	b := new(KeyBuilder)
	b.w.u64(keyVersion)
	b.w.str(domain)
	return b
}

// U64 appends an unsigned integer field.
func (b *KeyBuilder) U64(v uint64) *KeyBuilder { b.w.u64(v); return b }

// Int appends a signed integer field.
func (b *KeyBuilder) Int(v int) *KeyBuilder { b.w.i(v); return b }

// Str appends a string field (length-prefixed; never aliases).
func (b *KeyBuilder) Str(s string) *KeyBuilder { b.w.str(s); return b }

// RawKey appends another fingerprint (e.g. a Config.Key) as a field.
func (b *KeyBuilder) RawKey(k Key) *KeyBuilder {
	b.w.u64(uint64(len(k)))
	copy(b.w.next(len(k)), k[:])
	return b
}

// Sum finalizes the fingerprint.
func (b *KeyBuilder) Sum() Key { return b.w.sum() }

// keyBufSize is the inline capacity of a keyWriter: a config with a
// three-level hierarchy and a short benchmark name encodes in under 900
// bytes, so only builders over many fields (sweep artifacts over whole
// grids) spill.
const keyBufSize = 1024

// keyWriter encodes fixed-width, field-order-stable fields into a byte
// stream that sum hashes once. Strings are length-prefixed so adjacent
// fields cannot alias. The stream lives in the writer's inline buffer
// until it outgrows keyBufSize and moves to the heap.
type keyWriter struct {
	n     int
	buf   [keyBufSize]byte
	spill []byte
}

// next extends the stream by n bytes and returns them for the caller
// to fill.
func (w *keyWriter) next(n int) []byte {
	if w.spill == nil && w.n+n <= len(w.buf) {
		w.n += n
		return w.buf[w.n-n : w.n]
	}
	if w.spill == nil {
		w.spill = append(make([]byte, 0, 2*len(w.buf)), w.buf[:w.n]...)
	}
	w.spill = append(w.spill, make([]byte, n)...)
	return w.spill[len(w.spill)-n:]
}

func (w *keyWriter) sum() Key {
	if w.spill != nil {
		return sha256.Sum256(w.spill)
	}
	return sha256.Sum256(w.buf[:w.n])
}

func (w *keyWriter) u64(v uint64) { binary.LittleEndian.PutUint64(w.next(8), v) }

func (w *keyWriter) i(v int) { w.u64(uint64(int64(v))) }

func (w *keyWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *keyWriter) b(v bool) {
	if v {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *keyWriter) str(s string) {
	w.u64(uint64(len(s)))
	copy(w.next(len(s)), s)
}

// cacheSpec encodes one cache spec (an L1 or a shared level's core)
// with its policy in canonical form.
func (w *keyWriter) cacheSpec(s CacheSpec) {
	p := s.Policy.canonical()
	w.geometry(s.Geom.SizeBytes, s.Geom.Assoc, s.Geom.BlockBytes, s.Geom.SubarrayBytes)
	w.u64(uint64(s.Org))
	w.u64(uint64(p.Kind))
	w.i(p.StaticIndex)
	w.u64(p.Interval)
	w.u64(p.MissBound)
	w.i(p.SizeBoundBytes)
	w.i(p.UpsizeHoldIntervals)
	w.b(s.AblationFullPrecharge)
	w.b(s.AblationFreeFlush)
}

func (w *keyWriter) geometry(size, assoc, block, subarray int) {
	w.i(size)
	w.i(assoc)
	w.i(block)
	w.i(subarray)
}
