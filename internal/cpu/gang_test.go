package cpu

import (
	"testing"

	"resizecache/internal/bpred"
	"resizecache/internal/cache"
	"resizecache/internal/geometry"
	"resizecache/internal/workload"
)

// gangVariant is one member's private d-cache shape; the i-cache stays
// fixed so members differ the way sweep cells do.
type gangVariant struct {
	dcSize  int
	dcAssoc int
	dcMSHR  int
}

// buildMember constructs an i/d L1 pair over a private L2+memory. Each
// call builds an independent hierarchy, so every run sees identical
// fresh cache state.
func buildMember(t *testing.T, v gangVariant) (cache.Level, cache.Level) {
	t.Helper()
	mem := cache.NewMemory(64)
	l2, err := cache.New(cache.Config{
		Name: "L2", HitLatency: 12, Energy: geometry.Default18um(), DelayedPrecharge: true,
		Geom: geometry.Geometry{SizeBytes: 512 << 10, Assoc: 4, BlockBytes: 64, SubarrayBytes: 4 << 10},
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := cache.New(cache.Config{
		Name: "L1i", HitLatency: 1, Energy: geometry.Default18um(),
		MSHREntries: 2, WritebackEntries: 8,
		Geom: geometry.Geometry{SizeBytes: 32 << 10, Assoc: 2, BlockBytes: 32, SubarrayBytes: 1 << 10},
	}, l2)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := cache.New(cache.Config{
		Name: "L1d", HitLatency: 1, Energy: geometry.Default18um(),
		MSHREntries: v.dcMSHR, WritebackEntries: 8,
		Geom: geometry.Geometry{SizeBytes: v.dcSize, Assoc: v.dcAssoc, BlockBytes: 32, SubarrayBytes: 1 << 10},
	}, l2)
	if err != nil {
		t.Fatal(err)
	}
	return ic, dc
}

func gangVariants(mshr int) []gangVariant {
	return []gangVariant{
		{dcSize: 8 << 10, dcAssoc: 1, dcMSHR: mshr},
		{dcSize: 16 << 10, dcAssoc: 2, dcMSHR: mshr},
		{dcSize: 32 << 10, dcAssoc: 2, dcMSHR: mshr},
		{dcSize: 64 << 10, dcAssoc: 4, dcMSHR: mshr},
	}
}

// runMembers builds fresh members for variants and runs them through
// one gang pass of the given engine over gcc.
func runMembers(t *testing.T, inOrder bool, variants []gangVariant, instr uint64) []Result {
	t.Helper()
	members := make([]GangMember, len(variants))
	for m, v := range variants {
		ic, dc := buildMember(t, v)
		members[m] = GangMember{IC: ic, DC: dc}
	}
	run := RunGangOutOfOrder
	if inOrder {
		run = RunGangInOrder
	}
	res, err := run(DefaultConfig(), bpred.NewDefault(), members,
		workload.NewGenerator(workload.MustGet("gcc")), instr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkMemberIndependence: member m of an N-gang must be bit-identical
// to a gang of one over member m's caches — members share the
// functional front-end but never observe one another's timing.
func checkMemberIndependence(t *testing.T, inOrder bool, mshr int) {
	const instr = 30000
	variants := gangVariants(mshr)
	gang := runMembers(t, inOrder, variants, instr)
	for m, v := range variants {
		one := runMembers(t, inOrder, []gangVariant{v}, instr)
		if gang[m] != one[0] {
			t.Errorf("member %d: in %d-gang %+v\nalone %+v", m, len(variants), gang[m], one[0])
		}
	}
	if gang[0].Cycles == gang[len(gang)-1].Cycles {
		t.Errorf("8K and 64K d-caches took the same %d cycles: members are not private", gang[0].Cycles)
	}
}

// TestGangMemberIndependenceOutOfOrder pins member independence for the
// out-of-order engine with non-blocking d-caches.
func TestGangMemberIndependenceOutOfOrder(t *testing.T) { checkMemberIndependence(t, false, 8) }

// TestGangMemberIndependenceInOrder pins it for the in-order engine with
// blocking d-caches.
func TestGangMemberIndependenceInOrder(t *testing.T) { checkMemberIndependence(t, true, 0) }

// TestGangRejectsInvalidConfig: validation errors surface rather than
// running a desynchronized gang.
func TestGangRejectsInvalidConfig(t *testing.T) {
	bad := DefaultConfig()
	bad.Width = 0
	if _, err := RunGangOutOfOrder(bad, bpred.NewDefault(), nil, nil, 0); err == nil {
		t.Error("out-of-order gang accepted invalid config")
	}
	if _, err := RunGangInOrder(bad, bpred.NewDefault(), nil, nil, 0); err == nil {
		t.Error("in-order gang accepted invalid config")
	}
}
