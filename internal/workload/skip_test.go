package workload

import "testing"

// TestSkipDeterministic: two generators performing the same interleaving
// of Next and Skip calls stay bit-identical — Skip is a deterministic
// state jump, not a source of divergence.
func TestSkipDeterministic(t *testing.T) {
	a := NewGenerator(MustGet("gcc"))
	b := NewGenerator(MustGet("gcc"))
	var ea, eb Event
	for round := 0; round < 5; round++ {
		for i := 0; i < 3_000; i++ {
			oa, ob := a.Next(&ea), b.Next(&eb)
			if oa != ob || ea != eb {
				t.Fatalf("round %d event %d diverged: %+v vs %+v", round, i, ea, eb)
			}
		}
		if na, nb := a.Skip(20_000), b.Skip(20_000); na != nb {
			t.Fatalf("round %d skipped %d vs %d", round, na, nb)
		}
	}
}

// TestSkipAdvancesPosition: Skip consumes stream position like Next
// does — Generated advances, and phase accounting stays consistent
// across boundaries.
func TestSkipAdvancesPosition(t *testing.T) {
	p := MustGet("su2cor") // two phases, periodic
	g := NewGenerator(p)
	period := p.TotalPhaseInstructions()
	if n := g.Skip(2*period + 7); n != 2*period+7 {
		t.Fatalf("periodic profile skipped %d of %d", n, 2*period+7)
	}
	if g.Generated() != 2*period+7 {
		t.Fatalf("Generated = %d after skip", g.Generated())
	}
	var ev Event
	if !g.Next(&ev) {
		t.Fatal("periodic generator exhausted after skip")
	}
}

// TestSkipSnapshotRestore: a snapshot taken after a skip restores into a
// fresh generator whose subsequent stream is bit-identical.
func TestSkipSnapshotRestore(t *testing.T) {
	a := NewGenerator(MustGet("vpr"))
	var ea, eb Event
	for i := 0; i < 1_000; i++ {
		a.Next(&ea)
	}
	a.Skip(50_000)
	snap := a.Snapshot()

	b := NewGenerator(MustGet("vpr"))
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5_000; i++ {
		oa, ob := a.Next(&ea), b.Next(&eb)
		if oa != ob || ea != eb {
			t.Fatalf("event %d after restore diverged: %+v vs %+v", i, ea, eb)
		}
	}
}

// TestSkipExhaustsNonPeriodic: skipping past the end of a one-shot
// profile reports the truncated count and leaves the generator
// exhausted.
func TestSkipExhaustsNonPeriodic(t *testing.T) {
	single := &Profile{
		Name: "oneshot-skip", LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.1,
		DepMeanDist: 3,
		Phases: []Phase{{Instructions: 1000,
			DLevels: []WSLevel{{Blocks: 16, Frac: 1}},
			ILevels: []WSLevel{{Blocks: 16, Frac: 1}}}},
	}
	g := NewGenerator(single)
	var ev Event
	for i := 0; i < 400; i++ {
		g.Next(&ev)
	}
	if n := g.Skip(10_000); n != 600 {
		t.Fatalf("skipped %d, want the 600 remaining", n)
	}
	if g.Next(&ev) {
		t.Fatal("generator should be exhausted after skipping past the end")
	}
	if n := g.Skip(10); n != 0 {
		t.Fatalf("exhausted generator skipped %d more", n)
	}
}

// TestSkipZeroIsFree: Skip(0) must not perturb the stream — the sampled
// execution mode relies on a zero-skip schedule being bit-identical to
// one with no skips at all.
func TestSkipZeroIsFree(t *testing.T) {
	a := NewGenerator(MustGet("gcc"))
	b := NewGenerator(MustGet("gcc"))
	var ea, eb Event
	for i := 0; i < 2_000; i++ {
		if i%100 == 0 {
			a.Skip(0)
		}
		oa, ob := a.Next(&ea), b.Next(&eb)
		if oa != ob || ea != eb {
			t.Fatalf("event %d diverged after Skip(0)", i)
		}
	}
}

// TestRestoreRejectsMisfitSnapshot: a snapshot that cannot be a state of
// a generator over the profile — the shapes a corrupt checkpoint takes —
// is an error, never a later index panic, and leaves the generator
// untouched.
func TestRestoreRejectsMisfitSnapshot(t *testing.T) {
	src := NewGenerator(MustGet("gcc"))
	var ev Event
	for i := 0; i < 10_000; i++ {
		src.Next(&ev)
	}
	good := src.Snapshot()
	for name, mutate := range map[string]func(*Snapshot){
		"phase out of range":  func(s *Snapshot) { s.PhaseIdx = 99 },
		"negative phase":      func(s *Snapshot) { s.PhaseIdx = -1 },
		"no data cursors":     func(s *Snapshot) { s.DCursors = []int{} },
		"extra data cursor":   func(s *Snapshot) { s.DCursors = append(s.DCursors, 0) },
		"data cursor too big": func(s *Snapshot) { s.DCursors[0] = 1 << 30 },
		"negative cursor":     func(s *Snapshot) { s.DCursors[0] = -1 },
		"code cursor":         func(s *Snapshot) { s.ICursor = 1 << 30 },
		"unaligned code":      func(s *Snapshot) { s.ICursor = 2 },
		"conflict cursor":     func(s *Snapshot) { s.DConfCursor = 1 << 20 },
		"phase overrun":       func(s *Snapshot) { s.PhaseLeft = 1 << 62 },
		"zero rng":            func(s *Snapshot) { s.RNG = 0 },
		"run length":          func(s *Snapshot) { s.RunLeft = 7 },
		"call depth":          func(s *Snapshot) { s.CallDepth = -3 },
	} {
		bad := good
		bad.DCursors = append([]int(nil), good.DCursors...)
		mutate(&bad)
		fresh, ref := NewGenerator(MustGet("gcc")), NewGenerator(MustGet("gcc"))
		if err := fresh.Restore(bad); err == nil {
			t.Errorf("%s: restored without error", name)
		}
		var a, b Event
		for i := 0; i < 1_000; i++ {
			fresh.Next(&a)
			ref.Next(&b)
			if a != b {
				t.Fatalf("%s: failed restore perturbed the generator at event %d", name, i)
			}
		}
	}
	if err := NewGenerator(MustGet("gcc")).Restore(good); err != nil {
		t.Fatalf("genuine snapshot rejected: %v", err)
	}
}

// TestRestoreAcceptsEveryGenuineSnapshot: the fit check must never
// reject a state the generator itself reaches — across every profile,
// phase transitions, and skips — or valid checkpoints would silently
// degrade to cold warmups.
func TestRestoreAcceptsEveryGenuineSnapshot(t *testing.T) {
	for _, name := range Names() {
		g := NewGenerator(MustGet(name))
		var ev Event
		for i := 0; i < 300_000; i++ {
			if !g.Next(&ev) {
				break
			}
			if i%997 == 0 {
				if err := NewGenerator(MustGet(name)).Restore(g.Snapshot()); err != nil {
					t.Fatalf("%s at instruction %d: %v", name, i, err)
				}
			}
			if i%50_000 == 0 {
				g.Skip(30_000)
			}
		}
	}
}
