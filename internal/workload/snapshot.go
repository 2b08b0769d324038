package workload

import "fmt"

// Snapshot is the generator's complete mutable state at an instruction
// boundary. It contains only plain data (no pointers into the generator),
// so it can be serialized into a warmup checkpoint and restored into a
// fresh Generator built from the same Profile. The per-phase hoist tables
// are deliberately absent: they are a pure function of (profile,
// phaseIdx) and Restore rebuilds them without consuming RNG draws.
type Snapshot struct {
	RNG         uint64
	Instr       uint64
	PhaseIdx    int
	PhaseLeft   uint64
	Exhausted   bool
	DCursors    []int
	ICursor     int
	DConfCursor int
	IConfCursor int
	ColdCursor  uint64
	RunAddr     uint64
	RunLeft     int
	BrCounter   int
	CallDepth   int
}

// Snapshot captures the generator state. The returned value owns its
// slices (they do not alias generator storage).
func (g *Generator) Snapshot() Snapshot {
	return Snapshot{
		RNG:         g.r.s,
		Instr:       g.instr,
		PhaseIdx:    g.phaseIdx,
		PhaseLeft:   g.phaseLeft,
		Exhausted:   g.exhausted,
		DCursors:    append([]int(nil), g.dCursors...),
		ICursor:     g.iCursor,
		DConfCursor: g.dConfCursor,
		IConfCursor: g.iConfCursor,
		ColdCursor:  g.coldCursor,
		RunAddr:     g.runAddr,
		RunLeft:     g.runLeft,
		BrCounter:   g.brCounter,
		CallDepth:   g.callDepth,
	}
}

// Restore rewinds (or fast-forwards) the generator to a snapshot taken
// from a generator built over the same profile. After Restore the event
// stream continues exactly as it would have from the snapshot point.
//
// A snapshot arrives from outside the process (a warmup checkpoint), so
// Restore first checks that it fits the profile — the phase index in
// range, one in-range cursor per working-set level of that phase, every
// other cursor within the bounds the generator itself keeps — and
// returns an error, leaving the generator untouched, if it does not.
func (g *Generator) Restore(s Snapshot) error {
	if err := g.fits(s); err != nil {
		return err
	}
	g.r.s = s.RNG
	g.instr = s.Instr
	g.exhausted = s.Exhausted
	g.rebuildPhaseHoists(s.PhaseIdx)
	g.phaseLeft = s.PhaseLeft
	copy(g.dCursors, s.DCursors)
	g.iCursor = s.ICursor
	g.dConfCursor = s.DConfCursor
	g.iConfCursor = s.IConfCursor
	g.coldCursor = s.ColdCursor
	g.runAddr = s.RunAddr
	g.runLeft = s.RunLeft
	g.brCounter = s.BrCounter
	g.callDepth = s.CallDepth
	return nil
}

// fits reports why s cannot be a state of a generator over g's profile.
func (g *Generator) fits(s Snapshot) error {
	p := g.prof
	if s.PhaseIdx < 0 || s.PhaseIdx >= len(p.Phases) {
		return fmt.Errorf("workload: %s snapshot phase %d out of range [0,%d)", p.Name, s.PhaseIdx, len(p.Phases))
	}
	ph := &p.Phases[s.PhaseIdx]
	if len(s.DCursors) != len(ph.DLevels) {
		return fmt.Errorf("workload: %s snapshot has %d data cursors for phase %d's %d levels", p.Name, len(s.DCursors), s.PhaseIdx, len(ph.DLevels))
	}
	for j, c := range s.DCursors {
		if c < 0 || c >= max(ph.DLevels[j].Blocks, 1) {
			return fmt.Errorf("workload: %s snapshot data cursor %d = %d outside level of %d blocks", p.Name, j, c, ph.DLevels[j].Blocks)
		}
	}
	iBytes := 0 // with no instruction levels the cursor only grows
	if len(ph.ILevels) > 0 {
		iBytes = max(ph.ILevels[0].Blocks*blockBytes, blockBytes)
	}
	var dWays, iWays int
	for i := range p.Phases {
		dWays = max(dWays, p.Phases[i].DConflict.Ways)
		iWays = max(iWays, p.Phases[i].IConflict.Ways)
	}
	switch {
	case s.RNG == 0:
		return fmt.Errorf("workload: %s snapshot has the absorbing zero RNG state", p.Name)
	case s.PhaseLeft > ph.Instructions:
		return fmt.Errorf("workload: %s snapshot has %d instructions left in phase %d of %d", p.Name, s.PhaseLeft, s.PhaseIdx, ph.Instructions)
	case s.ICursor < 0 || s.ICursor%instrBytes != 0 || (iBytes > 0 && s.ICursor >= iBytes):
		return fmt.Errorf("workload: %s snapshot instruction cursor %d outside the %d-byte hot code", p.Name, s.ICursor, iBytes)
	case s.DConfCursor < 0 || s.DConfCursor >= max(dWays, 1) || s.IConfCursor < 0 || s.IConfCursor >= max(iWays, 1):
		return fmt.Errorf("workload: %s snapshot conflict cursors %d/%d outside %d/%d ways", p.Name, s.DConfCursor, s.IConfCursor, dWays, iWays)
	case s.RunLeft < 0 || s.RunLeft > 2 || s.BrCounter < 0 || s.CallDepth < 0 || s.CallDepth > maxCallDepth:
		return fmt.Errorf("workload: %s snapshot run/branch/call state %d/%d/%d out of range", p.Name, s.RunLeft, s.BrCounter, s.CallDepth)
	}
	return nil
}
