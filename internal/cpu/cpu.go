// Package cpu provides the two processor timing models the paper
// compares resizing strategies on:
//
//   - an out-of-order issue engine with a non-blocking d-cache: 4-wide
//     fetch/retire, 64-entry ROB, 32-entry LSQ, dataflow issue bounded by
//     register dependences, and MSHR-limited memory-level parallelism —
//     this engine hides most d-cache miss latency but exposes i-cache
//     misses and mispredictions at the fetch front-end;
//
//   - an in-order issue engine with a blocking d-cache: the pipeline
//     stalls for the full latency of every d-cache miss, so d-miss
//     latency lies directly on the critical path.
//
// Both are trace-driven cycle models: each dynamic instruction's fetch,
// dispatch, execute, and retire times are computed against finite
// window/queue resources, which is exactly the latency-exposure structure
// the paper's Section 4.2 argument depends on.
//
// Each model has exactly one implementation, and it is ganged: one pass
// over the instruction stream drives N private memory systems in
// lockstep (gang.go explains the functional/timing split that makes this
// exact). A single simulation is a gang of one; NewOutOfOrder and
// NewInOrder are that case's convenience constructors.
package cpu

import (
	"fmt"
)

// Config sets the pipeline parameters (paper Table 2 defaults).
type Config struct {
	Width             int    // fetch/issue/retire width
	ROBEntries        int    // reorder buffer
	LSQEntries        int    // load/store queue
	DecodeLatency     uint64 // fetch -> dispatch
	MispredictPenalty uint64 // redirect bubble after branch resolution
}

// DefaultConfig returns the paper's base pipeline (4-wide, ROB 64,
// LSQ 32).
func DefaultConfig() Config {
	return Config{Width: 4, ROBEntries: 64, LSQEntries: 32, DecodeLatency: 3, MispredictPenalty: 7}
}

// Validate reports the first invalid parameter.
//
//simlint:coldpath validation, once per run
func (c Config) Validate() error {
	switch {
	case c.Width <= 0:
		return fmt.Errorf("cpu: width %d", c.Width)
	case c.ROBEntries <= 0:
		return fmt.Errorf("cpu: ROB %d", c.ROBEntries)
	case c.LSQEntries <= 0:
		return fmt.Errorf("cpu: LSQ %d", c.LSQEntries)
	}
	return nil
}

// Activity counts the per-structure events the energy model multiplies
// by per-access energies (Wattch-style activity factors).
type Activity struct {
	IntOps       uint64
	FloatOps     uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	Mispredicts  uint64
	FetchGroups  uint64
	ROBInserts   uint64
	LSQInserts   uint64
	RegReads     uint64
	RegWrites    uint64
	BpredLookups uint64
	BTBLookups   uint64
	RASOps       uint64
}

// Add accumulates b's counts into a. The sampled execution mode sums
// per-window activities into a whole-run aggregate before energy
// accounting; TestActivityAddScaledCoverEveryField pins that both
// helpers cover every field.
func (a *Activity) Add(b Activity) {
	a.IntOps += b.IntOps
	a.FloatOps += b.FloatOps
	a.Loads += b.Loads
	a.Stores += b.Stores
	a.Branches += b.Branches
	a.Mispredicts += b.Mispredicts
	a.FetchGroups += b.FetchGroups
	a.ROBInserts += b.ROBInserts
	a.LSQInserts += b.LSQInserts
	a.RegReads += b.RegReads
	a.RegWrites += b.RegWrites
	a.BpredLookups += b.BpredLookups
	a.BTBLookups += b.BTBLookups
	a.RASOps += b.RASOps
}

// Scaled returns every count multiplied by s, rounded half-up: the
// extrapolation from detailed-window measurements to a whole-run
// estimate in the sampled execution mode.
func (a Activity) Scaled(s float64) Activity {
	scale := func(v uint64) uint64 { return uint64(float64(v)*s + 0.5) }
	return Activity{
		IntOps:       scale(a.IntOps),
		FloatOps:     scale(a.FloatOps),
		Loads:        scale(a.Loads),
		Stores:       scale(a.Stores),
		Branches:     scale(a.Branches),
		Mispredicts:  scale(a.Mispredicts),
		FetchGroups:  scale(a.FetchGroups),
		ROBInserts:   scale(a.ROBInserts),
		LSQInserts:   scale(a.LSQInserts),
		RegReads:     scale(a.RegReads),
		RegWrites:    scale(a.RegWrites),
		BpredLookups: scale(a.BpredLookups),
		BTBLookups:   scale(a.BTBLookups),
		RASOps:       scale(a.RASOps),
	}
}

// Result is one simulation's timing outcome.
type Result struct {
	Instructions   uint64
	Cycles         uint64
	Activity       Activity
	BranchAccuracy float64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}
