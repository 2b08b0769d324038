package sim

import (
	"fmt"

	"resizecache/internal/bpred"
	"resizecache/internal/cpu"
	"resizecache/internal/workload"
)

// gangChunk bounds how many machines one engine pass drives. Chunking
// keeps a huge gang's per-instruction member loop within a working set
// the data caches like. Each chunk drives its own generator: generation
// is deterministic, so every chunk sees the identical stream (and, when
// sampled, identical window boundaries). Runner-built gangs stay at or
// below the configured gang size (default 8) and never chunk.
const gangChunk = 32

// RunGang executes N simulations in one workload+engine pass. All
// configs must share a simulation front-end — equal FrontKeys: same
// benchmark, instruction budget, engine kind, pipeline shape, and
// sampling schedule — because the gang evaluates the shared functional
// stream once and fans each event out to every member's private memory
// system. Cache geometries, resizing organizations and policies,
// hierarchy depth, MSHRs, and energy models may all differ per member.
//
// Each member's Result is bit-identical to Run on the same config — Run
// is the gang of one (TestGangMatchesGolden pins this against the
// golden fixtures).
func RunGang(cfgs []Config) ([]Result, error) {
	out, _, err := RunGangWithCheckpoints(cfgs, nil)
	return out, err
}

// RunGangWithCheckpoints is RunGang against an optional warmup
// checkpoint store (nil behaves exactly like RunGang); see
// RunWithCheckpoints for the checkpoint semantics. A sampled gang has
// one shared warmup prefix, so one WarmupStats covers every member.
func RunGangWithCheckpoints(cfgs []Config, cs CheckpointStore) ([]Result, WarmupStats, error) {
	if len(cfgs) == 0 {
		return nil, WarmupStats{}, nil
	}
	prof, err := validated(cfgs[0])
	if err != nil {
		return nil, WarmupStats{}, err
	}
	front := cfgs[0].FrontKey()
	for i, cfg := range cfgs[1:] {
		if _, err := validated(cfg); err != nil {
			return nil, WarmupStats{}, err
		}
		if cfg.FrontKey() != front {
			return nil, WarmupStats{}, fmt.Errorf(
				"sim: gang member %d front-end mismatch: %s/%d instr/%s/%+v/%+v vs member 0 %s/%d instr/%s/%+v/%+v",
				i+1, cfg.Benchmark, cfg.Instructions, cfg.Engine, cfg.CPU, cfg.Sampling,
				cfgs[0].Benchmark, cfgs[0].Instructions, cfgs[0].Engine, cfgs[0].CPU, cfgs[0].Sampling)
		}
	}

	machines := make([]*machine, len(cfgs))
	members := make([]cpu.GangMember, len(cfgs))
	for i, cfg := range cfgs {
		m, err := buildMachine(cfg)
		if err != nil {
			if len(cfgs) > 1 {
				err = fmt.Errorf("sim: gang member %d: %w", i, err)
			}
			return nil, WarmupStats{}, err
		}
		machines[i] = m
		members[i] = cpu.GangMember{IC: m.ic.level, DC: m.dc.level}
	}

	out := make([]Result, len(cfgs))
	var ws WarmupStats
	for lo := 0; lo < len(cfgs); lo += gangChunk {
		hi := min(lo+gangChunk, len(cfgs))
		// Later chunks warm through the store the first chunk just
		// populated (or re-step the prefix identically when there is
		// none); their stats are the gang's internal traffic, not the
		// caller's.
		chunkWS := &ws
		if lo > 0 {
			chunkWS = new(WarmupStats)
		}
		if err := runChunk(cfgs[lo:hi], prof, machines[lo:hi], members[lo:hi], cs, chunkWS, out[lo:hi]); err != nil {
			return nil, ws, err
		}
	}
	return out, ws, nil
}

// gangEngine is what runChunk and the warmup checkpointing drive;
// cpu.GangOutOfOrder and cpu.GangInOrder both implement it.
type gangEngine interface {
	RunWindow(src workload.Source, maxInstr uint64) []cpu.Result
	FastForward(src workload.Source, maxInstr uint64) uint64
	WarmupFrontEnd(src workload.Source, maxInstr uint64) uint64
	SnapshotFrontEnd() (cpu.FrontEndState, error)
	RestoreFrontEnd(cpu.FrontEndState) error
}

// runChunk drives one engine pass over a chunk of the gang and writes
// each member's Result to out. A sampled run is a (checkpointed) warmup
// prefix, then detailed windows alternating with skip and fast-forward
// gaps until the budget or the stream runs out; a detailed run is the
// same loop with no warmup and one window spanning the whole budget.
func runChunk(cfgs []Config, prof *workload.Profile, machines []*machine, members []cpu.GangMember, cs CheckpointStore, ws *WarmupStats, out []Result) error {
	cfg0 := cfgs[0]
	var (
		eng gangEngine
		err error
	)
	if cfg0.Engine == InOrder {
		eng, err = cpu.NewGangInOrder(cfg0.CPU, bpred.NewDefault(), members)
	} else {
		eng, err = cpu.NewGangOutOfOrder(cfg0.CPU, bpred.NewDefault(), members)
	}
	if err != nil {
		return err
	}

	spec := cfg0.Sampling
	if !spec.Enabled() {
		spec = SamplingSpec{DetailedInstructions: cfg0.Instructions}
	}
	gen := workload.NewGenerator(prof)
	consumed := warmupWithCheckpoint(cfg0, eng, gen, cs, ws)

	accs := make([]windowAccum, len(cfgs))
	for i := range accs {
		accs[i].m = machines[i]
	}
	total := consumed
	for total < cfg0.Instructions {
		want := min(spec.DetailedInstructions, cfg0.Instructions-total)
		rs := eng.RunWindow(gen, want)
		total += rs[0].Instructions
		if rs[0].Instructions > 0 {
			for i := range accs {
				accs[i].observe(cfgs[i], rs[i])
			}
		}
		if total >= cfg0.Instructions || rs[0].Instructions < want {
			break // budget spent or stream exhausted
		}
		// Gap to the next window: optional O(1) skip, then functional
		// warming right before the measurement so the window sees
		// representative cache and predictor state.
		if sk := min(spec.SkipInstructions, cfg0.Instructions-total); sk > 0 {
			n := gen.Skip(sk)
			total += n
			if n < sk {
				break // stream exhausted
			}
		}
		ff := min(spec.FastForwardInstructions, cfg0.Instructions-total)
		n := eng.FastForward(gen, ff)
		total += n
		if n < ff {
			break // stream exhausted; nothing left for another window
		}
	}
	for i := range accs {
		if out[i], err = accs[i].finish(cfgs[i], total, consumed); err != nil {
			return err
		}
	}
	return nil
}
