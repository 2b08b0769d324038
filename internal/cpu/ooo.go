package cpu

import (
	"resizecache/internal/bpred"
	"resizecache/internal/cache"
	"resizecache/internal/workload"
)

// GangOutOfOrder is the 4-wide out-of-order engine with a non-blocking
// d-cache, driving every gang member's private memory system from one
// shared workload pass. Instruction timing follows the dataflow model:
// an instruction issues when its producers complete and resources (ROB
// slot, LSQ slot) are available; independent d-misses overlap up to the
// d-cache's MSHR capacity; retirement is in order and width-limited.
//
// The shared front-end and the members' clocks survive across calls, so
// detailed windows (RunWindow) and fast-forward windows can alternate
// over one workload stream; the ROB/LSQ rings are per window.
type GangOutOfOrder struct {
	gang
	lanes []oooLane
}

// oooLane is one member's private out-of-order timing state: its fetch
// and retire clocks and its completion, retire, and memop-retire time
// rings (views into one allocation shared by the gang). The rings are
// cleared at every window start, so a slot that has not been written
// this window reads as zero and never delays anything.
type oooLane struct {
	GangMember
	fetchTime, lastRetire  uint64
	retireInCycle          int
	rob, retire, lsqRetire []uint64
}

// NewGangOutOfOrder builds an out-of-order gang over members; the
// d-caches should be configured with MSHRs (non-blocking) to match the
// paper's configuration.
func NewGangOutOfOrder(cfg Config, bp bpred.Predictor, members []GangMember) (*GangOutOfOrder, error) {
	g, err := newGang(cfg, bp, members)
	if err != nil {
		return nil, err
	}
	// The completion ring has one extra slot, robN, that is never
	// written: an operand with no in-window producer reads it as zero.
	robN, lsqN := cfg.ROBEntries, cfg.LSQEntries
	rings := make([]uint64, len(members)*(2*robN+1+lsqN))
	lanes := make([]oooLane, len(members))
	for m := range lanes {
		l := &lanes[m]
		l.GangMember = members[m]
		l.rob, rings = rings[:robN+1:robN+1], rings[robN+1:]
		l.retire, rings = rings[:robN:robN], rings[robN:]
		l.lsqRetire, rings = rings[:lsqN:lsqN], rings[lsqN:]
	}
	return &GangOutOfOrder{gang: g, lanes: lanes}, nil
}

// RunGangOutOfOrder runs maxInstr instructions of src through a fresh
// out-of-order gang over members.
func RunGangOutOfOrder(cfg Config, bp bpred.Predictor, members []GangMember, src workload.Source, maxInstr uint64) ([]Result, error) {
	g, err := NewGangOutOfOrder(cfg, bp, members)
	if err != nil {
		return nil, err
	}
	return g.RunWindow(src, maxInstr), nil
}

// OutOfOrder is the out-of-order engine over a single L1 pair: a gang
// of one.
type OutOfOrder struct{ g *GangOutOfOrder }

// NewOutOfOrder builds the single-configuration out-of-order engine.
func NewOutOfOrder(cfg Config, ic, dc cache.Level, bp bpred.Predictor) (*OutOfOrder, error) {
	g, err := NewGangOutOfOrder(cfg, bp, []GangMember{{IC: ic, DC: dc}})
	if err != nil {
		return nil, err
	}
	return &OutOfOrder{g}, nil
}

// Name identifies the engine in reports.
func (o *OutOfOrder) Name() string { return "out-of-order/nonblocking" }

// Run executes up to maxInstr instructions (or until the source is
// exhausted) as one window: the first call starts at cycle zero.
func (o *OutOfOrder) Run(src workload.Source, maxInstr uint64) Result {
	return o.g.RunWindow(src, maxInstr)[0]
}

// RunWindow executes up to maxInstr instructions and returns each
// member's timing for the window; result[m].Cycles is member m's
// absolute end cycle. Every window starts its clocks where the previous
// one ended (the first at cycle zero): the sampled execution mode
// chains detailed windows this way, so cache state — which carries
// absolute-cycle timestamps — stays consistent across windows. The
// ROB/LSQ rings start empty each window; the front-end persists. The
// returned slice is reused by the next call.
//
//simlint:hotpath the gang fan-out inner loop
func (g *GangOutOfOrder) RunWindow(src workload.Source, maxInstr uint64) []Result {
	cfg := g.cfg
	front := &g.front
	lanes := g.lanes
	front.groupLeft = 0
	var (
		act   Activity
		instr uint64
		ev    workload.Event

		// Ring sizes and widths are loop-invariant; tracking wrapping
		// ring indices instead of taking `%` by a non-constant size keeps
		// the per-instruction step cheap. robIdx == i % robN and lsqIdx
		// is the window's memop count mod lsqN; the cursors are shared
		// because every member's rings advance identically.
		robN      = cfg.ROBEntries
		lsqN      = cfg.LSQEntries
		decodeLat = cfg.DecodeLatency
		width     = cfg.Width

		robIdx int
		lsqIdx int
	)
	for m := range lanes {
		l := &lanes[m]
		l.retireInCycle = 0
		clear(l.rob)
		clear(l.retire)
		clear(l.lsqRetire)
	}

	for instr < maxInstr && src.Next(&ev) {
		i := instr
		instr++

		front.observe(ev.PC)
		newGroup := front.fetch(&act)
		// Shared functional decisions of the issue path: the ring slot
		// each operand's producer completed in (the never-written slot
		// robN when the operand has no producer in the ROB window —
		// producers older than the window have necessarily retired).
		act.ROBInserts++
		lim := min(i, uint64(robN))
		j1, j2 := robN, robN
		if inWindow(ev.Dep1, lim) {
			act.RegReads++
			if j1 = robIdx - int(ev.Dep1); j1 < 0 {
				j1 += robN
			}
		}
		if inWindow(ev.Dep2, lim) {
			act.RegReads++
			if j2 = robIdx - int(ev.Dep2); j2 < 0 {
				j2 += robN
			}
		}
		// execLat is the non-memory execution latency (control transfers
		// resolve in one cycle; loads/stores go through the d-cache).
		var (
			isMem   bool
			execLat = uint64(ev.Lat)
			action  ctrlAction
		)
		switch ev.Kind {
		case workload.KindLoad:
			isMem = true
			act.LSQInserts++
			act.Loads++
			act.RegWrites++
		case workload.KindStore:
			isMem = true
			act.LSQInserts++
			act.Stores++
		case workload.KindBranch:
			action = front.control(&ev, &act)
		case workload.KindCall, workload.KindReturn:
			execLat = 1
			action = front.control(&ev, &act)
		case workload.KindFloat:
			act.FloatOps++
			act.RegWrites++
		default:
			act.IntOps++
			act.RegWrites++
		}
		isStore := ev.Kind == workload.KindStore

		for m := range lanes {
			l := &lanes[m]
			ft := l.fetchTime
			if newGroup {
				// I-cache miss: fetch stalls for the full latency —
				// i-misses are always on the critical path.
				ft++
				if done := l.IC.Access(ft, ev.PC, false); done > ft+1 {
					ft = done
				}
			}

			// Dispatch needs decode plus a free ROB entry (the
			// instruction ROBEntries back must have retired); issue needs
			// both producers completed.
			ready := max(ft+decodeLat, l.retire[robIdx], l.rob[j1], l.rob[j2])

			var complete uint64
			if isMem {
				// LSQ slot: the memop LSQEntries back must have retired.
				ready = max(ready, l.lsqRetire[lsqIdx])
				done := l.DC.Access(ready, ev.Addr, isStore)
				if isStore {
					// Stores retire from the store buffer: their miss
					// latency is not on the dependence path, but the
					// access still occupies MSHR/writeback resources.
					complete = ready + 1
				} else {
					complete = done
				}
			} else {
				complete = ready + execLat
			}

			switch action {
			case ctrlRedirectBTBMiss:
				// fetchTime + penalty > fetchTime always.
				ft += btbMissPenalty
			case ctrlRedirectMispredict:
				if at := complete + cfg.MispredictPenalty; at > ft {
					ft = at
				}
			}
			l.fetchTime = ft
			l.rob[robIdx] = complete

			// In-order, width-limited retirement.
			rt := max(complete, l.lastRetire)
			if rt == l.lastRetire {
				l.retireInCycle++
				if l.retireInCycle >= width {
					rt++
					l.retireInCycle = 0
				}
			} else {
				l.retireInCycle = 1
			}
			l.lastRetire = rt
			l.retire[robIdx] = rt
			if isMem {
				l.lsqRetire[lsqIdx] = rt
			}
		}

		if robIdx++; robIdx == robN {
			robIdx = 0
		}
		if isMem {
			if lsqIdx++; lsqIdx == lsqN {
				lsqIdx = 0
			}
		}
	}

	res := g.results(instr, act)
	for m := range res {
		l := &lanes[m]
		res[m].Cycles = l.lastRetire + 1
		l.fetchTime, l.lastRetire = res[m].Cycles, res[m].Cycles
	}
	return res
}
