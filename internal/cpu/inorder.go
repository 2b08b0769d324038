package cpu

import (
	"resizecache/internal/bpred"
	"resizecache/internal/cache"
	"resizecache/internal/workload"
)

// window is the in-order engine's dependence-scoreboard depth. A
// constant power-of-two window lets the compiler turn the
// per-instruction ring indexing into a mask instead of a divide.
const window = 64

// GangInOrder is the in-order issue engine with a blocking d-cache,
// driving every gang member's private memory system from one shared
// workload pass: an instruction issues only after all older
// instructions have issued and its producers have completed, and a
// d-cache miss stalls the pipeline for its full latency (the d-caches
// should be configured without MSHRs). This engine exposes d-miss
// latency directly to execution time, the regime in which the paper
// finds dynamic resizing clearly superior. Windows chain exactly as
// GangOutOfOrder's do.
type GangInOrder struct {
	gang
	lanes []inOrderLane
}

// inOrderLane is one member's private in-order timing state.
type inOrderLane struct {
	GangMember
	fetchTime, issueTime, maxComplete uint64
	issueInCycle                      int
	// completed is the dependence scoreboard of recent completion times;
	// slot window is never written, so an operand with no in-window
	// producer reads it as zero.
	completed [window + 1]uint64
}

// NewGangInOrder builds an in-order gang over members.
func NewGangInOrder(cfg Config, bp bpred.Predictor, members []GangMember) (*GangInOrder, error) {
	g, err := newGang(cfg, bp, members)
	if err != nil {
		return nil, err
	}
	lanes := make([]inOrderLane, len(members))
	for m := range lanes {
		lanes[m].GangMember = members[m]
	}
	return &GangInOrder{gang: g, lanes: lanes}, nil
}

// RunGangInOrder is RunGangOutOfOrder for the in-order/blocking-d-cache
// timing model.
func RunGangInOrder(cfg Config, bp bpred.Predictor, members []GangMember, src workload.Source, maxInstr uint64) ([]Result, error) {
	g, err := NewGangInOrder(cfg, bp, members)
	if err != nil {
		return nil, err
	}
	return g.RunWindow(src, maxInstr), nil
}

// InOrder is the in-order engine over a single L1 pair: a gang of one.
type InOrder struct{ g *GangInOrder }

// NewInOrder builds the single-configuration in-order engine.
func NewInOrder(cfg Config, ic, dc cache.Level, bp bpred.Predictor) (*InOrder, error) {
	g, err := NewGangInOrder(cfg, bp, []GangMember{{IC: ic, DC: dc}})
	if err != nil {
		return nil, err
	}
	return &InOrder{g}, nil
}

// Name identifies the engine in reports.
func (e *InOrder) Name() string { return "in-order/blocking" }

// Run executes up to maxInstr instructions (or until the source is
// exhausted) as one window: the first call starts at cycle zero.
func (e *InOrder) Run(src workload.Source, maxInstr uint64) Result {
	return e.g.RunWindow(src, maxInstr)[0]
}

// RunWindow executes up to maxInstr instructions, continuing every
// member's clocks from the previous window; see GangOutOfOrder.RunWindow
// for the contract.
//
//simlint:hotpath the gang fan-out inner loop
func (g *GangInOrder) RunWindow(src workload.Source, maxInstr uint64) []Result {
	cfg := g.cfg
	front := &g.front
	lanes := g.lanes
	front.groupLeft = 0
	var (
		act   Activity
		instr uint64
		ev    workload.Event
	)
	// Scoreboard slots are read only for producers issued in this
	// window (or the zero slot), so they need no reset.
	for m := range lanes {
		lanes[m].issueInCycle = 0
	}

	for instr < maxInstr && src.Next(&ev) {
		i := instr
		instr++

		front.observe(ev.PC)
		newGroup := front.fetch(&act)
		lim := min(i, window)
		j1, j2 := uint64(window), uint64(window)
		if inWindow(ev.Dep1, lim) {
			act.RegReads++
			j1 = (i - uint64(ev.Dep1)) % window
		}
		if inWindow(ev.Dep2, lim) {
			act.RegReads++
			j2 = (i - uint64(ev.Dep2)) % window
		}
		var (
			isMem   bool
			execLat = uint64(ev.Lat)
			action  ctrlAction
		)
		switch ev.Kind {
		case workload.KindLoad:
			isMem = true
			act.Loads++
			act.RegWrites++
		case workload.KindStore:
			isMem = true
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
				// I-cache miss: fetch stalls for the full latency.
				ft++
				if done := l.IC.Access(ft, ev.PC, false); done > ft+1 {
					ft = done
				}
			}

			// In-order: cannot issue before the previous instruction,
			// and at most Width issue in one cycle.
			issue := ft + cfg.DecodeLatency
			if issue < l.issueTime {
				issue = l.issueTime
			}
			if issue == l.issueTime {
				l.issueInCycle++
				if l.issueInCycle >= cfg.Width {
					issue++
					l.issueInCycle = 0
				}
			} else {
				l.issueInCycle = 1
			}

			// Dependence stalls: producers must complete before issue.
			issue = max(issue, l.completed[j1], l.completed[j2])

			var complete uint64
			if isMem {
				complete = l.DC.Access(issue, ev.Addr, isStore)
				// Blocking d-cache: nothing issues until the access
				// completes.
				if complete > issue+1 {
					issue = complete - 1
				}
			} else {
				complete = issue + execLat
			}

			switch action {
			case ctrlRedirectBTBMiss:
				ft += btbMissPenalty
			case ctrlRedirectMispredict:
				if at := complete + cfg.MispredictPenalty; at > ft {
					ft = at
				}
			}
			l.fetchTime = ft
			l.completed[i%window] = complete
			l.issueTime = issue
			l.maxComplete = max(l.maxComplete, complete)
		}
	}

	res := g.results(instr, act)
	for m := range res {
		l := &lanes[m]
		res[m].Cycles = l.maxComplete + 1
		l.fetchTime, l.issueTime, l.maxComplete = res[m].Cycles, res[m].Cycles, res[m].Cycles
	}
	return res
}
