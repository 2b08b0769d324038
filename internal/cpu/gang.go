package cpu

import (
	"resizecache/internal/bpred"
	"resizecache/internal/cache"
	"resizecache/internal/workload"
)

// Gang execution: one workload pass drives N cache configurations in
// lockstep. It is exact because everything that steers the instruction
// stream is *functional* (depends only on the event sequence), while
// cache contents and cycle arithmetic are *timing*:
//
//   - the direction predictor, BTB, and RAS are trained with (PC, taken)
//     pairs only, so their state evolution is identical for every cache
//     configuration;
//   - fetch-group boundaries are functional too: groupLeft cycles with
//     the width and resets on redirects, and every redirect is caused by
//     a functional event (mispredict, taken transfer, BTB miss, RAS
//     underflow) — the *cycle* a redirect lands on differs per member,
//     but *that* it happens, and at which instruction, does not;
//   - consequently every Activity counter and the branch accuracy are
//     member-invariant, and the ROB/LSQ ring indices advance identically.
//
// What differs per member is exactly the timing model: fetch timestamps,
// completion/retire rings, and the cache hierarchies those timestamps
// are computed against. Each engine therefore evaluates the shared
// functional front-end once per instruction and fans the event out to N
// private timing models, turning N×(generate+front-end+timing) into
// generate+front-end+N×timing. Members never observe one another:
// member m of an N-gang is bit-identical to a gang of one over member
// m's caches (TestGangMemberIndependence*), and the sim golden fixtures
// pin the gang-of-one results themselves.

// GangMember is one gang member's private memory system: the L1 caches
// its timing model issues accesses to (each backed by its own private
// hierarchy and memory).
type GangMember struct {
	IC cache.Level
	DC cache.Level
}

// ctrlAction is the shared functional outcome of one instruction's
// control-flow handling; members apply its timing consequence to their
// own fetch clock.
type ctrlAction int

const (
	// ctrlNone: no control transfer, fetch continues.
	ctrlNone ctrlAction = iota
	// ctrlRedirect: fetch restarts at the current fetch time (correctly
	// predicted taken transfer with a BTB/RAS hit) — a fetch-group break
	// with no bubble.
	ctrlRedirect
	// ctrlRedirectBTBMiss: fetch restarts after the BTB-miss bubble.
	ctrlRedirectBTBMiss
	// ctrlRedirectMispredict: fetch restarts after the instruction
	// completes plus the mispredict penalty.
	ctrlRedirectMispredict
)

// btbMissPenalty is the fetch bubble of a taken transfer whose target
// is absent from the BTB.
const btbMissPenalty = 2

// gangFront is the shared functional front-end of a gang: the direction
// predictor, the branch target buffer (a correctly predicted taken
// transfer still bubbles if its target is absent from the BTB), the
// return-address stack for call/return pairs, and the fetch-group
// cursor. Every member sees the same front-end, so the strategy
// comparisons differ only in the memory system's latency exposure.
type gangFront struct {
	bp  *bpred.Stats
	btb *bpred.BTB
	ras *bpred.RAS

	pendingPC  uint64 // taken control transfer awaiting its target
	hasPending bool

	groupLeft int
	width     int
}

//simlint:coldpath constructor, once per gang
func newGangFront(bp bpred.Predictor, width int) gangFront {
	return gangFront{
		bp:    &bpred.Stats{P: bp},
		btb:   bpred.NewBTB(9, 4), // 512-set 4-way
		ras:   bpred.NewRAS(8),
		width: width,
	}
}

// observe must see every instruction's PC before fetch: it completes
// the deferred BTB install of the previous taken transfer, whose target
// is this instruction. observe and fetch are split, and the install
// kept out of line, so that both inline into the per-instruction loops.
func (f *gangFront) observe(pc uint64) {
	if f.hasPending {
		f.installTarget(pc)
	}
}

//go:noinline
func (f *gangFront) installTarget(target uint64) {
	f.btb.Update(f.pendingPC, target)
	f.hasPending = false
}

// fetch advances the fetch-group cursor and reports whether the
// instruction opens a new fetch group.
func (f *gangFront) fetch(act *Activity) (newGroup bool) {
	if f.groupLeft == 0 {
		f.groupLeft = f.width
		act.FetchGroups++
		newGroup = true
	}
	f.groupLeft--
	return newGroup
}

// control resolves a control transfer's functional outcome — the
// predictor, BTB, and RAS work — and returns the shared control action.
// act receives every member-invariant counter of the transfer.
func (f *gangFront) control(ev *workload.Event, act *Activity) (action ctrlAction) {
	switch ev.Kind {
	case workload.KindBranch:
		act.Branches++
		act.BpredLookups++
		if !f.bp.PredictAndTrain(ev.PC, ev.Taken) {
			act.Mispredicts++
			action = ctrlRedirectMispredict
		} else if ev.Taken {
			action = f.lookupTarget(ev.PC, act)
		}
	case workload.KindCall:
		act.RASOps++
		f.ras.Push(ev.PC + 4)
		action = f.lookupTarget(ev.PC, act)
	case workload.KindReturn:
		act.RASOps++
		if _, ok := f.ras.Pop(); ok {
			action = ctrlRedirect
		} else {
			// An underflowed stack is a target mispredict.
			act.Mispredicts++
			action = ctrlRedirectMispredict
		}
	}
	if action != ctrlNone {
		// The redirect breaks the fetch group for the next instruction;
		// members apply the cycle consequence themselves.
		f.groupLeft = 0
	}
	return action
}

// lookupTarget models target prediction for a taken transfer at pc: a
// BTB hit redirects fetch with no bubble; a miss costs btbMissPenalty
// and schedules the entry's installation.
func (f *gangFront) lookupTarget(pc uint64, act *Activity) ctrlAction {
	act.BTBLookups++
	if _, hit := f.btb.Lookup(pc); hit {
		return ctrlRedirect
	}
	f.pendingPC = pc
	f.hasPending = true
	return ctrlRedirectBTBMiss
}

// inWindow reports whether an operand's producer, dep instructions back
// (non-positive: no producer), is tracked by a dependence window of
// depth lim — the caller's min(instructions so far, window depth). A
// non-positive dep wraps to a huge value, so this is one unsigned
// compare instead of three data-dependent branches.
func inWindow(dep int32, lim uint64) bool { return uint64(int64(dep))-1 < lim }

// gang is what both timing models share: the pipeline parameters, the
// functional front-end, the members' memory systems, and the result
// slice each window fills. It carries the fast-forward and warm-state
// methods (sample.go).
type gang struct {
	cfg     Config
	front   gangFront
	members []GangMember
	res     []Result
}

//simlint:coldpath constructor, once per gang
func newGang(cfg Config, bp bpred.Predictor, members []GangMember) (gang, error) {
	if err := cfg.Validate(); err != nil {
		return gang{}, err
	}
	return gang{
		cfg:     cfg,
		front:   newGangFront(bp, cfg.Width),
		members: members,
		res:     make([]Result, len(members)),
	}, nil
}

// results fills every member's Result with the window's shared
// functional outcome (instructions, activity, branch accuracy); the
// caller sets each member's private cycle count. The slice is reused by
// the next window.
func (g *gang) results(instr uint64, act Activity) []Result {
	acc := g.front.bp.Accuracy()
	for m := range g.res {
		g.res[m] = Result{Instructions: instr, Activity: act, BranchAccuracy: acc}
	}
	return g.res
}
