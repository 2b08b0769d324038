package cpu

import (
	"testing"

	"resizecache/internal/bpred"
	"resizecache/internal/workload"
)

// allocSource cycles a fixed event mix without allocating.
type allocSource struct {
	evs []workload.Event
	i   int
}

func (s *allocSource) Next(ev *workload.Event) bool {
	*ev = s.evs[s.i]
	if s.i++; s.i == len(s.evs) {
		s.i = 0
	}
	return true
}

func allocMix() []workload.Event {
	return []workload.Event{
		{PC: 0x1000, Kind: workload.KindLoad, Addr: 0x2000_0000, Dep1: 2, Lat: 1},
		{PC: 0x1004, Kind: workload.KindInt, Dep1: 1, Dep2: 3, Lat: 1},
		{PC: 0x1008, Kind: workload.KindStore, Addr: 0x2000_4000, Dep1: 1, Lat: 1},
		{PC: 0x100c, Kind: workload.KindBranch, Taken: true, Dep1: 2, Lat: 1},
		{PC: 0x2000, Kind: workload.KindCall, Taken: true, Dep1: 1, Lat: 1},
		{PC: 0x3000, Kind: workload.KindFloat, Dep1: 4, Dep2: 1, Lat: 4},
		{PC: 0x3004, Kind: workload.KindReturn, Taken: true, Dep1: 1, Lat: 1},
		{PC: 0x1010, Kind: workload.KindInt, Dep1: 1, Lat: 1},
	}
}

// checkGangStepZeroAllocs fails if a gang's allocations grow with the
// instruction count: a run's allocations must be a fixed setup cost
// (lanes, rings, predictor tables) independent of how many instructions
// execute — i.e. the per-instruction fan-out step allocates zero bytes.
// Asserted for gangs of one and of eight by comparing total allocations
// of a short and a 16× longer run.
func checkGangStepZeroAllocs(t *testing.T, run func(Config, bpred.Predictor, []GangMember, workload.Source, uint64) ([]Result, error)) {
	t.Helper()
	for _, n := range []int{1, 8} {
		allocs := func(instr uint64) float64 {
			src := &allocSource{evs: allocMix()}
			members := make([]GangMember, n)
			for m := range members {
				members[m] = GangMember{IC: &fixedLevel{lat: 1}, DC: &fixedLevel{lat: 1}}
			}
			return testing.AllocsPerRun(3, func() {
				if _, err := run(DefaultConfig(), bpred.NewDefault(), members, src, instr); err != nil {
					t.Fatal(err)
				}
			})
		}
		shortRun, longRun := allocs(2_000), allocs(32_000)
		if longRun != shortRun {
			t.Errorf("%d-member gang allocations grew with instruction count: %.1f for 2K instrs vs %.1f for 32K; the per-instruction step must not allocate", n, shortRun, longRun)
		}
	}
}

// TestOutOfOrderStepZeroAllocs guards the out-of-order fan-out loop.
func TestOutOfOrderStepZeroAllocs(t *testing.T) { checkGangStepZeroAllocs(t, RunGangOutOfOrder) }

// TestInOrderStepZeroAllocs guards the in-order fan-out loop.
func TestInOrderStepZeroAllocs(t *testing.T) { checkGangStepZeroAllocs(t, RunGangInOrder) }
