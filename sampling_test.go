package resizecache

import (
	"context"
	"strings"
	"testing"

	"resizecache/internal/runner"
)

// storedSession returns a Session backed by an in-memory persistent
// store — the shape under which warmup checkpoints are recorded.
func storedSession(t *testing.T) *Session {
	t.Helper()
	s, err := NewSessionWith(SessionOptions{Store: runner.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSimulateSampled: a sampled scenario runs end to end — profiling
// sweeps, baseline, winner selection — and produces a finite outcome,
// with the runner recording warmup-checkpoint traffic for the shared
// front-end.
func TestSimulateSampled(t *testing.T) {
	s := storedSession(t)
	sc := Scenario{
		Benchmark:    "gcc",
		Organization: SelectiveWays,
		Sides:        DOnly,
		Instructions: 150_000,
		Sampling:     DefaultSampling(),
	}
	out, err := s.SimulateContext(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Runs == 0 {
		t.Fatalf("sampled scenario simulated nothing: %+v", out.Stats)
	}
	if out.DChosen == "" {
		t.Error("sampled sweep selected no winner")
	}
	// Every config of the sweep shares the scenario's front-end; the
	// first pass (often one coalesced gang) records the warmup
	// checkpoint, and any pass after it restores instead of re-warming.
	if st := s.Stats(); st.WarmupSaves == 0 {
		t.Errorf("sampled sweep recorded no warmup checkpoint: %+v", st)
	}
}

// TestSampledScenarioMemoizesSeparately: sampled and detailed runs of
// the same experiment have distinct fingerprints — a sampled sweep must
// never satisfy (or be satisfied by) a detailed one.
func TestSampledScenarioMemoizesSeparately(t *testing.T) {
	sc := Scenario{Benchmark: "gcc", Organization: SelectiveWays, Sides: DOnly,
		Instructions: 150_000}
	sampled := sc
	sampled.Sampling = DefaultSampling()

	s := NewSession()
	first, err := s.SimulateContext(context.Background(), sampled)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.SimulateContext(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Runs == 0 {
		t.Error("detailed scenario resolved against sampled results")
	}
	_ = first
}

// TestSamplingValidatedAtPlanTime: spec mistakes surface from normalize
// (and therefore PlanOf/Grid.Expand), not from deep inside a sweep.
func TestSamplingValidatedAtPlanTime(t *testing.T) {
	_, err := PlanOf(Scenario{Benchmark: "gcc", Organization: SelectiveWays,
		Sampling: SamplingSpec{DetailedInstructions: 5_000}})
	if err == nil || !strings.Contains(err.Error(), "partial sampling spec") {
		t.Errorf("partial spec: got %v", err)
	}
	_, err = PlanOf(Scenario{Benchmark: "gcc", Organization: SelectiveWays,
		Instructions: 100_000,
		Sampling: SamplingSpec{WarmupInstructions: 100_000,
			DetailedInstructions: 5_000, FastForwardInstructions: 10_000}})
	if err == nil || !strings.Contains(err.Error(), "consumes the whole") {
		t.Errorf("warmup-eats-budget: got %v", err)
	}
}

// TestGridSamplingAppliesToEveryScenario: Grid.Sampling is a scalar
// like Instructions, stamped onto every expanded cell.
func TestGridSamplingAppliesToEveryScenario(t *testing.T) {
	spec := DefaultSampling()
	plan, err := Grid{
		Benchmarks:    []string{"gcc", "vpr"},
		Organizations: []Organization{SelectiveWays, SelectiveSets},
		Instructions:  150_000,
		Sampling:      spec,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 4 {
		t.Fatalf("plan has %d scenarios, want 4", plan.Len())
	}
	for _, sc := range plan.Scenarios() {
		if sc.Sampling != spec {
			t.Fatalf("scenario %+v lost the grid's sampling spec", sc)
		}
	}
	// The plan also runs: two same-benchmark scenarios share sweeps and
	// warmup checkpoints through the session runner.
	s := storedSession(t)
	if _, err := Collect(s.Run(context.Background(), plan)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WarmupSaves == 0 {
		t.Errorf("sampled plan recorded no warmup checkpoints: %+v", st)
	}
}
