package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"resizecache"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
)

// slowStore spends a fixed CPU time in every Lookup, as a slower store
// implementation would (a sleep would hide behind the plan's concurrent
// gathers), and counts the calls it delayed.
type slowStore struct {
	runner.Store
	d     time.Duration
	calls *atomic.Int64
}

func (s slowStore) Lookup(k sim.Key) (runner.StoredResult, bool) {
	s.calls.Add(1)
	for t := time.Now(); time.Since(t) < s.d; {
	}
	return s.Store.Lookup(k)
}

// slowConn delays every server-side connection write by a fixed time.
type slowConn struct {
	net.Conn
	d     time.Duration
	calls *atomic.Int64
}

func (c slowConn) Write(p []byte) (int, error) {
	c.calls.Add(1)
	time.Sleep(c.d)
	return c.Conn.Write(p)
}

func lookupDelay(calls *atomic.Int64) hooks {
	return hooks{store: func(s runner.Store) runner.Store { return slowStore{s, 200 * time.Microsecond, calls} }}
}

func writeDelay(calls *atomic.Int64) hooks {
	return hooks{conn: func(c net.Conn) net.Conn { return slowConn{c, 10 * time.Millisecond, calls} }}
}

// small is the reduced scale the self-tests run at: one sweep role, two
// apps per serve client, two replay apps.
var small = scale{roles: 1, perClient: 2, replayApps: 2, skipLayers: true}

// bounds reads the end-to-end bounds the benchmark declares.
func bounds(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// compared is a metric's median over runs without and with a hook, and
// the relative change between the two.
type compared struct{ base, hooked, change float64 }

// abTest runs a workload alternately without and with a hook, rounds
// times each, so a host whose speed drifts during the test slows both
// sides alike, and compares the medians of the named metrics. A traced
// run reports per-layer metrics; its end-to-end ones come from its
// untraced passes.
func abTest(t *testing.T, workload string, h hooks, trace bool, rounds, passes int, metrics ...string) map[string]compared {
	t.Helper()
	sc := small
	sc.minPasses, sc.maxPasses = passes, passes
	vals := map[string]*[2][]float64{}
	for _, m := range metrics {
		vals[m] = &[2][]float64{}
	}
	for range rounds {
		for side, hk := range []hooks{{}, h} {
			rep, err := runWorkload(context.Background(), workload, 7, 1, trace, sc, hk, buildFixture, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("%s: %d of %d outcomes failed", workload, rep.Failed, rep.Attempted)
			}
			for _, m := range metrics {
				s, ok := rep.EndToEnd[m]
				if !ok {
					s, ok = rep.Metrics[m]
				}
				if !ok {
					t.Fatalf("%s reported no %s", workload, m)
				}
				vals[m][side] = append(vals[m][side], s.Value)
			}
		}
	}
	out := map[string]compared{}
	for m, v := range vals {
		c := compared{base: quantile(v[0], 0.5), hooked: quantile(v[1], 0.5)}
		if c.base != 0 {
			c.change = (c.hooked - c.base) / c.base
		}
		out[m] = c
		t.Logf("%s %s: %.4g without the hook, %.4g with it (%+.1f%%)", workload, m, c.base, c.hooked, 100*c.change)
	}
	return out
}

// A delay injected below the store must show up in the store layer's
// lookup time and in replay-warm's wall time, and not in sweep-cold,
// which has no store.
func TestInjectedLookupDelayIsAttributed(t *testing.T) {
	bound := bounds(t)["wall_s"]
	var calls atomic.Int64
	r := abTest(t, "replay-warm", lookupDelay(&calls), true, 2, 4, "wall_s", "runner.store_lookup_us_p50", "runner.runs")
	if l := r["runner.store_lookup_us_p50"]; l.hooked < l.base+160 {
		t.Errorf("store_lookup_us_p50 = %.1f us with a 200 us delay, %.1f without", l.hooked, l.base)
	}
	if w := r["wall_s"]; w.change <= bound {
		t.Errorf("replay-warm wall_s moved %+.1f%%, want more than the %.0f%% bound", 100*w.change, 100*bound)
	}
	if r["runner.runs"].base != 0 || r["runner.runs"].hooked != 0 {
		t.Error("replay-warm simulated")
	}

	calls.Store(0)
	s := abTest(t, "sweep-cold", lookupDelay(&calls), false, 3, 2, "wall_s")
	if n := calls.Load(); n != 0 {
		t.Errorf("the store delay ran %d times in sweep-cold, which has no store", n)
	}
	if w := s["wall_s"]; w.change > bound || w.change < -bound {
		t.Errorf("sweep-cold wall_s moved %+.1f%% under a store delay, bound %.0f%%", 100*w.change, 100*bound)
	}
}

// A delay on connection writes must move serve-sampled's request
// latency and frame write time, and leave the store-only replay alone.
func TestInjectedWriteDelayMovesOnlyServe(t *testing.T) {
	bound := bounds(t)
	var calls atomic.Int64
	s := abTest(t, "serve-sampled", writeDelay(&calls), true, 1, 4, "request_p50_ms", "simd.write_us_p50")
	if c := s["request_p50_ms"]; c.change <= bound["request_p50_ms"] {
		t.Errorf("serve-sampled request_p50_ms moved %+.1f%%, want more than the %.0f%% bound", 100*c.change, 100*bound["request_p50_ms"])
	}
	if w := s["simd.write_us_p50"]; w.hooked < 10_000 {
		t.Errorf("simd.write_us_p50 = %.0f us with a 10 ms write delay", w.hooked)
	}

	calls.Store(0)
	r := abTest(t, "replay-warm", writeDelay(&calls), false, 3, 4, "wall_s")
	if n := calls.Load(); n != 0 {
		t.Errorf("the write delay ran %d times in replay-warm, which has no connections", n)
	}
	if w := r["wall_s"]; w.change > bound["wall_s"] || w.change < -bound["wall_s"] {
		t.Errorf("replay-warm wall_s moved %+.1f%% under a connection delay, bound %.0f%%", 100*w.change, 100*bound["wall_s"])
	}
}

// Every user-visible outcome field must reach the digest, or a changed
// result could pass the reference check.
func TestDigestCoversOutcome(t *testing.T) {
	base := resizecache.Outcome{EDPReductionPct: 1, SlowdownPct: 2, DCacheSizeReductionPct: 3,
		ICacheSizeReductionPct: 4, L2SizeReductionPct: 5, DChosen: "d", IChosen: "i", L2Chosen: "l2",
		Energy: resizecache.EnergyShares{CorePct: 6, L1IPct: 7, L1DPct: 8, L2Pct: 9, MemPct: 10}}
	perturb := []func(*resizecache.Outcome){
		func(o *resizecache.Outcome) { o.EDPReductionPct++ },
		func(o *resizecache.Outcome) { o.SlowdownPct++ },
		func(o *resizecache.Outcome) { o.DCacheSizeReductionPct++ },
		func(o *resizecache.Outcome) { o.ICacheSizeReductionPct++ },
		func(o *resizecache.Outcome) { o.L2SizeReductionPct++ },
		func(o *resizecache.Outcome) { o.DChosen += "x" },
		func(o *resizecache.Outcome) { o.IChosen += "x" },
		func(o *resizecache.Outcome) { o.L2Chosen += "x" },
		func(o *resizecache.Outcome) { o.Energy.CorePct++ },
		func(o *resizecache.Outcome) { o.Energy.L1IPct++ },
		func(o *resizecache.Outcome) { o.Energy.L1DPct++ },
		func(o *resizecache.Outcome) { o.Energy.L2Pct++ },
		func(o *resizecache.Outcome) { o.Energy.MemPct++ },
	}
	for i, p := range perturb {
		o := base
		p(&o)
		if digest(o) == digest(base) {
			t.Errorf("perturbation %d does not change the digest", i)
		}
	}
	o := base
	o.Stats.Runs = 99
	if digest(o) != digest(base) {
		t.Error("runner statistics changed the digest")
	}
}
