package simd_test

// Integration tests for the daemon: every test starts a real server on
// a unix socket in a temp dir and talks to it through the public client
// surfaces (resizecache.Dial, runner.OpenNetStore) or raw wire frames.
// The headline contracts under test: remote results are bit-identical
// to a local session's, concurrent clients submitting the same plan
// deduplicate down to one simulation set, and a warm replay runs zero
// new simulations.

import (
	"context"
	"encoding/json"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"resizecache"
	"resizecache/internal/runner"
	"resizecache/internal/runner/storetest"
	"resizecache/internal/simd"
	"resizecache/internal/simd/wire"
)

// startDaemon runs a Server on a fresh unix socket until the test ends;
// cleanup drains it gracefully and reports any Serve error.
func startDaemon(t *testing.T, opts simd.Options) (addr string, srv *simd.Server) {
	t.Helper()
	srv, err := simd.New(opts)
	if err != nil {
		t.Fatalf("simd.New: %v", err)
	}
	addr = "unix:" + filepath.Join(t.TempDir(), "s.sock")
	ln, err := simd.Listen(addr)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return addr, srv
}

// testPlan is the shared fixture: two cheap scenarios with distinct
// benchmarks, so the plan profiles two sweeps.
func testPlan(t *testing.T) resizecache.Plan {
	t.Helper()
	plan, err := resizecache.PlanOf(
		resizecache.Scenario{Benchmark: "m88ksim", Organization: resizecache.SelectiveSets,
			Sides: resizecache.DOnly, Instructions: 60_000},
		resizecache.Scenario{Benchmark: "gcc", Organization: resizecache.SelectiveSets,
			Sides: resizecache.DOnly, Instructions: 60_000},
	)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// zeroStats strips the per-call runner-activity delta from outcomes
// before comparison: it reflects which runner executed the call (and
// what its neighbours were doing), not what the scenario computed.
func zeroStats(results []resizecache.Result) {
	for i := range results {
		results[i].Outcome.Stats = runner.Stats{}
	}
}

// TestRemotePlanMatchesLocal is the tentpole acceptance test: two
// concurrent clients submit the same plan to one daemon; every result
// is bit-identical to an in-process session's, the daemon deduplicates
// the overlapping submissions down to one simulation set, and a warm
// third client replays the plan with zero new simulations.
func TestRemotePlanMatchesLocal(t *testing.T) {
	plan := testPlan(t)
	ctx := context.Background()

	local := resizecache.NewSession()
	want, err := resizecache.Collect(local.Run(ctx, plan))
	if err != nil {
		t.Fatal(err)
	}
	zeroStats(want)
	localRuns := local.Stats().Runs

	addr, srv := startDaemon(t, simd.Options{})

	// Two clients race the same plan through one shared session.
	results := make([][]resizecache.Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			remote, err := resizecache.Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer remote.Close()
			results[i], errs[i] = resizecache.Collect(remote.Run(ctx, plan))
		}()
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		zeroStats(results[i])
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("client %d results differ from the local session:\n got %+v\nwant %+v",
				i, results[i], want)
		}
	}
	if got := srv.Stats().Runs; got != localRuns {
		t.Errorf("daemon ran %d simulations for two overlapping clients, want %d (in-flight dedup)",
			got, localRuns)
	}

	// A warm replay: the third client's plan resolves entirely from the
	// shared memo fabric.
	before := srv.Stats()
	remote, err := resizecache.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	warm, err := resizecache.Collect(remote.Run(ctx, plan))
	if err != nil {
		t.Fatal(err)
	}
	zeroStats(warm)
	if !reflect.DeepEqual(warm, want) {
		t.Errorf("warm replay differs from the local session")
	}
	delta := srv.Stats().Delta(before)
	if delta.Runs != 0 || delta.Enqueued != 0 {
		t.Errorf("warm replay did fresh work: %v", delta)
	}
	if delta.ArtifactHits == 0 {
		t.Errorf("warm replay scored no sweep-level reuse: %v", delta)
	}
}

// TestRemoteSimulateAndStats exercises the non-plan Executor surface:
// one scenario through SimulateContext, cumulative daemon counters
// through Stats, and error isolation for an invalid scenario.
func TestRemoteSimulateAndStats(t *testing.T) {
	addr, srv := startDaemon(t, simd.Options{})
	remote, err := resizecache.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	sc := resizecache.Scenario{Benchmark: "m88ksim", Organization: resizecache.SelectiveSets,
		Sides: resizecache.DOnly, Instructions: 60_000}
	out, err := remote.SimulateContext(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if out.DChosen == "" {
		t.Error("remote outcome has no chosen configuration")
	}
	st := remote.Stats()
	if st.Runs == 0 || st.Runs != srv.Stats().Runs {
		t.Errorf("remote Stats = %+v, want the daemon's cumulative counters (%d runs)",
			st, srv.Stats().Runs)
	}

	if _, err := remote.SimulateContext(context.Background(), resizecache.Scenario{Benchmark: "no-such-app",
		Organization: resizecache.SelectiveSets, Instructions: 60_000}); err == nil {
		t.Error("invalid scenario simulated without error")
	}
}

// TestRemoteArtifactRepairsUndecodablePayload: RemoteSession.Artifact
// keeps its own lookup/decode path, so it must repair like the
// in-process tier: a daemon-cached payload that does not decode (here
// planted by a client with another schema) costs exactly one compute,
// after which the same client and a fresh one both hit.
func TestRemoteArtifactRepairsUndecodablePayload(t *testing.T) {
	addr, _ := startDaemon(t, simd.Options{})
	dial := func() *resizecache.RemoteSession {
		t.Helper()
		remote, err := resizecache.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { remote.Close() })
		return remote
	}
	ctx := context.Background()
	plan := testPlan(t)
	const domain, version = "test/repair", 1

	// Valid JSON that does not decode into rows below, but would leave a
	// stale map key behind a partial decode.
	var foreign map[string]any
	if err := dial().Artifact(ctx, domain, version, plan, &foreign, func(context.Context) (any, error) {
		return map[string]any{"Cells": map[string]int{"stale": 1}, "Vals": "not-a-list"}, nil
	}); err != nil {
		t.Fatal(err)
	}

	type rows struct {
		Name  string
		Vals  []int
		Cells map[string]int
	}
	want := rows{Name: "fresh", Vals: []int{4, 5}, Cells: map[string]int{"fresh": 2}}
	var computes int
	compute := func(context.Context) (any, error) {
		computes++
		return want, nil
	}
	resolve := func(remote *resizecache.RemoteSession, step string) {
		t.Helper()
		var got rows
		if err := remote.Artifact(ctx, domain, version, plan, &got, compute); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Artifact = %+v, want %+v", step, got, want)
		}
		if computes != 1 {
			t.Fatalf("%s: %d computes, want exactly 1", step, computes)
		}
	}
	remote := dial()
	resolve(remote, "repair")
	resolve(remote, "same client")
	resolve(dial(), "fresh client")
}

// TestRemoteCancelKeepsConnectionUsable: cancelling a plan mid-stream
// must deliver exactly plan.Len() results (the unfinished ones carrying
// the cancellation), and the multiplexed connection must stay usable
// for later requests.
func TestRemoteCancelKeepsConnectionUsable(t *testing.T) {
	addr, _ := startDaemon(t, simd.Options{Workers: 1})
	remote, err := resizecache.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	var scenarios []resizecache.Scenario
	for _, app := range resizecache.Benchmarks() {
		scenarios = append(scenarios, resizecache.Scenario{Benchmark: app,
			Organization: resizecache.SelectiveSets, Sides: resizecache.DOnly,
			Instructions: 400_000})
	}
	plan, err := resizecache.PlanOf(scenarios...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // before submission: every scenario should fail fast
	results, err := resizecache.Collect(remote.Run(ctx, plan))
	if err == nil {
		t.Error("cancelled plan reported no error")
	}
	if len(results) != plan.Len() {
		t.Fatalf("cancelled plan delivered %d results, want %d", len(results), plan.Len())
	}

	// The connection multiplexes: a fresh request on the same conn works.
	if err := remote.Flush(); err != nil {
		t.Errorf("connection unusable after cancel: %v", err)
	}
}

// TestNetStoreConformance runs the Store contract suite against
// NetStore, each subtest on its own fresh daemon.
func TestNetStoreConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) runner.Store {
		addr, _ := startDaemon(t, simd.Options{})
		ns, err := runner.OpenNetStore(addr)
		if err != nil {
			t.Fatalf("OpenNetStore: %v", err)
		}
		t.Cleanup(func() { ns.Close() })
		return ns
	})
}

// TestNetStoreSharesFabricWithPlans: results a NetStore-backed local
// session computes become store hits for remote plans on the same
// daemon — the two client modes (run-here-share-store and
// run-on-the-daemon) interoperate through one memo fabric.
func TestNetStoreSharesFabricWithPlans(t *testing.T) {
	plan := testPlan(t)
	ctx := context.Background()
	addr, srv := startDaemon(t, simd.Options{})

	ns, err := runner.OpenNetStore(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	local, err := resizecache.NewSessionWith(resizecache.SessionOptions{Store: ns})
	if err != nil {
		t.Fatal(err)
	}
	want, err := resizecache.Collect(local.Run(ctx, plan))
	if err != nil {
		t.Fatal(err)
	}
	zeroStats(want)
	if hits, errors := ns.RemoteCounts(); errors != 0 {
		t.Fatalf("net store: %d hits, %d errors; want error-free", hits, errors)
	}

	// The daemon itself has simulated nothing; the remote plan must
	// resolve from what the local session recorded.
	if runs := srv.Stats().Runs; runs != 0 {
		t.Fatalf("daemon ran %d simulations before any plan", runs)
	}
	remote, err := resizecache.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	got, err := resizecache.Collect(remote.Run(ctx, plan))
	if err != nil {
		t.Fatal(err)
	}
	zeroStats(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("remote plan over the shared store differs from the local session")
	}
	if runs := srv.Stats().Runs; runs != 0 {
		t.Errorf("remote plan re-simulated %d configs the local session already stored", runs)
	}
}

// TestProtocolVersionMismatch: a client speaking the wrong protocol
// version gets a per-request error frame naming both versions, not a
// hangup or a silent misinterpretation.
func TestProtocolVersionMismatch(t *testing.T) {
	addr, _ := startDaemon(t, simd.Options{})
	nc, err := net.Dial("unix", strings.TrimPrefix(addr, "unix:"))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	req := wire.Request{V: wire.ProtocolVersion + 1, ID: 7, Op: wire.OpStats}
	if err := wire.WriteFrame(nc, req); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := wire.ReadFrame(nc, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 7 || resp.Kind != wire.KindError {
		t.Fatalf("response = %+v, want an error frame for request 7", resp)
	}
	if !strings.Contains(resp.Err, "protocol version mismatch") {
		t.Errorf("error = %q, want a protocol version mismatch", resp.Err)
	}
}

// TestOldShapePlanFramesDecode: scenarios serialized by a client that
// still knew the retired Scenario.ResizeDCache/ResizeICache booleans
// carry them as false (clients normalize before sending), so a daemon
// without the fields must decode such a plan and stream the same
// outcomes as for the same plan without them — which is why dropping
// the fields did not bump wire.ProtocolVersion.
func TestOldShapePlanFramesDecode(t *testing.T) {
	addr, _ := startDaemon(t, simd.Options{})
	nc, err := net.Dial("unix", strings.TrimPrefix(addr, "unix:"))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	current, err := json.Marshal(testPlan(t).Scenarios())
	if err != nil {
		t.Fatal(err)
	}
	var fields []map[string]any
	if err := json.Unmarshal(current, &fields); err != nil {
		t.Fatal(err)
	}
	for _, f := range fields {
		f["ResizeDCache"], f["ResizeICache"] = false, false
	}
	oldShape, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(oldShape), `"ResizeDCache":false,"ResizeICache":false`) {
		t.Fatalf("old-shape fixture lacks the retired fields: %s", oldShape)
	}

	plan := func(id uint64, scenarios []byte) map[int]resizecache.Outcome {
		t.Helper()
		req := wire.Request{V: wire.ProtocolVersion, ID: id, Op: wire.OpPlan, Scenarios: scenarios}
		if err := wire.WriteFrame(nc, req); err != nil {
			t.Fatal(err)
		}
		out := make(map[int]resizecache.Outcome)
		for {
			var resp wire.Response
			if err := wire.ReadFrame(nc, &resp); err != nil {
				t.Fatal(err)
			}
			switch {
			case resp.ID != id:
				t.Fatalf("frame for request %d while awaiting %d", resp.ID, id)
			case resp.Kind == wire.KindDone:
				return out
			case resp.Kind != wire.KindResult || resp.Err != "":
				t.Fatalf("plan %d: %+v", id, resp)
			}
			var o resizecache.Outcome
			if err := json.Unmarshal(resp.Outcome, &o); err != nil {
				t.Fatal(err)
			}
			o.Stats = runner.Stats{} // cold vs warm runner activity
			out[resp.Index] = o
		}
	}
	want := plan(1, current)
	got := plan(2, oldShape)
	if len(want) != len(fields) {
		t.Fatalf("current-shape plan streamed %d results, want %d", len(want), len(fields))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("old-shape plan outcomes differ:\n got %+v\nwant %+v", got, want)
	}
}
