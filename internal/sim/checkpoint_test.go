package sim

import (
	"encoding/json"
	"testing"
)

// checkpointConfig is a small sampled config whose warmup prefix is
// checkpointed: cheap enough to run once per fuzz input.
func checkpointConfig() Config {
	cfg := Default("gcc")
	cfg.Instructions = 30_000
	cfg.Sampling = SamplingSpec{
		WarmupInstructions:      4_000,
		DetailedInstructions:    2_000,
		FastForwardInstructions: 2_000,
		SkipInstructions:        4_000,
	}
	return cfg
}

// recordedCheckpoint runs cfg against an empty store and returns the
// cold result and the checkpoint the run recorded.
func recordedCheckpoint(t testing.TB, cfg Config) (Result, []byte) {
	t.Helper()
	st := newMapStore()
	res, ws, err := RunWithCheckpoints(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := st.LookupArtifact(cfg.WarmKey())
	if !ok || !ws.CheckpointSaved {
		t.Fatalf("cold run recorded no checkpoint: %+v", ws)
	}
	if !json.Valid(data) {
		t.Fatal("sealed checkpoint is not valid JSON, breaking the store artifact contract")
	}
	return res, data
}

// checkColdFallback stores payload under cfg's WarmKey and requires the
// run to succeed bit-identically to cold without reporting a hit.
func checkColdFallback(t *testing.T, name string, cfg Config, cold Result, payload []byte) {
	t.Helper()
	st := newMapStore()
	st.RecordArtifact(cfg.WarmKey(), payload)
	res, ws, err := RunWithCheckpoints(cfg, st)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if ws.CheckpointHit || !ws.CheckpointSaved {
		t.Errorf("%s: corrupt checkpoint not treated as a miss and overwritten: %+v", name, ws)
	}
	if resultJSON(t, res) != resultJSON(t, cold) {
		t.Errorf("%s: result differs from the cold run", name)
	}
}

// TestCorruptCheckpointFieldsFallBack: a checkpoint whose fields do not
// fit the profile or the warmup — even one correctly sealed, as a buggy
// writer would produce — is a miss: no panic inside a runner worker, no
// failed or altered run. Unsealed tampering with an in-range field is a
// miss too, because an altered RNG word would otherwise silently change
// the result.
func TestCorruptCheckpointFieldsFallBack(t *testing.T) {
	cfg := checkpointConfig()
	cold, data := recordedCheckpoint(t, cfg)
	body, err := unsealCheckpoint(cfg.WarmKey(), data)
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*checkpointPayload){
		"phase out of range": func(p *checkpointPayload) { p.Gen.PhaseIdx = 99 },
		"no data cursors":    func(p *checkpointPayload) { p.Gen.DCursors = []int{} },
		"prefix overrun":     func(p *checkpointPayload) { p.Consumed = 10_000_000 },
		"prefix mismatch":    func(p *checkpointPayload) { p.Consumed-- },
		"btb shape":          func(p *checkpointPayload) { p.Front.BTB.Tags = p.Front.BTB.Tags[1:] },
		"predictor kind":     func(p *checkpointPayload) { p.Front.Predictor.Comp1.Kind = "bimodal" },
	} {
		var p checkpointPayload
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		mutate(&p)
		sealed, err := sealCheckpoint(cfg.WarmKey(), p)
		if err != nil {
			t.Fatal(err)
		}
		checkColdFallback(t, name+" (sealed)", cfg, cold, sealed)
	}

	var p checkpointPayload
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	p.Gen.RNG ^= 1
	altered, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append(append(append([]byte(nil), data[:sealHeader]...), altered...), '}')
	checkColdFallback(t, "rng (unsealed)", cfg, cold, tampered)
	checkColdFallback(t, "torn", cfg, cold, data[:len(data)-1])

	other := cfg
	other.Benchmark = "vpr"
	_, misfiled := recordedCheckpoint(t, other)
	checkColdFallback(t, "sealed for another key", cfg, cold, misfiled)
}

// FuzzWarmupCheckpoint: whatever payload sits under a config's WarmKey,
// the run neither panics nor errors, and its result is bit-identical to
// a run with no checkpoint store: anything but a genuine checkpoint is
// a miss.
func FuzzWarmupCheckpoint(f *testing.F) {
	cfg := checkpointConfig()
	res, err := Run(cfg)
	if err != nil {
		f.Fatal(err)
	}
	coldJSON, err := json.Marshal(res)
	if err != nil {
		f.Fatal(err)
	}
	// The seed corpus (testdata/fuzz/FuzzWarmupCheckpoint) holds small
	// malformed envelopes. A genuine ~40 KB checkpoint is left out: the
	// fuzzer's minimizer stalls on inputs that large, and its exact
	// restore is pinned by TestCheckpointResumeBitIdentical.

	f.Fuzz(func(t *testing.T, payload []byte) {
		st := newMapStore()
		st.RecordArtifact(cfg.WarmKey(), payload)
		res, _, err := RunWithCheckpoints(cfg, st)
		if err != nil {
			t.Fatalf("run failed on a stored checkpoint: %v", err)
		}
		if got := resultJSON(t, res); got != string(coldJSON) {
			t.Fatalf("result differs from the run without a store")
		}
	})
}
