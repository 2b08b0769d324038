package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"resizecache/internal/cpu"
	"resizecache/internal/stats"
	"resizecache/internal/workload"
)

// Interval-sampled execution (SMARTS-style): instead of simulating every
// instruction through the timing and energy models, a sampled run
// alternates short *detailed* windows (full timing + energy, via the
// engines' RunWindow) with long *fast-forward* windows that advance only
// the architectural warm state — the workload stream, the branch
// predictor/BTB/RAS, and the cache tag arrays (cache.Level.Warm) — with
// no timing arithmetic and no energy accounting. Detailed-window
// measurements are then scaled to whole-run estimates, with per-metric
// standard-error bars computed over the per-window samples
// (Result.Sample). The cycle and energy estimates are stratified: the
// first detailed window — which measures the one-off cold-cache
// transient — counts once, and only the steady-state windows
// extrapolate (see windowAccum).
//
// An optional warmup prefix advances only the front-end (not the caches),
// so its end state is a pure function of the config's front-end
// projection; that is what makes warmup checkpoints shareable across
// every configuration with the same FrontKey, and what keeps
// checkpoint-resumed runs bit-identical to cold runs: the caches start
// cold at the first detailed window either way.

// SamplingSpec configures interval-sampled execution. The zero value
// disables sampling (every instruction runs in detail); an enabled spec
// sets both window lengths. A partial spec — exactly one window length,
// or only a warmup — is rejected by Run.
type SamplingSpec struct {
	// WarmupInstructions is the functional prefix executed before the
	// first detailed window: predictors train, caches stay cold. Its end
	// state is checkpointed under WarmKey when a CheckpointStore is
	// provided.
	WarmupInstructions uint64
	// DetailedInstructions is the length of each measured window.
	DetailedInstructions uint64
	// FastForwardInstructions is the length of the functional warming
	// window that immediately precedes each measured window after the
	// first.
	FastForwardInstructions uint64
	// SkipInstructions, when non-zero, widens the gap between windows:
	// after each measured window the stream position jumps by this many
	// instructions (workload.Generator.Skip — O(1) per gap, nothing is
	// generated or warmed) before the fast-forward warming runs. Skipping
	// trades a little warm-state staleness — repaired by the following
	// fast-forward window — for speedup that scales with the gap, where
	// pure fast-forwarding is bounded by event-generation cost.
	SkipInstructions uint64
}

// Enabled reports whether the spec describes a sampled run.
func (s SamplingSpec) Enabled() bool {
	return s.DetailedInstructions > 0 && s.FastForwardInstructions > 0
}

// DefaultSampling is the recommended schedule for benchmark-scale runs
// (hundreds of thousands of instructions and up): 5K-instruction
// measured windows each preceded by 10K instructions of functional
// warming, a 45K-instruction skip per period, and a 10K-instruction
// checkpointable warmup prefix. On the suite's workloads this lands
// whole-run EDP estimates within a few percent of fully detailed runs
// at a 3-5x speedup (BenchmarkSimSampled tracks the ratio). Runs far
// below ~200K instructions should shrink or zero SkipInstructions
// instead, or too few windows remain for useful error bars.
func DefaultSampling() SamplingSpec {
	return SamplingSpec{
		WarmupInstructions:      10_000,
		DetailedInstructions:    5_000,
		FastForwardInstructions: 10_000,
		SkipInstructions:        45_000,
	}
}

// SampleReport describes how a sampled Result was measured. Relative
// standard errors are the standard error of the per-window mean divided
// by the mean — multiply by a z-score for a confidence interval on any
// quantity extrapolated from the corresponding per-window metric.
type SampleReport struct {
	// Windows is the number of detailed windows measured.
	Windows int
	// WarmupInstructions is what the warmup prefix consumed.
	WarmupInstructions uint64
	// DetailedInstructions is the total measured in detail.
	DetailedInstructions uint64
	// TotalInstructions is the whole run the estimates represent
	// (warmup + detailed + fast-forwarded).
	TotalInstructions uint64
	// Scale is TotalInstructions / DetailedInstructions — the factor
	// applied to instruction-proportional event counters. Cycles and
	// energy use the stratified first-window estimator instead (see the
	// package comment), so their effective factors are lower when the
	// first window is cold.
	Scale float64
	// CPIRelStdErr bounds time estimates (cycles), EPIRelStdErr energy
	// estimates, and EDPRelStdErr their product, all relative to the
	// estimate; they are computed over the steady-state windows (2..n).
	// Zero when fewer than three windows were measured — under two
	// steady windows there is no variance information.
	CPIRelStdErr float64
	EPIRelStdErr float64
	EDPRelStdErr float64
}

// WarmupStats reports, out of band of the Result (so memoized results
// stay bit-identical regardless of checkpoint state), what the warmup
// prefix did with the checkpoint store.
type WarmupStats struct {
	// CheckpointHit: the warmup prefix was restored from the store.
	CheckpointHit bool
	// CheckpointSaved: the warmup prefix was computed and recorded.
	CheckpointSaved bool
}

// CheckpointStore persists warmup checkpoints across runs and processes.
// runner.Store satisfies it; payloads are valid JSON, honouring the
// artifact contract of that interface.
type CheckpointStore interface {
	LookupArtifact(k Key) ([]byte, bool)
	RecordArtifact(k Key, data []byte)
}

// checkpointFormatVersion tags the serialized warmup-checkpoint payload.
// Bump it whenever the warm-state wire format changes — any field change
// in workload.Snapshot, cpu.FrontEndState, or the bpred state structs,
// or in the sealed envelope — so stale checkpoints miss instead of
// restoring skewed state (see CONTRIBUTING.md). Version 2 seals the
// payload with a digest.
const checkpointFormatVersion = 2

// checkpointPayload is the serialized post-warmup state: the workload
// generator position and the front-end warm state. Deliberately no cache
// state — the payload must be valid for every config sharing a FrontKey,
// and cache contents are geometry-dependent.
type checkpointPayload struct {
	Version  int               `json:"version"`
	Consumed uint64            `json:"consumed"` // instructions the prefix consumed
	Gen      workload.Snapshot `json:"gen"`
	Front    cpu.FrontEndState `json:"front"`
}

// WarmKey is the content-addressed checkpoint key: the front-end
// fingerprint (which covers the sampling spec, hence the warmup length)
// plus the checkpoint format version. Every config that can gang with
// this one shares its warmup checkpoint.
func (c Config) WarmKey() Key {
	return NewKeyBuilder("sim.warmup").
		RawKey(c.FrontKey()).
		U64(checkpointFormatVersion).
		Sum()
}

// A checkpoint is stored sealed: the JSON object
//
//	{"sum":"<hex SHA-256 of WarmKey and body>","body":<payload>}
//
// laid out byte for byte as sealCheckpoint writes it (stores return
// artifacts verbatim), so opening it costs one hash and the payload's
// own decode. A restored checkpoint is state the run trusts — an altered
// but in-range RNG word or predictor counter would silently change the
// result — so a payload whose digest does not match is a miss, like any
// undecodable one; the key in the digest also rejects a checkpoint filed
// under another config's key.
const (
	sealPrefix = `{"sum":"`
	sealInfix  = `","body":`
	sealHeader = len(sealPrefix) + 2*sha256.Size + len(sealInfix)
)

func checkpointSum(key Key, body []byte) string {
	h := sha256.New()
	h.Write(key[:])
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// sealCheckpoint encodes p for storage under key.
func sealCheckpoint(key Key, p checkpointPayload) ([]byte, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, sealHeader+len(body)+1)
	out = append(out, sealPrefix...)
	out = append(out, checkpointSum(key, body)...)
	out = append(out, sealInfix...)
	out = append(out, body...)
	return append(out, '}'), nil
}

// unsealCheckpoint returns the payload of a checkpoint sealed for key.
func unsealCheckpoint(key Key, data []byte) ([]byte, error) {
	if len(data) <= sealHeader || string(data[:len(sealPrefix)]) != sealPrefix ||
		string(data[sealHeader-len(sealInfix):sealHeader]) != sealInfix || data[len(data)-1] != '}' {
		return nil, fmt.Errorf("sim: not a sealed checkpoint")
	}
	body := data[sealHeader : len(data)-1]
	if string(data[len(sealPrefix):sealHeader-len(sealInfix)]) != checkpointSum(key, body) {
		return nil, fmt.Errorf("sim: checkpoint digest mismatch")
	}
	return body, nil
}

// openCheckpoint decodes the checkpoint stored under key for a warmup
// of want instructions. Anything but a payload sealed for key, in this
// format version, whose prefix is exactly what the generator consumed
// and no longer than the warmup, is an error.
func openCheckpoint(key Key, want uint64, data []byte) (checkpointPayload, error) {
	var p checkpointPayload
	body, err := unsealCheckpoint(key, data)
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(body, &p); err != nil {
		return p, err
	}
	switch {
	case p.Version != checkpointFormatVersion:
		return p, fmt.Errorf("sim: checkpoint format version %d, want %d", p.Version, checkpointFormatVersion)
	case p.Consumed != p.Gen.Instr || p.Consumed > want:
		return p, fmt.Errorf("sim: checkpoint prefix of %d instructions (generator at %d) does not fit a %d-instruction warmup", p.Consumed, p.Gen.Instr, want)
	}
	return p, nil
}

// warmupWithCheckpoint runs the warmup prefix: on a store hit it
// restores the generator and front-end instead of stepping them; on a
// miss it computes the warm state and records it. Any stored payload
// that fails to open or to restore falls back to a cold warmup (and is
// overwritten), so a corrupt store can never fail or alter a run.
// Returns the instructions the prefix consumed.
func warmupWithCheckpoint(cfg Config, eng gangEngine, gen *workload.Generator, cs CheckpointStore, ws *WarmupStats) uint64 {
	want := cfg.Sampling.WarmupInstructions
	if want == 0 {
		return 0
	}
	key := cfg.WarmKey()
	if cs != nil {
		if data, ok := cs.LookupArtifact(key); ok {
			if p, err := openCheckpoint(key, want, data); err == nil && restoreCheckpoint(eng, gen, p) == nil {
				ws.CheckpointHit = true
				return p.Consumed
			}
		}
	}
	n := eng.WarmupFrontEnd(gen, want)
	if cs != nil {
		front, err := eng.SnapshotFrontEnd()
		if err == nil {
			data, err := sealCheckpoint(key, checkpointPayload{
				Version:  checkpointFormatVersion,
				Consumed: n,
				Gen:      gen.Snapshot(),
				Front:    front,
			})
			if err == nil {
				cs.RecordArtifact(key, data)
				ws.CheckpointSaved = true
			}
		}
	}
	return n
}

// restoreCheckpoint loads p into the engine's front-end and the
// generator or, when either rejects its half, leaves both as they were
// (Generator.Restore checks before it writes; a front-end restore that
// fails part-way is rolled back), so the cold warmup that follows
// starts from a clean slate.
func restoreCheckpoint(eng gangEngine, gen *workload.Generator, p checkpointPayload) error {
	cold, err := eng.SnapshotFrontEnd()
	if err != nil {
		return err
	}
	if err = eng.RestoreFrontEnd(p.Front); err == nil {
		if err = gen.Restore(p.Gen); err == nil {
			return nil
		}
	}
	return errors.Join(err, eng.RestoreFrontEnd(cold))
}

// integrateTo accrues every level's background energy up to cycle now, so
// a subsequent energyPJ read includes idle energy through that cycle.
func (m *machine) integrateTo(now uint64) {
	m.dc.c.IntegrateIdleTo(now)
	m.ic.c.IntegrateIdleTo(now)
	for _, b := range m.shared {
		b.c.IntegrateIdleTo(now)
	}
}

// energyPJ sums the memory system's accumulated energy: switching plus
// background through the last integrateTo cycle. (Memories have no
// clocked idle energy, so no integration step for them.)
func (m *machine) energyPJ() float64 {
	pj := m.dc.c.EnergyPJ() + m.ic.c.EnergyPJ()
	for _, b := range m.shared {
		pj += b.c.EnergyPJ()
	}
	for _, mem := range m.mems {
		pj += mem.EnergyPJ()
	}
	return pj
}

// windowAccum accumulates one machine's detailed windows: the summed
// cpu.Result, the chained clock base, and the per-window CPI/EPI samples
// the estimator and its error bars derive from.
//
// The first detailed window is special: the warmup prefix warms only the
// front-end, so window 1 runs against cold caches and measures the
// one-off cache warmup transient — which the full run also pays exactly
// once. The estimator therefore treats window 1 as its own stratum,
// counted once and never extrapolated, and extrapolates only the
// steady-state windows (2..n, whose caches the fast-forward warming
// keeps representative) over the rest of the run. Extrapolating the
// cold window like the others would multiply the transient by the scale
// factor and overestimate small runs severely.
type windowAccum struct {
	m      *machine
	agg    cpu.Result
	base   uint64
	prevPJ float64
	cpi    []float64
	epi    []float64

	// Window 1 (the cold-start stratum), recorded at the first observe.
	firstInstr  uint64
	firstCycles uint64
	firstPJ     float64
}

// observe folds one detailed window's result in. Window energy is the
// machine's energy delta (after integrating background energy to the
// window's end cycle) plus the core energy of the window's activity. A
// detailed run's single window is only aggregated: it is the result.
func (w *windowAccum) observe(cfg Config, r cpu.Result) {
	if cfg.Sampling.Enabled() {
		winCycles := r.Cycles - w.base
		w.m.integrateTo(r.Cycles)
		nowPJ := w.m.energyPJ()
		winPJ := nowPJ - w.prevPJ + cfg.Core.CorePJ(r.Activity, r.Instructions, winCycles)
		w.prevPJ = nowPJ
		instr := float64(r.Instructions)
		w.cpi = append(w.cpi, float64(winCycles)/instr)
		w.epi = append(w.epi, winPJ/instr)
		if len(w.cpi) == 1 {
			w.firstInstr = r.Instructions
			w.firstCycles = winCycles
			w.firstPJ = winPJ
		}
	}
	w.agg.Instructions += r.Instructions
	w.agg.Activity.Add(r.Activity)
	w.agg.Cycles = r.Cycles // absolute end of the latest window
	w.agg.BranchAccuracy = r.BranchAccuracy
	w.base = r.Cycles
}

// finish scales the detailed aggregate to a whole-run estimate of total
// instructions and attaches the SampleReport; a detailed run's aggregate
// needs no scaling and gets no report.
//
// Cycles and energy use the stratified estimator described on
// windowAccum: window 1's measurement counts once, the steady windows'
// mean CPI/EPI extrapolates over everything else. Event counters (cache
// accesses, activity events) are instruction-proportional and scale
// uniformly by total/detailed.
func (w *windowAccum) finish(cfg Config, total, warmup uint64) (Result, error) {
	if !cfg.Sampling.Enabled() {
		return w.m.finish(cfg, w.agg), nil
	}
	if w.agg.Instructions == 0 {
		return Result{}, fmt.Errorf("sim: %s: no detailed instructions measured (stream exhausted before the first window)", cfg.Benchmark)
	}
	full := w.m.finish(cfg, w.agg)
	detCycles := float64(w.agg.Cycles) // windows chain, so this is Σ window cycles
	detPJ := full.Energy.TotalPJ()
	countScale := float64(total) / float64(w.agg.Instructions)

	var cyclesEst, pjEst, cpiSE, epiSE float64
	if len(w.cpi) >= 2 {
		rest := float64(total - w.firstInstr)
		cyclesEst = float64(w.firstCycles) + rest*mean(w.cpi[1:])
		pjEst = w.firstPJ + rest*mean(w.epi[1:])
		// Error bars cover the extrapolated stratum; applying them to the
		// whole estimate (which includes the exactly-measured window 1) is
		// slightly conservative.
		cpiSE = relStdErr(w.cpi[1:])
		epiSE = relStdErr(w.epi[1:])
	} else {
		cyclesEst = detCycles * countScale
		pjEst = detPJ * countScale
	}

	res := scaleResult(full, countScale, pjEst/detPJ)
	res.CPU.Cycles = uint64(cyclesEst + 0.5)
	res.CPU.Instructions = total
	res.EDP = stats.EDP{EnergyJ: res.Energy.TotalJ(), Cycles: res.CPU.Cycles}
	res.Sample = &SampleReport{
		Windows:              len(w.cpi),
		WarmupInstructions:   warmup,
		DetailedInstructions: w.agg.Instructions,
		TotalInstructions:    total,
		Scale:                countScale,
		CPIRelStdErr:         cpiSE,
		EPIRelStdErr:         epiSE,
		EDPRelStdErr:         math.Sqrt(cpiSE*cpiSE + epiSE*epiSE),
	}
	return res, nil
}

// mean of a non-empty sample slice.
func mean(samples []float64) float64 {
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// scaleCount rounds v*s half-up.
func scaleCount(v uint64, s float64) uint64 { return uint64(float64(v)*s + 0.5) }

// scaleCacheReport scales the extensive counters by counts and the
// energies by energy; ratios, capacities, and the resize trace are
// intensive and pass through.
func scaleCacheReport(c CacheReport, counts, energy float64) CacheReport {
	c.Accesses = scaleCount(c.Accesses, counts)
	c.Resizes = scaleCount(c.Resizes, counts)
	c.FlushedBlocks = scaleCount(c.FlushedBlocks, counts)
	c.EnergyPJ *= energy
	c.SwitchingPJ *= energy
	c.BackgroundPJ *= energy
	return c
}

// scaleResult extrapolates a detailed-window aggregate to the whole run:
// event counts scale by counts, energies by energy (the stratified
// estimate's ratio), intensive quantities (ratios, averages, accuracies)
// pass through. Cycles, EDP, and Instructions are set by the caller.
func scaleResult(r Result, counts, energy float64) Result {
	r.CPU.Activity = r.CPU.Activity.Scaled(counts)
	r.Energy.CorePJ *= energy
	r.Energy.L1IPJ *= energy
	r.Energy.L1DPJ *= energy
	r.Energy.L2PJ *= energy
	r.Energy.MemPJ *= energy
	r.DCache = scaleCacheReport(r.DCache, counts, energy)
	r.ICache = scaleCacheReport(r.ICache, counts, energy)
	for i := range r.Levels {
		r.Levels[i].CacheReport = scaleCacheReport(r.Levels[i].CacheReport, counts, energy)
	}
	return r
}

// relStdErr returns the standard error of the mean relative to the mean,
// using the sample standard deviation. Under two samples there is no
// variance information; callers see zero and Windows==1.
func relStdErr(samples []float64) float64 {
	n := len(samples)
	if n < 2 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(n)
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	se := math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n))
	return se / mean
}
