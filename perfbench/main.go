// Command perfbench is the repository benchmark: it runs one workload
// (sweep-cold, serve-sampled or replay-warm) for a fixed time, checks
// every delivered outcome against a recorded reference table, and
// prints the end-to-end metrics, or with --trace 1 the per-layer
// metrics, as the last line of its output. See README.md.
//
//	perfbench --workload sweep-cold --seed 1 --seconds 25 --trace 0
//	perfbench --workload all --seed 1 --seconds 25 --trace 0
//	perfbench record -out testdata/reference.json
//	perfbench compare OLD_DIR NEW_DIR
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"time"
)

// outDir holds result files, traces and workload scratch space, relative
// to the directory the benchmark runs in.
const outDir = ".bench_out"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := dispatch(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
}

func dispatch(ctx context.Context, args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "record":
			fs := flag.NewFlagSet("record", flag.ContinueOnError)
			out := fs.String("out", "testdata/reference.json", "reference table to write")
			if err := fs.Parse(args[1:]); err != nil {
				return err
			}
			return record(ctx, *out)
		case "compare":
			if len(args) != 3 {
				return errors.New("usage: perfbench compare OLD_DIR NEW_DIR")
			}
			return compare(os.Stdout, args[1], args[2])
		case "fixture":
			if len(args) != 3 {
				return errors.New("usage: perfbench fixture PATH APPS")
			}
			apps, err := strconv.Atoi(args[2])
			if err != nil {
				return err
			}
			return buildFixture(ctx, args[1], apps)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "sweep-cold, serve-sampled, replay-warm, or all")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "measuring time per workload")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if *name == "all" {
		return runAll(ctx, *seed, *seconds, *trace)
	}
	rep, err := runWorkload(ctx, *name, *seed, *seconds, *trace == 1, scale{}, hooks{}, childFixture, outDir, os.Stdout)
	if err != nil {
		return err
	}
	return printLast(os.Stdout, rep)
}

// childFixture builds the replay-warm store in a child process, so that
// the simulations it takes do not count toward the workload's memory.
func childFixture(ctx context.Context, path string, apps int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, exe, "fixture", path, strconv.Itoa(apps))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

// report is a run's outcome: the contract's last line plus the detail
// kept in the result file.
type report struct {
	Workload   string             `json:"workload"`
	Trace      bool               `json:"trace"`
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]summary `json:"metrics"`
	// EndToEnd holds the untraced end-to-end metrics of a traced run.
	EndToEnd map[string]summary `json:"end_to_end,omitempty"`
}

// runWorkload measures one workload for seconds and writes its result
// file (and, when traced, its span file) under out.
func runWorkload(ctx context.Context, name string, seed uint64, seconds int, trace bool,
	sc scale, h hooks, fixture fixtureFunc, out string, log io.Writer) (report, error) {
	dir := filepath.Join(out, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	b, err := newBench(ctx, name, seed, sc, dir, h, fixture)
	if err != nil {
		return report{}, err
	}

	minPasses := max(sc.minPasses, 3)
	if trace {
		minPasses = max(sc.minPasses, 4) // at least two traced and two untraced
	}
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	var plain, traced []passResult
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for i := 0; ; i++ {
		if (i >= minPasses && time.Now().After(deadline)) || (sc.maxPasses > 0 && i >= sc.maxPasses) {
			break
		}
		// A traced run pairs each traced pass with an untraced one on the
		// same draw, so their difference is the tracing overhead.
		var ptr *tracer
		draw := i
		if trace {
			draw = i / 2
			if i%2 == 0 {
				ptr = tr
			}
		}
		// Collect the previous pass's garbage and hand its memory back
		// first, so that it neither triggers a collection inside this
		// pass's timed phase nor adds to its memory peak: every pass starts
		// from the same state.
		debug.FreeOSMemory()
		var p passResult
		peak := peakDuring(func() { p, err = b.pass(ctx, i, draw, ptr) })
		p.peakRSS = peak
		if err != nil {
			return report{}, fmt.Errorf("%s pass %d: %w", name, i, err)
		}
		if ptr != nil {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}

	prov := newProvenance(seed, seconds)
	prov.Passes = len(plain) + len(traced)
	rep := report{Workload: name, Trace: trace, Provenance: prov}
	for _, p := range append(append([]passResult(nil), plain...), traced...) {
		rep.Attempted += p.scenarios
		rep.Failed += p.failed
	}
	rep.Correct = rep.Failed == 0
	e2e := endToEnd(plain)
	e2e["failed_frac"] = exact(float64(rep.Failed)/float64(max(rep.Attempted, 1)), "ratio")
	rep.Metrics = e2e
	if trace {
		layers := map[string]summary{}
		if !sc.skipLayers {
			if layers, err = layerPass(ctx, b, tr, dir); err != nil {
				return report{}, fmt.Errorf("%s layer pass: %w", name, err)
			}
		}
		for k, v := range spanMetrics(tr.snapshot(), traced) {
			layers[k] = v
		}
		layers["trace.overhead_ms"] = exact(1e3*(endToEnd(traced)["wall_s"].Value-e2e["wall_s"].Value), "ms")
		rep.Metrics, rep.EndToEnd = layers, e2e
		if err := tr.write(filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", name, seed))); err != nil {
			return report{}, err
		}
	}
	printHuman(log, rep)
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return report{}, err
	}
	resultPath := filepath.Join(out, fmt.Sprintf("result-%s-seed%d-trace%d.json", name, seed, boolInt(trace)))
	return rep, os.WriteFile(resultPath, data, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// endToEnd computes the user-visible metrics over untraced passes.
func endToEnd(passes []passResult) map[string]summary {
	var wall, rate, cpu, setup, lat, rss []float64
	for _, p := range passes {
		rss = append(rss, p.peakRSS)
		wall = append(wall, p.wall.Seconds())
		rate = append(rate, float64(p.scenarios)/p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		for _, d := range p.setups {
			setup = append(setup, d.Seconds())
		}
		lat = append(lat, p.latenciesMS...)
	}
	p90 := summarize(lat, "ms")
	p90.Value = quantile(lat, 0.9)
	m := map[string]summary{
		"wall_s":          summarize(wall, "s"),
		"scenarios_per_s": summarize(rate, "1/s"),
		"cpu_s":           summarize(cpu, "s"),
		"request_p50_ms":  summarize(lat, "ms"),
		"request_p90_ms":  p90,
		"setup_s":         summarize(setup, "s"),
		"peak_rss_mb":     summarize(rss, "MiB"),
	}
	return m
}

func printHuman(w io.Writer, rep report) {
	p := rep.Provenance
	fmt.Fprintf(w, "# %s seed=%d seconds=%d passes=%d trace=%v | cpu=%q nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		rep.Workload, p.Seed, p.Seconds, p.Passes, rep.Trace, p.CPUModel, p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.Commit)
	section := func(title string, m map[string]summary) {
		fmt.Fprintf(w, "# %s\n", title)
		for _, k := range slices.Sorted(maps.Keys(m)) {
			s := m[k]
			fmt.Fprintf(w, "%-34s %14.6g %-9s q1=%-12.6g q3=%-12.6g n=%d\n", k, s.Value, s.Unit, s.Q1, s.Q3, s.N)
		}
	}
	if rep.EndToEnd != nil {
		section("end-to-end (untraced passes)", rep.EndToEnd)
		section("per-layer (traced passes and layer pass)", rep.Metrics)
	} else {
		section("end-to-end", rep.Metrics)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%v\n", rep.Attempted, rep.Failed, rep.Correct)
}

// printLast writes the contract's last line: correctness counts and each
// metric's value and unit. failed_frac is carried by attempted/failed.
func printLast(w io.Writer, rep report) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]metric{}}
	for k, s := range rep.Metrics {
		if k != "failed_frac" {
			out.Metrics[k] = metric{s.Value, s.Unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// runAll runs every workload in its own child process, one after the
// other, and prints their metrics prefixed by workload name.
func runAll(ctx context.Context, seed uint64, seconds, trace int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	all := report{Correct: true, Metrics: map[string]summary{}}
	for _, w := range workloadNames {
		cmd := exec.CommandContext(ctx, exe, "--workload", w, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var last struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]summary
		}
		if len(lines) == 0 || json.Unmarshal(lines[len(lines)-1], &last) != nil {
			return fmt.Errorf("%s: no result line", w)
		}
		all.Correct = all.Correct && last.Correct
		all.Attempted += last.Attempted
		all.Failed += last.Failed
		for k, v := range last.Metrics {
			all.Metrics[w+"."+k] = v
		}
	}
	return printLast(os.Stdout, all)
}
