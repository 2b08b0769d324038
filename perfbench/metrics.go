package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// spanMetrics derives the runner counters and the store, facade and
// wire layer metrics of a traced run. Store and wire metrics come from
// the workload's own spans; a workload that never touches a layer
// reports the layer pass's probe of it instead.
func spanMetrics(spans []span, passes []passResult) map[string]summary {
	m := map[string]summary{}
	var runs, dedups, computes []float64
	var simulated, hits, ganged, batches, whits, wsaves float64
	var storeBytes []float64
	for _, p := range passes {
		s := p.stats
		runs = append(runs, float64(s.Runs))
		dedups = append(dedups, float64(s.InFlightDedups))
		computes = append(computes, float64(s.ArtifactComputes))
		simulated += float64(s.Runs)
		hits += float64(s.Hits())
		ganged += float64(s.Ganged)
		batches += float64(s.GangBatches)
		whits += float64(s.WarmupHits)
		wsaves += float64(s.WarmupSaves)
		if p.storeBytes > 0 {
			storeBytes = append(storeBytes, float64(p.storeBytes))
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["runner.runs"] = summarize(runs, "count")
	m["runner.dedups"] = summarize(dedups, "count")
	m["runner.artifact_computes"] = summarize(computes, "count")
	m["runner.hit_ratio"] = exact(ratio(hits, hits+simulated), "ratio")
	m["runner.gang_avg"] = exact(ratio(ganged, batches), "count")
	m["runner.warmup_hit_ratio"] = exact(ratio(whits, whits+wsaves), "ratio")
	if len(storeBytes) > 0 {
		m["runner.store_bytes"] = summarize(storeBytes, "bytes")
	}

	// byName picks the workload's spans of the given names, falling back
	// to the layer pass's probe spans.
	byName := func(names ...string) []span {
		var own, probe []span
		for _, s := range spans {
			for _, n := range names {
				if s.Name == n {
					if s.Probe {
						probe = append(probe, s)
					} else {
						own = append(own, s)
					}
				}
			}
		}
		if len(own) > 0 {
			return own
		}
		return probe
	}
	durs := func(ss []span, unit time.Duration) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = float64(s.dur()) / float64(unit)
		}
		return out
	}
	pct := func(ss []span, unit time.Duration, q float64, name string) summary {
		s := summarize(durs(ss, unit), name)
		s.Value = quantile(durs(ss, unit), q)
		return s
	}
	m["runner.store_open_ms"] = summarize(durs(byName("store.open"), time.Millisecond), "ms")
	lookups := byName("store.lookup")
	m["runner.store_lookup_us_p50"] = pct(lookups, time.Microsecond, 0.5, "us")
	m["runner.store_lookup_us_p90"] = pct(lookups, time.Microsecond, 0.9, "us")
	m["runner.store_record_us_p50"] = summarize(durs(byName("store.record"), time.Microsecond), "us")
	m["runner.store_artifact_us_p50"] = summarize(durs(byName("store.lookup_artifact", "store.record_artifact"), time.Microsecond), "us")
	m["runner.store_flush_ms"] = summarize(durs(byName("store.flush"), time.Millisecond), "ms")
	m["resizecache.expand_ms"] = summarize(durs(byName("facade.expand"), time.Millisecond), "ms")
	m["resizecache.run_self_ms"] = summarize(facadeSelfMS(spans), "ms")

	writes := byName("conn.write_frame")
	m["simd.write_us_p50"] = summarize(durs(writes, time.Microsecond), "us")
	m["client.ping_us_p50"] = summarize(durs(byName("client.ping"), time.Microsecond), "us")
	var wireBytes float64
	for _, s := range append(byName("conn.read"), writes...) {
		wireBytes += float64(s.Bytes)
	}
	reqs := byName("facade.simulate", "client.ping")
	m["wire.bytes_per_request"] = exact(ratio(wireBytes, float64(len(reqs))), "bytes")
	return m
}

// facadeSelfMS returns, per traced pass, the summed self time of its
// facade calls: each call's span minus the part of it covered by its
// child store spans.
func facadeSelfMS(spans []span) []float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "store.") {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	perPass := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Probe || (s.Name != "facade.run" && s.Name != "facade.flush" && s.Name != "facade.simulate") {
			continue
		}
		perPass[s.Parent] += s.dur() - covered(s, children[s.ID])
	}
	var out []float64
	for _, k := range slices.Sorted(maps.Keys(perPass)) {
		out = append(out, float64(perPass[k])/float64(time.Millisecond))
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, end int64
	end = parent.Start
	for _, k := range kids {
		s, e := max(k.Start, end), min(k.End, parent.End)
		if e > s {
			total += e - s
			end = e
		}
	}
	return time.Duration(total)
}

// compare prints, per workload and metric, the median over the result
// files in oldDir against those in newDir, judged against the bounds in
// BENCHMARK.json. Results from different hosts are compared, but the
// verdicts are marked advisory.
func compare(w io.Writer, oldDir, newDir string) error {
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("compare needs BENCHMARK.json in the working directory: %w", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return err
	}
	load := func(dir string) (map[string][]report, map[string]bool, error) {
		files, err := filepath.Glob(filepath.Join(dir, "result-*-trace0.json"))
		if err != nil {
			return nil, nil, err
		}
		out, hosts := map[string][]report{}, map[string]bool{}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return nil, nil, err
			}
			var r report
			if err := json.Unmarshal(data, &r); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", f, err)
			}
			out[r.Workload] = append(out[r.Workload], r)
			hosts[r.Provenance.host()] = true
		}
		if len(out) == 0 {
			return nil, nil, fmt.Errorf("no untraced result files in %s", dir)
		}
		return out, hosts, nil
	}
	old, oldHosts, err := load(oldDir)
	if err != nil {
		return err
	}
	cur, newHosts, err := load(newDir)
	if err != nil {
		return err
	}
	advisory := len(oldHosts) != 1 || len(newHosts) != 1
	for h := range oldHosts {
		advisory = advisory || !newHosts[h]
	}
	if advisory {
		fmt.Fprintln(w, "# ADVISORY: results come from different hosts; differences are not evidence of a regression")
	}
	median := func(rs []report, name string) float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, r.Metrics[name].Value)
		}
		return quantile(xs, 0.5)
	}
	for _, wl := range workloadNames {
		if len(old[wl]) == 0 || len(cur[wl]) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			a, b := median(old[wl], m.Name), median(cur[wl], m.Name)
			change := 0.0
			if a != 0 {
				change = (b - a) / a
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "within bound"
			switch {
			case worse > m.Bound:
				verdict = "WORSE than bound"
			case worse < -m.Bound:
				verdict = "better than bound"
			}
			if advisory {
				verdict += " (advisory)"
			}
			fmt.Fprintf(w, "%-14s %-16s old=%-12.6g new=%-12.6g change=%+7.2f%% bound=%.0f%% runs=%d/%d %s\n",
				wl, m.Name, a, b, 100*change, 100*m.Bound, len(old[wl]), len(cur[wl]), verdict)
		}
	}
	return nil
}
