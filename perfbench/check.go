package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"resizecache"
)

// referenceJSON is the recorded outcome table (see record). The model is
// not validated against hardware: the table pins simulated statistics
// bit for bit, so it catches a change in results, not an inaccurate one.
//
//go:embed testdata/reference.json
var referenceJSON []byte

// referenceTable maps workload -> scenario key -> outcome digest.
type referenceTable struct {
	Note      string                       `json:"note"`
	Workloads map[string]map[string]string `json:"workloads"`
}

func loadReference() (referenceTable, error) {
	var t referenceTable
	if err := json.Unmarshal(referenceJSON, &t); err != nil {
		return t, fmt.Errorf("parse embedded reference table: %w", err)
	}
	return t, nil
}

// scenarioKey names a scenario in the reference table.
func scenarioKey(sc resizecache.Scenario) string {
	engine := "ooo"
	if sc.InOrder {
		engine = "inorder"
	}
	k := fmt.Sprintf("%s/%v/%v/a%d/%v/%s/%v/%d", sc.Benchmark, sc.Organization, sc.Strategy,
		sc.Assoc, sc.Sides, engine, sc.Hierarchy, sc.Instructions)
	if sc.L2.Organization != resizecache.NonResizable {
		k += fmt.Sprintf("/l2=%v:%v", sc.L2.Organization, sc.L2.Strategy)
	}
	if sc.Sampling.Enabled() {
		k += fmt.Sprintf("/sampled=%+v", sc.Sampling)
	}
	return k
}

// digest hashes every user-visible result field of an outcome, floats by
// their exact bits. Runner statistics are excluded: they describe how
// the result was obtained, not what it is.
func digest(o resizecache.Outcome) string {
	b := math.Float64bits
	s := fmt.Sprintf("edp=%x slow=%x dred=%x ired=%x l2red=%x d=%q i=%q l2=%q e=%x,%x,%x,%x,%x",
		b(o.EDPReductionPct), b(o.SlowdownPct), b(o.DCacheSizeReductionPct),
		b(o.ICacheSizeReductionPct), b(o.L2SizeReductionPct), o.DChosen, o.IChosen, o.L2Chosen,
		b(o.Energy.CorePct), b(o.Energy.L1IPct), b(o.Energy.L1DPct), b(o.Energy.L2Pct), b(o.Energy.MemPct))
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:12])
}

// checker verifies delivered outcomes against one workload's table.
type checker struct{ want map[string]string }

func newChecker(workload string) (checker, error) {
	t, err := loadReference()
	if err != nil {
		return checker{}, err
	}
	want := t.Workloads[workload]
	if len(want) == 0 {
		return checker{}, fmt.Errorf("reference table has no entries for %s", workload)
	}
	return checker{want: want}, nil
}

// ok reports whether an outcome matches the table; a scenario missing
// from the table is a mismatch.
func (c checker) ok(sc resizecache.Scenario, o resizecache.Outcome) bool {
	d, found := c.want[scenarioKey(sc)]
	return found && d == digest(o)
}

// record simulates every scenario any seed can draw, per workload, in a
// fresh in-process session and writes the digest table to path.
func record(ctx context.Context, path string) error {
	t := referenceTable{
		Note: "Outcome digests (EDP and slowdown, size reductions, chosen configs, energy shares) " +
			"per scenario, recorded by `perfbench record`. The simulator is not validated against " +
			"hardware: these pin simulated results bit for bit, they do not vouch for their accuracy.",
		Workloads: map[string]map[string]string{},
	}
	for _, w := range workloadNames {
		scenarios, err := universe(w)
		if err != nil {
			return err
		}
		plan, err := resizecache.PlanOf(scenarios...)
		if err != nil {
			return err
		}
		results, err := resizecache.Collect(resizecache.NewSession().Run(ctx, plan))
		if err != nil {
			return fmt.Errorf("record %s: %w", w, err)
		}
		m := make(map[string]string, len(results))
		for _, r := range results {
			k := scenarioKey(r.Scenario)
			if _, dup := m[k]; dup {
				return fmt.Errorf("record %s: duplicate scenario key %s", w, k)
			}
			m[k] = digest(r.Outcome)
		}
		t.Workloads[w] = m
		fmt.Fprintf(os.Stderr, "recorded %d %s scenarios\n", len(m), w)
	}
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
