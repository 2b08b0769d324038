package main

import (
	"context"
	"path/filepath"
	"testing"

	"resizecache"
)

func TestScenarioFromFlags(t *testing.T) {
	sc, err := scenarioFromFlags("gcc", "hybrid", "dynamic", "d", "inorder", "big-l2",
		"ways", false, true, 4, 8, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	want := resizecache.Scenario{
		Benchmark:    "gcc",
		Organization: resizecache.Hybrid,
		Strategy:     resizecache.Dynamic,
		Sides:        resizecache.DOnly,
		Assoc:        4,
		Hierarchy:    resizecache.BigL2,
		L2:           resizecache.L2Spec{Organization: resizecache.SelectiveWays, Strategy: resizecache.Dynamic, Assoc: 8},
		InOrder:      true,
		Instructions: 500_000,
	}
	if sc != want {
		t.Errorf("scenario = %+v, want %+v", sc, want)
	}

	// -org none with -l2org resizes the L2 alone: the CLI passes the
	// scenario through untouched and the facade folds it to L2Only.
	sc, err = scenarioFromFlags("gcc", "none", "static", "both", "ooo", "base",
		"sets", true, false, 2, 0, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Organization != resizecache.NonResizable || sc.L2.Organization != resizecache.SelectiveSets {
		t.Errorf("L2-only spelling wrong: %+v", sc)
	}
	if _, err := resizecache.PlanOf(sc); err != nil {
		t.Errorf("facade rejected the L2-only spelling: %v", err)
	}

	bad := []struct{ name, org, strategy, sides, engine, hier, l2org string }{
		{"bad org", "diagonal", "static", "both", "ooo", "base", "none"},
		{"bad strategy", "sets", "psychic", "both", "ooo", "base", "none"},
		{"bad sides", "sets", "static", "sideways", "ooo", "base", "none"},
		{"bad engine", "sets", "static", "both", "quantum", "base", "none"},
		{"bad hierarchy", "sets", "static", "both", "ooo", "l9", "none"},
		{"bad l2 org", "sets", "static", "both", "ooo", "base", "spirals"},
	}
	for _, c := range bad {
		if _, err := scenarioFromFlags("gcc", c.org, c.strategy, c.sides, c.engine, c.hier,
			c.l2org, false, false, 2, 0, 1000); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// L2 strategy flags without an L2 organization, or both at once.
	if _, err := scenarioFromFlags("gcc", "sets", "static", "both", "ooo", "base",
		"none", true, false, 2, 0, 1000); err == nil {
		t.Error("-l2static without -l2org accepted")
	}
	if _, err := scenarioFromFlags("gcc", "sets", "static", "both", "ooo", "base",
		"ways", true, true, 2, 0, 1000); err == nil {
		t.Error("-l2static with -l2dynamic accepted")
	}
}

func TestParsersAcceptStringForms(t *testing.T) {
	// The tool's own printed spellings must round-trip through the flags.
	for in, want := range map[string]resizecache.Hierarchy{
		"512K-l2": resizecache.BaseL2, "256K-l2": resizecache.SmallL2,
		"1M-l2": resizecache.BigL2, "no-l2": resizecache.NoL2, "l2+l3": resizecache.DeepL2L3,
	} {
		got, err := parseHierarchy(in)
		if err != nil || got != want {
			t.Errorf("parseHierarchy(%q) = %v, %v", in, got, err)
		}
	}
	for in, want := range map[string]resizecache.Sides{
		"d-cache": resizecache.DOnly, "i-cache": resizecache.IOnly,
		"l2-cache": resizecache.L2Only, "d+i-caches": resizecache.BothSides,
	} {
		got, err := parseSides(in)
		if err != nil || got != want {
			t.Errorf("parseSides(%q) = %v, %v", in, got, err)
		}
	}
}

// TestFlushFailureExitsNonZero: a store that cannot be written (here
// its directory is missing) must fail the process, not just print.
func TestFlushFailureExitsNonZero(t *testing.T) {
	session, err := resizecache.NewSessionWith(resizecache.SessionOptions{
		StorePath: filepath.Join(t.TempDir(), "missing", "s.json")})
	if err != nil {
		t.Fatal(err)
	}
	if code := flush(session); code != 0 {
		t.Fatalf("flushing a clean store exited %d, want 0", code)
	}
	// Record one cheap artifact so the flush has something to write.
	plan, err := resizecache.PlanOf(resizecache.Scenario{Benchmark: "gcc",
		Organization: resizecache.SelectiveSets})
	if err != nil {
		t.Fatal(err)
	}
	var out int
	if err := session.Artifact(context.Background(), "flush-test", 1, plan, &out,
		func(context.Context) (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if code := flush(session); code != 1 {
		t.Errorf("failed flush exited %d, want 1", code)
	}
}
