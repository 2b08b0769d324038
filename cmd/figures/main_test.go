package main

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"resizecache"
	"resizecache/figures"
)

func tinyOpts() figures.Options {
	return figures.Options{Instructions: 60_000, Apps: []string{"m88ksim"}}
}

func TestRunTables(t *testing.T) {
	s := resizecache.NewSession()
	if err := run(context.Background(), "table1", s, tinyOpts()); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "table2", s, tinyOpts()); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), "fig99", resizecache.NewSession(), tinyOpts()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunFig5Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	if err := run(context.Background(), "fig5", resizecache.NewSession(), tinyOpts()); err != nil {
		t.Fatal(err)
	}
}

// TestRunSensL2Tiny: the sensitivity studies run through the same
// Executor as every figure.
func TestRunSensL2Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	if err := run(context.Background(), "sens-l2", resizecache.NewSession(), tinyOpts()); err != nil {
		t.Fatal(err)
	}
}

// TestFinishExitCodes: a failed run or a store that cannot be written
// (here its directory is missing) fails the process; a flush failure
// must not be swallowed into exit status 0.
func TestFinishExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "s.json")
	session, err := resizecache.NewSessionWith(resizecache.SessionOptions{StorePath: missing})
	if err != nil {
		t.Fatal(err)
	}
	if code := finish(session, missing, nil); code != 0 {
		t.Fatalf("clean run with nothing to flush exited %d, want 0", code)
	}
	if code := finish(resizecache.NewSession(), "", errors.New("boom")); code != 1 {
		t.Errorf("failed run exited %d, want 1", code)
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
	if code := finish(session, missing, nil); code != 1 {
		t.Errorf("failed flush exited %d, want 1", code)
	}
}
