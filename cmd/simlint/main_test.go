package main

import (
	"testing"

	"resizecache/internal/analysis"
)

func newLoader(t *testing.T) *analysis.Loader {
	t.Helper()
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	return l
}

func TestResolvePatternsAll(t *testing.T) {
	l := newLoader(t)
	pkgs, err := resolvePatterns(l, nil)
	if err != nil {
		t.Fatalf("resolvePatterns: %v", err)
	}
	want := map[string]bool{
		"resizecache/internal/sim": true,
		"resizecache/cmd/simlint":  true,
	}
	for _, p := range pkgs {
		delete(want, p)
	}
	for missing := range want {
		t.Errorf("./... did not resolve %s", missing)
	}
}

func TestResolvePatternsDir(t *testing.T) {
	l := newLoader(t)
	pkgs, err := resolvePatterns(l, []string{"../../internal/sim"})
	if err != nil {
		t.Fatalf("resolvePatterns: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0] != "resizecache/internal/sim" {
		t.Fatalf("got %v, want exactly [resizecache/internal/sim]", pkgs)
	}
}

func TestResolvePatternsSubtree(t *testing.T) {
	l := newLoader(t)
	pkgs, err := resolvePatterns(l, []string{"../../internal/analysis/..."})
	if err != nil {
		t.Fatalf("resolvePatterns: %v", err)
	}
	seen := map[string]bool{}
	for _, p := range pkgs {
		seen[p] = true
		if p == "resizecache/internal/sim" {
			t.Errorf("subtree pattern leaked %s", p)
		}
	}
	for _, want := range []string{
		"resizecache/internal/analysis",
		"resizecache/internal/analysis/keycomplete",
	} {
		if !seen[want] {
			t.Errorf("subtree pattern missed %s (got %v)", want, pkgs)
		}
	}
}

func TestResolvePatternsOutsideModule(t *testing.T) {
	l := newLoader(t)
	if _, err := resolvePatterns(l, []string{"/tmp"}); err == nil {
		t.Fatal("path outside the module resolved without error")
	}
}

func TestDeterminismScope(t *testing.T) {
	l := newLoader(t)
	if !inDeterminismScope(l, "resizecache/internal/sim") {
		t.Error("internal/sim must be in the determinism scope")
	}
	if inDeterminismScope(l, "resizecache/internal/prof") {
		t.Error("prof may read the clock; it must not be in scope")
	}
	if inDeterminismScope(l, "resizecache/figures") {
		t.Error("figures may read the clock; it must not be in scope")
	}
}
