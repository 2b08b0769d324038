// Command simlint runs the repo's custom static-analysis suite — the
// four analyzers under internal/analysis that prove the invariants the
// paper's claims rest on:
//
//	keycomplete  every exported field reachable from sim.Config is
//	             written into the Key() fingerprint, and the field set
//	             is pinned to keyVersion (no silent memo aliasing);
//	hotalloc     //simlint:hotpath functions, and everything they
//	             statically call across the module, contain no
//	             allocating constructs (PR 5's zero-alloc hot path,
//	             proven instead of sampled);
//	determinism  no wall-clock reads, global math/rand, or map-order
//	             iteration inside the deterministic simulation core
//	             (the gang/golden bit-identity contract);
//	ctxflow      Enqueue wait funcs are consumed and context threads
//	             through every sweep entry point.
//
// Usage:
//
//	go run ./cmd/simlint ./...          # whole module (what CI runs)
//	go run ./cmd/simlint ./internal/sim # specific package directories
//	go run ./cmd/simlint -only hotalloc,determinism ./...
//
// simlint exits 1 when any analyzer reports a finding and 2 on driver
// errors. It is a standalone driver rather than a `go vet -vettool`
// because the vettool protocol needs golang.org/x/tools/go/analysis,
// which this repo's hermetic build environment cannot fetch; the
// analysis framework (internal/analysis) reimplements the x/tools API
// shape on the standard library instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"resizecache/internal/analysis"
	"resizecache/internal/analysis/ctxflow"
	"resizecache/internal/analysis/determinism"
	"resizecache/internal/analysis/hotalloc"
	"resizecache/internal/analysis/keycomplete"
)

// determinismScope lists the deterministic simulation core: the
// packages whose output must be a pure function of the config. The
// reporting/profiling layers (prof, figures, cmds) may legitimately
// read the clock and are excluded.
var determinismScope = map[string]bool{
	"internal/sim":      true,
	"internal/cpu":      true,
	"internal/cache":    true,
	"internal/core":     true,
	"internal/workload": true,
	"internal/runner":   true,
	// The substrates the core packages embed share the same contract.
	"internal/bpred":    true,
	"internal/geometry": true,
	"internal/energy":   true,
	"internal/stats":    true,
	// The daemon fabric: frames, handlers, and the client mux must not
	// inject wall-clock or iteration-order nondeterminism between a
	// plan's submission and its bit-identical remote results.
	"internal/simd":        true,
	"internal/simd/wire":   true,
	"internal/simd/client": true,
	// The chaos harness must be as deterministic as the code it breaks:
	// a scripted fault schedule that drifted with the clock or math/rand
	// would make chaos failures unreproducible.
	"internal/simd/faultnet": true,
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	verbose := flag.Bool("v", false, "log every package as it is checked")
	flag.Parse()

	all := []*analysis.Analyzer{keycomplete.Analyzer, hotalloc.Analyzer, determinism.Analyzer, ctxflow.Analyzer}
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	selected := all
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fatalf("unknown analyzer %q (use -list)", name)
			}
			selected = append(selected, a)
		}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fatalf("%v", err)
	}
	paths, err := resolvePatterns(loader, flag.Args())
	if err != nil {
		fatalf("%v", err)
	}

	failed := 0
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fatalf("load %s: %v", path, err)
		}
		if len(pkg.TypeErrors) > 0 {
			for _, e := range pkg.TypeErrors {
				fmt.Fprintln(os.Stderr, e)
			}
			fatalf("%s does not type-check; fix the build before linting", path)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "simlint: %s\n", path)
		}
		for _, a := range selected {
			if a == determinism.Analyzer && !inDeterminismScope(loader, path) {
				continue
			}
			diags, err := analysis.Run(a, pkg, loader.Load)
			if err != nil {
				fatalf("%v", err)
			}
			for _, d := range diags {
				fmt.Println(rel(loader, d))
				failed++
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", failed)
		os.Exit(1)
	}
}

// resolvePatterns expands the package patterns: no args or "./..."
// means every package in the module; other args are directories
// relative to the working directory.
func resolvePatterns(l *analysis.Loader, args []string) ([]string, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, arg := range args {
		if arg == "./..." || arg == "all" {
			pkgs, err := l.ModulePackages()
			if err != nil {
				return nil, err
			}
			for _, p := range pkgs {
				add(p)
			}
			continue
		}
		abs, err := filepath.Abs(strings.TrimSuffix(arg, "/..."))
		if err != nil {
			return nil, err
		}
		relDir, err := filepath.Rel(l.ModuleRoot(), abs)
		if err != nil || strings.HasPrefix(relDir, "..") {
			return nil, fmt.Errorf("package %q is outside module %s", arg, l.ModulePath())
		}
		if strings.HasSuffix(arg, "/...") {
			pkgs, err := l.ModulePackages()
			if err != nil {
				return nil, err
			}
			prefix := l.ModulePath()
			if relDir != "." {
				prefix = l.ModulePath() + "/" + filepath.ToSlash(relDir)
			}
			for _, p := range pkgs {
				if p == prefix || strings.HasPrefix(p, prefix+"/") {
					add(p)
				}
			}
			continue
		}
		if relDir == "." {
			add(l.ModulePath())
		} else {
			add(l.ModulePath() + "/" + filepath.ToSlash(relDir))
		}
	}
	sort.Strings(out)
	return out, nil
}

func inDeterminismScope(l *analysis.Loader, path string) bool {
	rel := strings.TrimPrefix(path, l.ModulePath()+"/")
	return determinismScope[rel]
}

// rel renders a diagnostic with the filename relative to the module
// root, matching compiler output style.
func rel(l *analysis.Loader, d analysis.Diagnostic) string {
	if r, err := filepath.Rel(l.ModuleRoot(), d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
		d.Pos.Filename = r
	}
	return d.String()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "simlint: "+format+"\n", args...)
	os.Exit(2)
}
