// Package determinism protects the repo's bit-identity contract: a
// simulation must produce the same Result whether it runs alone, inside
// a larger gang, or resumed from a persisted store — the golden-fixture
// oracle and the gang member-independence tests all depend on it, and
// so does every content-addressed memo hit. The analyzer forbids the
// three stdlib constructs that silently break it inside the simulation
// packages:
//
//   - wall-clock reads (time.Now / time.Since / time.Until);
//   - the global math/rand generators (any use of math/rand or
//     math/rand/v2 — the workload layer has its own seeded xorshift);
//   - ranging over a map, whose iteration order differs run to run.
//
// A map range that is provably order-insensitive (e.g. the keys are
// collected and sorted before use) is annotated `//simlint:ordered
// <why>`; any finding can be suppressed with `//simlint:allow <why>`.
// The driver applies this analyzer to the deterministic core —
// internal/{sim,cpu,cache,core,workload,runner} — not to reporting or
// benchmarking layers, where wall-clock time is legitimate.
package determinism

import (
	"go/ast"
	"go/types"

	"resizecache/internal/analysis"
)

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads, global math/rand, and map-order-dependent iteration in the deterministic simulation core",
	Run:  run,
}

// forbiddenTimeFuncs are the wall-clock entry points; the rest of
// package time (Duration arithmetic, formatting constants) is fine.
var forbiddenTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Pkg.Files {
		directives := analysis.LineDirectives(pass.Pkg, file)
		suppressed := func(pos ast.Node, verbs ...string) bool {
			line := pass.Pkg.Fset.Position(pos.Pos()).Line
			for _, v := range verbs {
				if directives[line][v] {
					return true
				}
			}
			return false
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := pass.Pkg.TypesInfo.Uses[n]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch obj.Pkg().Path() {
				case "time":
					if fn, ok := obj.(*types.Func); ok && forbiddenTimeFuncs[fn.Name()] && !suppressed(n, "allow") {
						pass.Reportf(n.Pos(),
							"time.%s reads the wall clock: simulation output must be a pure function of the config (suppress with //simlint:allow <why>)",
							fn.Name())
					}
				case "math/rand", "math/rand/v2":
					if !suppressed(n, "allow") {
						pass.Reportf(n.Pos(),
							"use of %s.%s: the simulation core must use its own seeded generators (internal/workload's xorshift), not math/rand",
							obj.Pkg().Name(), obj.Name())
					}
				}
			case *ast.RangeStmt:
				t := pass.Pkg.TypesInfo.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap && !suppressed(n, "ordered", "allow") {
					pass.Reportf(n.Pos(),
						"map iteration order is nondeterministic: iterate a sorted slice, or annotate //simlint:ordered <why> if the consumer is order-insensitive")
				}
			}
			return true
		})
	}
	return nil
}
