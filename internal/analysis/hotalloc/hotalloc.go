// Package hotalloc turns PR 5's runtime allocation guards into static
// proof: a function annotated `//simlint:hotpath` in its doc comment —
// cache.Cache.Access, both engines' gang fan-out loops, the
// fast-forward loop, the workload generator's Next — must contain no allocating construct, and
// neither may anything it statically calls, transitively across the
// whole module. Where testing.AllocsPerRun samples one configuration at
// runtime, hotalloc proves the property for every path at build time.
//
// Flagged constructs: make/new, append (may grow), heap composite
// literals (&T{...}, slice and map literals), closures, go/defer, map
// writes, string concatenation and string<->[]byte/[]rune conversions,
// arguments boxed into interface parameters, and calls into standard
// library packages that are not on the proven-alloc-free allowlist.
//
// Boundaries and escape hatches:
//
//   - `//simlint:coldpath <why>` on a callee's doc comment stops the
//     traversal there: the function is an explicitly amortized boundary
//     (a constructor, a per-phase or per-resize refresh) whose
//     allocations are by design not per-access/per-instruction work.
//   - `//simlint:allow <why>` on (or directly above) a construct's line
//     suppresses that single finding — one-time prologue allocations
//     inside an annotated engine loop, amortized trace appends.
//   - Dynamic (interface-method) calls are not traversed; the repo's
//     discipline is that hot implementations of those interfaces carry
//     their own `//simlint:hotpath` annotation (cache.Level.Access
//     implementations, workload.Source.Next implementations).
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"resizecache/internal/analysis"
)

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "functions annotated //simlint:hotpath (and everything they statically call) must be free of allocating constructs",
	Run:  run,
}

// stdAllowlist names stdlib packages whose functions are alloc-free for
// our call patterns (pure arithmetic on machine words).
var stdAllowlist = map[string]bool{
	"math":      true,
	"math/bits": true,
}

// checker carries the traversal state of one package's hotalloc run.
type checker struct {
	pass *analysis.Pass
	// decls/directives per loaded package, grown lazily as the
	// traversal crosses package boundaries.
	decls      map[*analysis.Package]map[*types.Func]*ast.FuncDecl
	directives map[*analysis.Package]map[string]map[int]map[string]bool // by filename
	byTypesPkg map[*types.Package]*analysis.Package
	visited    map[*types.Func]bool
	reported   map[string]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:       pass,
		decls:      make(map[*analysis.Package]map[*types.Func]*ast.FuncDecl),
		directives: make(map[*analysis.Package]map[string]map[int]map[string]bool),
		byTypesPkg: make(map[*types.Package]*analysis.Package),
		visited:    make(map[*types.Func]bool),
		reported:   make(map[string]bool),
	}
	c.register(pass.Pkg)
	for fn, decl := range c.decls[pass.Pkg] {
		if analysis.FuncDirective(decl, "hotpath") {
			c.visit(pass.Pkg, fn, fn.FullName())
		}
	}
	return nil
}

// register indexes one package's declarations and directives.
func (c *checker) register(pkg *analysis.Package) {
	if _, ok := c.decls[pkg]; ok {
		return
	}
	decls := make(map[*types.Func]*ast.FuncDecl)
	dirs := make(map[string]map[int]map[string]bool)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
		dirs[pkg.Fset.Position(f.Pos()).Filename] = analysis.LineDirectives(pkg, f)
	}
	c.decls[pkg] = decls
	c.directives[pkg] = dirs
	c.byTypesPkg[pkg.Types] = pkg
}

// pkgFor resolves the analysis.Package that declares fn, loading it
// through the pass's dep resolver when the traversal leaves the current
// package. Returns nil when it cannot (no resolver, or non-module pkg).
func (c *checker) pkgFor(fn *types.Func) *analysis.Package {
	tp := fn.Pkg()
	if tp == nil {
		return nil
	}
	if p, ok := c.byTypesPkg[tp]; ok {
		return p
	}
	if c.pass.Dep == nil {
		return nil
	}
	p, err := c.pass.Dep(tp.Path())
	if err != nil || p == nil {
		return nil
	}
	c.register(p)
	return p
}

func (c *checker) suppressed(pkg *analysis.Package, n ast.Node) bool {
	pos := pkg.Fset.Position(n.Pos())
	return c.directives[pkg][pos.Filename][pos.Line]["allow"]
}

// reportf deduplicates findings that several hot roots reach through
// shared callees.
func (c *checker) reportf(pkg *analysis.Package, n ast.Node, root, format string, args ...any) {
	if c.suppressed(pkg, n) {
		return
	}
	msg := fmt.Sprintf(format, args...)
	if root != "" {
		msg += fmt.Sprintf(" (on the hot path of %s)", root)
	}
	pos := pkg.Fset.Position(n.Pos())
	key := fmt.Sprintf("%s:%d:%d:%s", pos.Filename, pos.Line, pos.Column, msg)
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.pass.Reportf(n.Pos(), "%s", msg)
}

// visit checks fn's body and recurses into its static callees.
func (c *checker) visit(pkg *analysis.Package, fn *types.Func, root string) {
	if c.visited[fn] {
		return
	}
	c.visited[fn] = true
	decl := c.decls[pkg][fn]
	if decl == nil || decl.Body == nil {
		return
	}
	info := pkg.TypesInfo
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkCall(pkg, n, root)
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.reportf(pkg, n, root, "heap-allocated composite literal")
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					c.reportf(pkg, n, root, "slice literal allocates")
				case *types.Map:
					c.reportf(pkg, n, root, "map literal allocates")
				}
			}
		case *ast.FuncLit:
			c.reportf(pkg, n, root, "closure allocates")
		case *ast.GoStmt:
			c.reportf(pkg, n, root, "go statement allocates a goroutine")
		case *ast.DeferStmt:
			c.reportf(pkg, n, root, "defer in a hot path")
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if t := info.TypeOf(ix.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							c.reportf(pkg, ix, root, "map write may allocate")
						}
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				if t := info.TypeOf(n); t != nil && isString(t) {
					c.reportf(pkg, n, root, "string concatenation allocates")
				}
			}
		}
		return true
	})
}

func (c *checker) checkCall(pkg *analysis.Package, call *ast.CallExpr, root string) {
	info := pkg.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Type conversions: boxing into an interface, or string<->bytes.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		target := tv.Type
		if types.IsInterface(target.Underlying()) && len(call.Args) == 1 {
			if at := info.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at.Underlying()) && !isUntypedNil(info, call.Args[0]) {
				c.reportf(pkg, call, root, "conversion to interface %s boxes its operand", types.TypeString(target, qualBase))
			}
		}
		if len(call.Args) == 1 {
			if at := info.TypeOf(call.Args[0]); at != nil && convAllocates(at, target) {
				c.reportf(pkg, call, root, "conversion %s -> %s copies/allocates",
					types.TypeString(at, qualBase), types.TypeString(target, qualBase))
			}
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.reportf(pkg, call, root, "make allocates")
			case "new":
				c.reportf(pkg, call, root, "new allocates")
			case "append":
				c.reportf(pkg, call, root, "append may grow its backing array")
			}
			return
		}
	}

	callee := calleeFunc(info, call)
	if callee == nil {
		// Dynamic: an interface method or a called function value. Not
		// traversed — hot implementations carry their own annotation.
		return
	}

	// Interface boxing at the call boundary.
	if sig, ok := callee.Type().(*types.Signature); ok {
		c.checkBoxing(pkg, call, sig, root)
	}

	cpkg := callee.Pkg()
	if cpkg == nil {
		return
	}
	if cpkg == pkg.Types || sameModule(pkg.Path, cpkg.Path()) {
		target := c.pkgFor(callee)
		if target == nil {
			c.reportf(pkg, call, root, "cannot verify call to %s (package %s not loadable): annotate it //simlint:coldpath or run under cmd/simlint", callee.Name(), cpkg.Path())
			return
		}
		tdecl := c.decls[target][callee]
		if tdecl == nil {
			c.reportf(pkg, call, root, "cannot verify call to %s: no declaration found", callee.FullName())
			return
		}
		if analysis.FuncDirective(tdecl, "coldpath") {
			return // explicitly amortized boundary
		}
		c.visit(target, callee, root)
		return
	}
	if !stdAllowlist[cpkg.Path()] {
		c.reportf(pkg, call, root, "call into %s is not proven alloc-free: hoist it out of the hot path or annotate //simlint:allow <why>", cpkg.Path())
	}
}

// checkBoxing flags concrete arguments passed to interface parameters.
func (c *checker) checkBoxing(pkg *analysis.Package, call *ast.CallExpr, sig *types.Signature, root string) {
	info := pkg.TypesInfo
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) || isUntypedNil(info, arg) {
			continue
		}
		c.reportf(pkg, arg, root, "argument boxed into interface parameter %s", types.TypeString(pt, qualBase))
	}
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			if sel.Kind() == types.MethodVal {
				if types.IsInterface(sel.Recv().Underlying()) {
					return nil // dynamic dispatch
				}
				if fn, ok := sel.Obj().(*types.Func); ok {
					return fn.Origin()
				}
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin() // package-qualified call
		}
	}
	return nil
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

// convAllocates reports whether a conversion from -> to copies into a
// fresh allocation (string <-> []byte/[]rune).
func convAllocates(from, to types.Type) bool {
	return (isString(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isString(to))
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func sameModule(a, b string) bool {
	seg := func(s string) string {
		if i := strings.Index(s, "/"); i >= 0 {
			return s[:i]
		}
		return s
	}
	return seg(a) == seg(b)
}

func qualBase(p *types.Package) string { return p.Name() }
