package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file is the package-level dataflow layer the v2 rules build on:
// where v1 rules pattern-match single files, a Module sees every
// type-checked package of one Run at once and derives cross-package
// facts — the intra-module call graph, the set of functions reachable
// from kernel entry points, a per-function may-allocate summary, and the
// index of Deprecated:-marked symbols. It stays stdlib-only: the facts
// come from go/types plus a light def-use pass over function bodies.

// FuncInfo is one declared function or method of the analyzed module.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// callees are the module functions this one calls directly, in
	// source order (deduplicated).
	callees []*types.Func
	// mayAlloc reports whether calling this function may allocate: it
	// (or a module function it transitively calls) builds maps, slices,
	// strings, or closures, grows a slice without visible preallocated
	// capacity, or calls outside the audited allocation-free set.
	mayAlloc bool
	// hotRoot marks a kernel entry point: a SimulateBlock method or a
	// function annotated //bplint:hot.
	hotRoot bool
}

// Module is the whole set of packages one Run analyzes, plus the
// cross-package facts rules share. Build it once per run with NewModule.
type Module struct {
	Pkgs []*Package

	funcs map[*types.Func]*FuncInfo
	// hot maps every function reachable from a kernel entry point to the
	// name of the root it is reachable from (for diagnostics).
	hot map[*types.Func]string
	// deprecated indexes module objects whose doc comment carries a
	// "Deprecated:" marker.
	deprecated map[types.Object]bool
}

// NewModule derives the shared analysis facts from the packages.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:       pkgs,
		funcs:      make(map[*types.Func]*FuncInfo),
		hot:        make(map[*types.Func]string),
		deprecated: make(map[types.Object]bool),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			m.indexFile(pkg, file)
		}
	}
	m.buildCallGraph()
	m.propagateMayAlloc()
	m.markHot()
	return m
}

// FuncInfoOf returns the module's record for fn, or nil for functions
// declared outside the analyzed packages.
func (m *Module) FuncInfoOf(fn *types.Func) *FuncInfo { return m.funcs[fn] }

// HotVia returns the kernel entry point fn is reachable from, or ""
// when fn is not on a hot path.
func (m *Module) HotVia(fn *types.Func) string { return m.hot[fn] }

// IsDeprecated reports whether obj's declaration carries a
// "Deprecated:" doc marker.
func (m *Module) IsDeprecated(obj types.Object) bool { return m.deprecated[obj] }

// hotFuncs returns every hot-reachable function that has a body in the
// module, in deterministic source order.
func (m *Module) hotFuncs() []*FuncInfo {
	var out []*FuncInfo
	for fn := range m.hot {
		if fi := m.funcs[fn]; fi != nil && fi.Decl.Body != nil {
			out = append(out, fi)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// indexFile records every declared function and every Deprecated: symbol
// of one file.
func (m *Module) indexFile(pkg *Package, file *ast.File) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &FuncInfo{Fn: fn, Decl: d, Pkg: pkg}
			fi.hotRoot = (d.Name.Name == "SimulateBlock" && d.Recv != nil) || hasHotAnnotation(d.Doc)
			if isDeprecatedDoc(d.Doc) {
				m.deprecated[fn] = true
			}
			m.funcs[fn] = fi
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				doc := d.Doc
				switch s := spec.(type) {
				case *ast.ValueSpec:
					if s.Doc != nil {
						doc = s.Doc
					}
					if isDeprecatedDoc(doc) {
						for _, name := range s.Names {
							if obj := pkg.Info.Defs[name]; obj != nil {
								m.deprecated[obj] = true
							}
						}
					}
				case *ast.TypeSpec:
					if s.Doc != nil {
						doc = s.Doc
					}
					if isDeprecatedDoc(doc) {
						if obj := pkg.Info.Defs[s.Name]; obj != nil {
							m.deprecated[obj] = true
						}
					}
				}
			}
		}
	}
}

// isDeprecatedDoc reports whether a doc comment contains a line starting
// with the conventional "Deprecated:" marker.
func isDeprecatedDoc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "Deprecated:") {
			return true
		}
	}
	return false
}

// hasHotAnnotation reports whether the declaration's doc group carries a
// //bplint:hot marker (optionally followed by free text).
func hasHotAnnotation(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == "//bplint:hot" || strings.HasPrefix(c.Text, "//bplint:hot ") {
			return true
		}
	}
	return false
}

// buildCallGraph fills each FuncInfo's direct module callees, in source
// order.
func (m *Module) buildCallGraph() {
	for _, fi := range m.funcs {
		if fi.Decl.Body == nil {
			continue
		}
		seen := make(map[*types.Func]bool)
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(fi.Pkg, call)
			if callee == nil || seen[callee] {
				return true
			}
			if _, inModule := m.funcs[callee]; inModule {
				seen[callee] = true
				fi.callees = append(fi.callees, callee)
			}
			return true
		})
		sort.Slice(fi.callees, func(i, j int) bool {
			return fi.callees[i].Pos() < fi.callees[j].Pos()
		})
	}
}

// allocFreeStdlib lists the external packages the purity analysis trusts
// not to allocate; calls into anything else outside the module make the
// caller mayAlloc.
var allocFreeStdlib = map[string]bool{
	"math":      true,
	"math/bits": true,
}

// propagateMayAlloc computes the per-function allocation summary: a
// direct pass over each body, then a fixpoint over the call graph
// (callee allocates ⇒ caller allocates).
func (m *Module) propagateMayAlloc() {
	for _, fi := range m.funcs {
		fi.mayAlloc = m.directMayAlloc(fi)
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range m.funcs {
			if fi.mayAlloc {
				continue
			}
			for _, callee := range fi.callees {
				if ci := m.funcs[callee]; ci != nil && ci.mayAlloc {
					fi.mayAlloc = true
					changed = true
					break
				}
			}
		}
	}
}

// directMayAlloc inspects one body for constructs that allocate (or call
// out of the audited set), ignoring transitive module calls — those are
// folded in by the fixpoint.
func (m *Module) directMayAlloc(fi *FuncInfo) bool {
	if fi.Decl.Body == nil {
		return false
	}
	pkg := fi.Pkg
	prealloc := preallocTargets(pkg, fi.Decl.Body)
	alloc := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if alloc {
			return false
		}
		switch v := n.(type) {
		case *ast.CompositeLit:
			if compositeAllocates(pkg, v) {
				alloc = true
			}
		case *ast.FuncLit:
			alloc = true
		case *ast.BinaryExpr:
			// String concatenation builds a new string per evaluation.
			if tv, ok := pkg.Info.Types[v]; ok && isString(tv.Type) {
				alloc = true
			}
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if isMapIndex(pkg, lhs) {
					alloc = true // map inserts may grow the table
				}
			}
		case *ast.CallExpr:
			switch kind, name := classifyCall(pkg, v); kind {
			case callBuiltin:
				switch name {
				case "make", "new":
					alloc = true
				case "append":
					if obj := targetObj(pkg, v.Args[0]); obj == nil || !prealloc[obj] {
						alloc = true
					}
				}
			case callExternal:
				if !allocFreeStdlib[name] {
					alloc = true
				}
			case callDynamic:
				alloc = true // closures / interface methods: unknown behavior
			}
		}
		return !alloc
	})
	return alloc
}

// markHot walks the call graph from the kernel entry points and records
// every reachable module function, attributed to the first root (in
// source order) that reaches it.
func (m *Module) markHot() {
	var roots []*FuncInfo
	for _, fi := range m.funcs {
		if fi.hotRoot {
			roots = append(roots, fi)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Decl.Pos() < roots[j].Decl.Pos() })
	for _, root := range roots {
		name := funcDisplayName(root)
		queue := []*types.Func{root.Fn}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			if _, done := m.hot[fn]; done {
				continue
			}
			m.hot[fn] = name
			if fi := m.funcs[fn]; fi != nil {
				queue = append(queue, fi.callees...)
			}
		}
	}
}

// funcDisplayName renders "Type.Method" or "Func" for diagnostics.
func funcDisplayName(fi *FuncInfo) string {
	if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) == 1 {
		t := fi.Decl.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fi.Decl.Name.Name
		}
	}
	return fi.Decl.Name.Name
}

// callKind classifies a call expression for the allocation analysis.
type callKind int

const (
	callModule   callKind = iota // a function declared in the module
	callBuiltin                  // append/make/len/...
	callExternal                 // resolved function outside the module
	callDynamic                  // function value, closure, or interface method
	callConv                     // type conversion
)

// classifyCall resolves a call to its kind plus an identifying name:
// the builtin name, the external package path, or "".
func classifyCall(pkg *Package, call *ast.CallExpr) (callKind, string) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := pkg.Info.Uses[id]; obj != nil && obj == types.Universe.Lookup(id.Name) {
			return callBuiltin, id.Name
		}
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return callConv, ""
	}
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return callDynamic, ""
	}
	if fn.Pkg() == nil {
		return callBuiltin, fn.Name() // unsafe etc.
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			return callDynamic, ""
		}
	}
	return classifyResolved(pkg, fn)
}

// classifyResolved distinguishes module functions from external ones.
func classifyResolved(pkg *Package, fn *types.Func) (callKind, string) {
	path := fn.Pkg().Path()
	// A function is "in the module" when its package was loaded from
	// source with the same module prefix as the analyzed packages. The
	// module path is the prefix shared by every analyzed package.
	if samePathPrefix(pkg.Path, path) {
		return callModule, path
	}
	return callExternal, path
}

// samePathPrefix reports whether a and b share the same leading path
// segment (the module path root).
func samePathPrefix(a, b string) bool {
	as, _, _ := strings.Cut(a, "/")
	bs, _, _ := strings.Cut(b, "/")
	return as == bs
}

// preallocTargets collects the objects (locals or fields) that the
// function visibly prepares for allocation-free appends: targets of a
// three-argument make or of an x = x[:0] reslice.
func preallocTargets(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i, lhs := range asg.Lhs {
			obj := targetObj(pkg, lhs)
			if obj == nil {
				continue
			}
			switch rhs := ast.Unparen(asg.Rhs[i]).(type) {
			case *ast.CallExpr:
				if id, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok && id.Name == "make" &&
					pkg.Info.Uses[id] == types.Universe.Lookup("make") && len(rhs.Args) == 3 {
					out[obj] = true
				}
			case *ast.SliceExpr:
				// x = x[:0] (or x[:0:n]): capacity retained, appends reuse it.
				if targetObj(pkg, rhs.X) == obj && rhs.Low == nil && isZeroLit(rhs.High) {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isZeroLit reports whether e is the literal 0.
func isZeroLit(e ast.Expr) bool {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && bl.Value == "0"
}

// targetObj resolves an lvalue-ish expression to the object of its
// terminal name: the variable for x, the field for x.f or p.x.f.
func targetObj(pkg *Package, e ast.Expr) types.Object {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return objectOf(pkg, v)
	case *ast.SelectorExpr:
		return objectOf(pkg, v.Sel)
	case *ast.StarExpr:
		return targetObj(pkg, v.X)
	}
	return nil
}

// isMapIndex reports whether e indexes a map.
func isMapIndex(pkg *Package, e ast.Expr) bool {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	tv, ok := pkg.Info.Types[ix.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// compositeAllocates reports whether a composite literal heap-allocates:
// slice and map literals always do; struct and array literals only when
// their address is what the program keeps (handled at the & site by the
// purity rule, not here).
func compositeAllocates(pkg *Package, lit *ast.CompositeLit) bool {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return true // conservative
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
