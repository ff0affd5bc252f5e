package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// depAPIRule (dep-api) flags internal uses of Deprecated:-marked module
// symbols, so migrations finish — the old symbol deleted — instead of
// fossilizing. Uses inside the deprecated declarations themselves are
// exempt (a wrapper must keep compiling until it is deleted).
type depAPIRule struct{}

func (depAPIRule) ID() string { return "dep-api" }
func (depAPIRule) Doc() string {
	return "no internal callers of Deprecated:-marked symbols"
}

// Check is unused; dep-api is a module rule.
func (depAPIRule) Check(*Package) []Finding { return nil }

func (r depAPIRule) CheckModule(m *Module) []Finding {
	var out []Finding
	if len(m.deprecated) == 0 {
		return nil
	}
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			out = append(out, r.checkFile(m, pkg, file)...)
		}
	}
	return out
}

func (r depAPIRule) checkFile(m *Module, pkg *Package, file *ast.File) []Finding {
	// Identifiers inside deprecated declarations are exempt.
	exempt := make(map[*ast.Ident]bool)
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok && m.deprecated[fn] {
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					exempt[id] = true
				}
				return true
			})
		}
	}

	var out []Finding
	handled := make(map[*ast.Ident]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			id := calleeIdent(v.Fun)
			if id == nil || exempt[id] {
				return true
			}
			fn, ok := pkg.Info.Uses[id].(*types.Func)
			if !ok || !m.deprecated[fn] {
				return true
			}
			handled[id] = true
			out = append(out, Finding{
				Pos:  pkg.Fset.Position(v.Pos()),
				Rule: "dep-api",
				Msg:  fmt.Sprintf("call to deprecated %s", qualifiedName(fn)),
			})
		case *ast.Ident:
			if exempt[v] || handled[v] {
				return true
			}
			obj := pkg.Info.Uses[v]
			if obj == nil || !m.deprecated[obj] {
				return true
			}
			handled[v] = true
			out = append(out, Finding{
				Pos:  pkg.Fset.Position(v.Pos()),
				Rule: "dep-api",
				Msg:  fmt.Sprintf("use of deprecated %s", qualifiedName(obj)),
			})
		}
		return true
	})
	return out
}

// calleeIdent returns the terminal identifier of a call target (the
// method/function name ident), or nil for dynamic calls.
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch v := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return v
	case *ast.SelectorExpr:
		return v.Sel
	}
	return nil
}

// qualifiedName renders "sim.Run" for diagnostics.
func qualifiedName(obj types.Object) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}
