package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// rpcsymmetry: the wire registry's two rules that no test can stand in
// for. The server's dispatch, the client's encoders and the opNames table
// are each pinned by tests that exercise every op (DESIGN.md §15); what
// is left is what a test cannot see:
//
//   - every exported Op* constant is exercised by the rpc package's tests,
//     by name or via an exhaustive `opMax` loop (a missing test is not a
//     failing one),
//   - every exported Err* sentinel in the core package appears in the rpc
//     package's Sentinels table, with no duplicates and at most 63
//     entries (the wire bitmask is a uint64 with bit 0 reserved). A new
//     sentinel with no row loses its identity on the wire, and
//     TestSentinelTableStable pins only the rows that exist.
//
// The checker runs only when the analyzed packages include an rpc-style
// package (one declaring type Op and var Sentinels), so fixture runs and
// partial loads are unaffected.

// rpcsymmetry runs the registry checks over the analyzed packages.
func (r *Runner) rpcsymmetry() {
	if !r.enabled("rpcsymmetry") {
		return
	}
	rpcPkg := findRPCPackage(r.packages)
	if rpcPkg == nil {
		return
	}
	ops := collectOps(rpcPkg)
	if len(ops) == 0 {
		return
	}
	r.checkOpTests(rpcPkg, ops)
	r.checkSentinels(rpcPkg)
}

// findRPCPackage locates the package declaring the wire registry.
func findRPCPackage(pkgs []*Package) *Package {
	for _, p := range pkgs {
		if p.Fixture && !strings.Contains(p.Path, "rpcsym") {
			continue
		}
		scope := p.Pkg.Scope()
		if tn, ok := scope.Lookup("Op").(*types.TypeName); ok && tn != nil && scope.Lookup("Sentinels") != nil {
			return p
		}
	}
	return nil
}

// collectOps gathers the exported Op* constants of the rpc package's Op
// type (opMax, the unexported bound, is excluded by the prefix rule).
func collectOps(p *Package) []*types.Const {
	var ops []*types.Const
	scope := p.Pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !strings.HasPrefix(name, "Op") || !c.Exported() {
			continue
		}
		if named, ok := c.Type().(*types.Named); ok && named.Obj().Name() == "Op" {
			ops = append(ops, c)
		}
	}
	return ops
}

// checkOpTests requires round-trip codec coverage: the rpc package's own
// _test.go files must reference each op by name, or range exhaustively
// via opMax. Test files are outside the type-checked load, so this is a
// parse-level scan of the package directory.
func (r *Runner) checkOpTests(p *Package, ops []*types.Const) {
	entries, err := os.ReadDir(p.Dir)
	if err != nil {
		r.report(p.Files[0].Pos(), "rpcsymmetry", "cannot scan %s for test files: %v", p.Dir, err)
		return
	}
	idents := make(map[string]bool)
	sawTests := false
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		sawTests = true
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				idents[id.Name] = true
			}
			return true
		})
	}
	if !sawTests {
		r.report(p.Files[0].Pos(), "rpcsymmetry", "rpc package has no _test.go round-trip coverage")
		return
	}
	if idents["opMax"] {
		return // an exhaustive loop over the op range covers every op
	}
	for _, op := range ops {
		if !idents[op.Name()] {
			r.report(op.Pos(), "rpcsymmetry", "%s has no round-trip coverage in the rpc package tests", op.Name())
		}
	}
}

// checkSentinels requires every exported Err* error variable of the core
// package to be registered in the Sentinels table, the table to be
// duplicate-free, and its length to fit the wire bitmask.
func (r *Runner) checkSentinels(rpcPkg *Package) {
	lit := findVarLiteral(rpcPkg, "Sentinels")
	if lit == nil {
		r.report(rpcPkg.Files[0].Pos(), "rpcsymmetry", "cannot find the Sentinels composite literal")
		return
	}
	registered := make(map[types.Object]bool)
	for _, el := range lit.Elts {
		obj := exprObject(rpcPkg, el)
		if obj == nil {
			r.report(el.Pos(), "rpcsymmetry", "Sentinels entry is not a resolvable error variable")
			continue
		}
		if registered[obj] {
			r.report(el.Pos(), "rpcsymmetry", "duplicate Sentinels entry %s (bit positions are wire ABI)", obj.Name())
		}
		registered[obj] = true
	}
	if len(lit.Elts) > 63 {
		r.report(lit.Pos(), "rpcsymmetry",
			"Sentinels has %d entries; the wire bitmask holds at most 63 (uint64 with bit 0 reserved)", len(lit.Elts))
	}
	for _, p := range r.packages {
		if p.Pkg.Name() != "core" {
			continue
		}
		if p.Fixture != rpcPkg.Fixture {
			continue // fixture rpc registries pair with fixture core packages
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			v, ok := scope.Lookup(name).(*types.Var)
			if !ok || !strings.HasPrefix(name, "Err") || !v.Exported() {
				continue
			}
			if !isErrorTypeT(v.Type()) {
				continue
			}
			if !registered[v] && !registeredByName(registered, name) {
				r.report(v.Pos(), "rpcsymmetry",
					"core.%s crosses the wire without a Sentinels entry (clients would lose its identity)", name)
			}
		}
	}
}

// registeredByName covers re-exported sentinels: core.ErrDeadlock is
// lock.ErrDeadlock by assignment, so the Sentinels element resolves to
// either object; name equality bridges the aliasing.
func registeredByName(registered map[types.Object]bool, name string) bool {
	for obj := range registered {
		if obj.Name() == name {
			return true
		}
	}
	return false
}

// findVarLiteral returns the composite literal initializing a package
// variable of the given name.
func findVarLiteral(p *Package, name string) *ast.CompositeLit {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					if id.Name != name || i >= len(vs.Values) {
						continue
					}
					if cl, ok := ast.Unparen(vs.Values[i]).(*ast.CompositeLit); ok {
						return cl
					}
				}
			}
		}
	}
	return nil
}

// exprObject resolves an identifier or selector expression to its object.
func exprObject(p *Package, e ast.Expr) types.Object {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return p.Info.Uses[v]
	case *ast.SelectorExpr:
		return p.Info.Uses[v.Sel]
	}
	return nil
}
