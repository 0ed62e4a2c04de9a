package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// funcKey identifies a function across packages: the canonical *types.Func
// from the defining package (call sites resolve to the same object because
// every module package is type-checked from one shared identity space).
type funcKey = *types.Func

// funcSummary is the transitive effect summary of one module function, used
// to check calls made while latches are held without inlining the callee.
type funcSummary struct {
	name     string
	acquires map[*LatchClass]bool // annotated classes possibly acquired inside
	// acquiresUnannotated: locks some shared (field or package-level) mutex
	// that carries no //asset:latch annotation — opaque to the order check,
	// so forbidden under a spin latch.
	acquiresUnannotated bool
	blocks              bool // may perform a blocking op (channel, I/O, sleep)
	callees             map[funcKey]bool
}

// callInfo is the classification of one call expression.
type callInfo struct {
	lockOp   string   // "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock" ("" if not a locker method)
	recvExpr ast.Expr // the mutex/latch operand of a locker method
	class    *LatchClass
	shared   bool // mutex operand is a struct field or package-level var
	condWait bool // sync.Cond.Wait — sanctioned parking, never a violation
	callee   funcKey
	inModule bool
	blocking bool // known-blocking stdlib call
	isPanic  bool
}

// classifyCall decides what a call expression means to the latch checkers.
func (r *Runner) classifyCall(p *Package, call *ast.CallExpr) callInfo {
	var ci callInfo
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return ci // conversion, not a call
	}
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.Info.Uses[fun]
		if b, ok := obj.(*types.Builtin); ok {
			ci.isPanic = b.Name() == "panic"
			return ci
		}
	case *ast.SelectorExpr:
		obj = p.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ci // function value, closure, or unresolvable
	}
	fn = fn.Origin() // a generic method's summary is its declaration's
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ci
	}
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if lockableType(rt) && isLockerMethod(fn.Name()) {
			ci.lockOp = fn.Name()
			if se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				ci.recvExpr = se.X
				ci.class, ci.shared = r.resolveLatchExpr(p, se.X)
			}
			return ci
		}
		if named, ok := rt.(*types.Named); ok && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Cond" && fn.Name() == "Wait" {
			ci.condWait = true
			return ci
		}
	}
	ci.callee = fn
	ci.inModule = fn.Pkg() != nil &&
		(fn.Pkg().Path() == r.Mod.Path || strings.HasPrefix(fn.Pkg().Path(), r.Mod.Path+"/"))
	if !ci.inModule {
		ci.blocking = isBlockingStdlib(fn)
	}
	return ci
}

func isLockerMethod(name string) bool {
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
		return true
	}
	return false
}

// resolveLatchExpr maps the operand of a locker method to its latch class
// (nil when unannotated) and whether it is shared state (a struct field or
// package-level variable, as opposed to a local).
func (r *Runner) resolveLatchExpr(p *Package, e ast.Expr) (*LatchClass, bool) {
	switch v := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[v]; ok && sel.Kind() == types.FieldVal {
			fv, _ := sel.Obj().(*types.Var)
			return r.latches.classOf(fv), true
		}
		// Package-qualified variable (pkg.mu).
		if obj, ok := p.Info.Uses[v.Sel].(*types.Var); ok {
			return r.latches.classOf(obj), isPackageLevel(obj)
		}
	case *ast.Ident:
		if obj, ok := p.Info.Uses[v].(*types.Var); ok {
			return r.latches.classOf(obj), isPackageLevel(obj)
		}
	}
	return nil, false
}

func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isBlockingStdlib reports whether a standard-library call is forbidden
// while a spin latch is held: I/O, sleeping, and rendezvous primitives.
func isBlockingStdlib(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "time":
		return fn.Name() == "Sleep"
	case "os", "io", "net", "bufio", "os/exec", "net/http":
		return true
	case "fmt":
		n := fn.Name()
		return strings.HasPrefix(n, "Print") || strings.HasPrefix(n, "Fprint") ||
			strings.HasPrefix(n, "Scan") || strings.HasPrefix(n, "Fscan") || strings.HasPrefix(n, "Sscan")
	case "log":
		return true
	case "sync":
		// WaitGroup.Wait blocks; Cond.Wait was classified earlier (allowed).
		return fn.Name() == "Wait"
	}
	return false
}

// buildSummaries computes the transitive effect summary of every function
// declared in the given packages: a direct-facts pass per function, then a
// fixed point over the static call graph. Function literals launched as
// goroutines or passed as callbacks are excluded — they run on other stacks
// or at unknowable points, and charging them to the enclosing function would
// drown the checkers in false positives.
func buildSummaries(r *Runner, pkgs []*Package) map[funcKey]*funcSummary {
	sums := make(map[funcKey]*funcSummary)
	for _, p := range pkgs {
		p := p
		eachFunc(p, func(decl *ast.FuncDecl) {
			fn, ok := p.Info.Defs[decl.Name].(*types.Func)
			if !ok {
				return
			}
			s := &funcSummary{
				name:     fn.FullName(),
				acquires: make(map[*LatchClass]bool),
				callees:  make(map[funcKey]bool),
			}
			collectDirectFacts(r, p, decl.Body, s)
			sums[fn] = s
		})
	}
	// Fixed point: propagate callee effects until stable.
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			for callee := range s.callees {
				cs := sums[callee]
				if cs == nil {
					continue
				}
				for c := range cs.acquires {
					if !s.acquires[c] {
						s.acquires[c] = true
						changed = true
					}
				}
				if cs.acquiresUnannotated && !s.acquiresUnannotated {
					s.acquiresUnannotated = true
					changed = true
				}
				if cs.blocks && !s.blocks {
					s.blocks = true
					changed = true
				}
			}
		}
	}
	return sums
}

// collectDirectFacts records the locks, blocking operations, and resolvable
// module callees that appear directly in body (function literals and
// goroutine launches excluded).
func collectDirectFacts(r *Runner, p *Package, body *ast.BlockStmt, s *funcSummary) {
	// An Unlock appearing before a Lock of the same operand is the xxxLocked
	// unlock/relock pattern: the relock restores the caller's hold and must
	// not count as an acquisition of this function.
	unlocked := make(map[string]int)
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			s.blocks = true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				s.blocks = true
			}
		case *ast.SelectStmt:
			if !selectHasDefault(v) {
				s.blocks = true
			}
		case *ast.RangeStmt:
			if isChanType(p, v.X) {
				s.blocks = true
			}
		case *ast.CallExpr:
			ci := r.classifyCall(p, v)
			key := ""
			if ci.recvExpr != nil {
				key = types.ExprString(ci.recvExpr)
			}
			switch {
			case ci.lockOp == "Unlock" || ci.lockOp == "RUnlock":
				unlocked[key]++
			case ci.lockOp == "Lock" || ci.lockOp == "RLock":
				if unlocked[key] > 0 {
					unlocked[key]--
					break
				}
				if ci.class != nil {
					s.acquires[ci.class] = true
				} else if ci.shared {
					s.acquiresUnannotated = true
				}
			case ci.blocking:
				s.blocks = true
			case ci.callee != nil:
				// Stdlib callees have no summary and drop out of the fixed
				// point; analyzed callees (module and fixture) propagate.
				s.callees[ci.callee] = true
			}
		}
		return true
	})
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func isChanType(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
