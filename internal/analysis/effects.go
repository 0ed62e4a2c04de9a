package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// effects is the transitive effect summary the goroleak and forceorder
// checkers consult: unlike funcSummary (which deliberately excludes
// function literals, since charging a queued closure's locks to its
// enclosing function would drown the latch checkers in false positives),
// effects descend into literals — a termination signal raised inside a
// sync.Once.Do closure is still the caller's synchronous effect. Spawned
// goroutine bodies stay excluded: work on another stack is nobody's
// synchronous effect.
type effects struct {
	// wgDone: calls (*sync.WaitGroup).Done, directly or transitively.
	wgDone bool
	// chanSig: sends on or closes a channel — the body signals completion.
	chanSig bool
	// ctxRecv: blocks on a termination signal (a receive whose channel is
	// a Done() call or a done/stop/term/quit/close/ctx-named channel).
	ctxRecv bool
	// forces: issues a durable force — a call to a method or function
	// named Sync, SyncDir, Force, or Flush (may-force: name-based so
	// interface and external callees count).
	forces  bool
	callees map[funcKey]bool
}

// forceName reports whether a callee name counts as a durable force for
// the forceorder checker's force-debt dataflow.
func forceName(name string) bool {
	switch name {
	case "Sync", "SyncDir", "Force", "Flush":
		return true
	}
	return false
}

// buildEffects computes effect summaries for every declared function:
// direct facts (descending into function literals), then a fixed point
// over the static call graph.
func buildEffects(r *Runner, pkgs []*Package) map[funcKey]*effects {
	sums := make(map[funcKey]*effects)
	for _, p := range pkgs {
		p := p
		eachFunc(p, func(decl *ast.FuncDecl) {
			fn, ok := p.Info.Defs[decl.Name].(*types.Func)
			if !ok {
				return
			}
			e := &effects{callees: make(map[funcKey]bool)}
			collectEffectFacts(r, p, decl.Body, e)
			sums[fn] = e
		})
	}
	for changed := true; changed; {
		changed = false
		for _, e := range sums {
			for callee := range e.callees {
				ce := sums[callee]
				if ce == nil {
					continue
				}
				if ce.wgDone && !e.wgDone {
					e.wgDone = true
					changed = true
				}
				if ce.chanSig && !e.chanSig {
					e.chanSig = true
					changed = true
				}
				if ce.ctxRecv && !e.ctxRecv {
					e.ctxRecv = true
					changed = true
				}
				if ce.forces && !e.forces {
					e.forces = true
					changed = true
				}
			}
		}
	}
	return sums
}

// collectEffectFacts records the direct effect facts of body, descending
// into function literals but not spawned goroutine bodies.
func collectEffectFacts(r *Runner, p *Package, body ast.Node, e *effects) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SendStmt:
			e.chanSig = true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW && signalChanExpr(v.X) {
				e.ctxRecv = true
			}
		case *ast.SelectStmt:
			for _, c := range v.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				if ch := recvChan(cc.Comm); ch != nil && signalChanExpr(ch) {
					e.ctxRecv = true
				}
			}
		case *ast.CallExpr:
			recordCallEffects(r, p, v, e)
		}
		return true
	})
}

// recordCallEffects classifies one call for the effect summary.
func recordCallEffects(r *Runner, p *Package, call *ast.CallExpr, e *effects) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := p.Info.Uses[fun].(*types.Builtin); ok {
			if b.Name() == "close" && len(call.Args) == 1 {
				e.chanSig = true
			}
			return
		}
	case *ast.SelectorExpr:
		_ = fun
	}
	fn := calleeFunc(p, call)
	if fn == nil {
		return
	}
	if forceName(fn.Name()) {
		e.forces = true
	}
	if fn.Name() == "Done" && isWaitGroupMethod(fn) {
		e.wgDone = true
	}
	if inModule(r, fn) {
		e.callees[fn] = true
	}
}

// calleeFunc resolves a call expression to its *types.Func, or nil for
// function values, closures, and conversions.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[fun.Sel]
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin() // a generic method's summary is its declaration's
	}
	return nil
}

func inModule(r *Runner, fn *types.Func) bool {
	return fn.Pkg() != nil &&
		(fn.Pkg().Path() == r.Mod.Path || strings.HasPrefix(fn.Pkg().Path(), r.Mod.Path+"/") ||
			strings.HasPrefix(fn.Pkg().Path(), "fixture/"))
}

// isWaitGroupMethod reports whether fn is a method of sync.WaitGroup.
func isWaitGroupMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

// recvChan extracts the channel expression of a receive comm clause
// (`<-ch` or `x := <-ch`), or nil.
func recvChan(comm ast.Stmt) ast.Expr {
	switch s := comm.(type) {
	case *ast.ExprStmt:
		if u, ok := s.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return u.X
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return u.X
			}
		}
	}
	return nil
}

// signalChanExpr reports whether a received-from channel expression looks
// like a termination signal: the result of a Done() call (context.Context
// and friends) or a channel whose name follows the done/stop convention.
// Name-based by design — the ctx join mechanism asserts the goroutine
// parks on a signal the spawner (or its context) controls, and the
// repo-wide convention is what makes that statically visible.
func signalChanExpr(ch ast.Expr) bool {
	ch = ast.Unparen(ch)
	if call, ok := ch.(*ast.CallExpr); ok {
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			return fun.Name == "Done"
		case *ast.SelectorExpr:
			return fun.Sel.Name == "Done"
		}
		return false
	}
	name := strings.ToLower(types.ExprString(ch))
	for _, frag := range []string{"done", "stop", "term", "quit", "close", "ctx"} {
		if strings.Contains(name, frag) {
			return true
		}
	}
	return false
}
