package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// forceorder: mechanizes the decide-before-release / seal-before-publish
// durability rules (DESIGN.md §11/§14). A function annotated
//
//	//asset:durable before=<event>[,<event>...]
//
// promises that on every path, each direct call to a named event — the
// point where a verdict, ack, or manifest becomes visible to others —
// is dominated by a durable force: a call to Sync/SyncDir/Force/Flush,
// directly or through a module callee whose transitive effect summary
// may force (a may-force model: the checker errs toward trusting
// callees, like the rest of the analyzer).
//
// Events match direct calls only. That is deliberate: an abort path
// calling abortLocked — which transitively releases locks — owes no
// force, while the success path's own ReleaseAll does. The annotation
// names exactly the publication calls the function itself makes.
//
// Goroutine literals launched inside an annotated function are analyzed
// inline at the spawn point: a force dominating the spawn dominates the
// body (the coordinator's verdict-delivery goroutines are the motivating
// case — decide() forces the decision log before they exist).

var durableRe = regexp.MustCompile(`^//\s*asset:durable\b(.*)$`)

// durableAnnot is one annotated function: the events whose direct calls
// must be force-dominated.
type durableAnnot struct {
	events map[string]bool
}

// forceorder checks every annotated function declaration in the package.
func (r *Runner) forceorder(p *Package) {
	if !r.enabled("forceorder") {
		return
	}
	eachFunc(p, func(decl *ast.FuncDecl) {
		a := r.durableAnnotOf(p, decl)
		if a == nil {
			return
		}
		w := &forceWalker{r: r, p: p, annot: a, fn: decl.Name.Name}
		w.stmts(decl.Body.List, false)
	})
}

// durableAnnotOf parses the //asset:durable annotation from a function's
// doc comment, reporting malformed ones.
func (r *Runner) durableAnnotOf(p *Package, decl *ast.FuncDecl) *durableAnnot {
	if decl.Doc == nil {
		return nil
	}
	for _, c := range decl.Doc.List {
		m := durableRe.FindStringSubmatch(c.Text)
		if m == nil {
			continue
		}
		rest := strings.TrimSpace(m[1])
		const prefix = "before="
		if !strings.HasPrefix(rest, prefix) {
			r.report(c.Pos(), "forceorder", "bad //asset:durable annotation: missing before=<event>[,<event>...]")
			return nil
		}
		a := &durableAnnot{events: make(map[string]bool)}
		for _, ev := range strings.Split(rest[len(prefix):], ",") {
			ev = strings.TrimSpace(ev)
			if ev == "" {
				r.report(c.Pos(), "forceorder", "bad //asset:durable annotation: empty event name")
				return nil
			}
			a.events[ev] = true
		}
		return a
	}
	return nil
}

// forceWalker runs the force-debt dataflow over one annotated function:
// `forced` is true when every execution reaching the current point has
// passed a durable force. Fork points (if/switch/select) merge with AND;
// terminating branches (return/panic) drop out of the merge, so an
// error path that bails before the event owes nothing.
type forceWalker struct {
	r     *Runner
	p     *Package
	annot *durableAnnot
	fn    string
}

// stmts walks a statement list from the entry state and returns the exit
// state plus whether the list terminates (cannot fall through).
func (w *forceWalker) stmts(list []ast.Stmt, forced bool) (exit bool, terminated bool) {
	for _, s := range list {
		forced, terminated = w.stmt(s, forced)
		if terminated {
			return forced, true
		}
	}
	return forced, false
}

// stmt walks one statement and returns the updated state and whether the
// statement terminates the path.
func (w *forceWalker) stmt(s ast.Stmt, forced bool) (bool, bool) {
	switch v := s.(type) {
	case *ast.ReturnStmt:
		forced = w.scan(v, forced)
		return forced, true
	case *ast.BranchStmt:
		// break/continue/goto leave this walker's straight-line view;
		// treat as terminating the current path (conservative for merges).
		return forced, true
	case *ast.IfStmt:
		if v.Init != nil {
			forced = w.scan(v.Init, forced)
		}
		forced = w.scan(v.Cond, forced)
		thenExit, thenTerm := w.stmts(v.Body.List, forced)
		elseExit, elseTerm := forced, false
		switch e := v.Else.(type) {
		case *ast.BlockStmt:
			elseExit, elseTerm = w.stmts(e.List, forced)
		case *ast.IfStmt:
			elseExit, elseTerm = w.stmt(e, forced)
		}
		switch {
		case thenTerm && elseTerm:
			return forced, true
		case thenTerm:
			return elseExit, false
		case elseTerm:
			return thenExit, false
		default:
			return thenExit && elseExit, false
		}
	case *ast.BlockStmt:
		return w.stmts(v.List, forced)
	case *ast.ForStmt:
		if v.Init != nil {
			forced = w.scan(v.Init, forced)
		}
		if v.Cond != nil {
			forced = w.scan(v.Cond, forced)
		}
		// The body is checked from the entry state (a force late in the
		// body does not dominate the next iteration's start — iteration 1
		// already ran unforced); gains inside the loop do not escape it
		// (the loop may run zero times).
		w.stmts(v.Body.List, forced)
		if v.Post != nil {
			w.scan(v.Post, forced)
		}
		return forced, false
	case *ast.RangeStmt:
		forced = w.scan(v.X, forced)
		w.stmts(v.Body.List, forced)
		return forced, false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.cases(v, forced)
	case *ast.GoStmt:
		// Inline the literal at the spawn point: the spawn-time state
		// dominates the body. Named targets contribute no direct events.
		if fl, ok := ast.Unparen(v.Call.Fun).(*ast.FuncLit); ok {
			for _, arg := range v.Call.Args {
				forced = w.scan(arg, forced)
			}
			w.stmts(fl.Body.List, forced)
			return forced, false
		}
		return w.scan(v.Call, forced), false
	case *ast.DeferStmt:
		// Deferred calls run at return: they dominate nothing and are
		// dominated by everything, so they are outside the dataflow.
		return forced, false
	case *ast.LabeledStmt:
		return w.stmt(v.Stmt, forced)
	case *ast.ExprStmt:
		forced = w.scan(v, forced)
		if call, ok := v.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return forced, true
			}
		}
		return forced, false
	default:
		return w.scan(s, forced), false
	}
}

// cases walks each case body of a switch/select from the entry state and
// merges with AND over the non-terminating cases.
func (w *forceWalker) cases(s ast.Stmt, forced bool) (bool, bool) {
	var body *ast.BlockStmt
	switch v := s.(type) {
	case *ast.SwitchStmt:
		if v.Init != nil {
			forced = w.scan(v.Init, forced)
		}
		if v.Tag != nil {
			forced = w.scan(v.Tag, forced)
		}
		body = v.Body
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			forced = w.scan(v.Init, forced)
		}
		forced = w.scan(v.Assign, forced)
		body = v.Body
	case *ast.SelectStmt:
		body = v.Body
	}
	exit := forced
	allTerm := len(body.List) > 0
	for _, c := range body.List {
		var list []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			list = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				w.scan(cc.Comm, forced)
			}
			list = cc.Body
		}
		cExit, cTerm := w.stmts(list, forced)
		if !cTerm {
			exit = exit && cExit
			allTerm = false
		}
	}
	return exit, allTerm
}

// scan visits the calls inside one expression or simple statement in
// syntactic order, updating the forced state and reporting events that
// execute unforced. Function literals are skipped — they run at unknown
// points (goroutine literals are handled at their spawn statement).
func (w *forceWalker) scan(n ast.Node, forced bool) bool {
	if n == nil {
		return forced
	}
	ast.Inspect(n, func(nn ast.Node) bool {
		switch v := nn.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			name, isForce := w.classify(v)
			if name != "" && w.annot.events[name] && !forced {
				w.r.report(v.Pos(), "forceorder",
					"%s releases %q before a durable force on this path (//asset:durable before=%s)",
					w.fn, name, eventList(w.annot.events))
			}
			if isForce {
				forced = true
			}
		}
		return true
	})
	return forced
}

// classify resolves a call to its event name (last selector ident, or
// the builtin close) and whether it counts as a durable force.
func (w *forceWalker) classify(call *ast.CallExpr) (name string, isForce bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := w.p.Info.Uses[fun].(*types.Builtin); ok {
			if b.Name() == "close" {
				return "close", false
			}
			return "", false
		}
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return "", false
	}
	if forceName(name) {
		return name, true
	}
	if fn := calleeFunc(w.p, call); fn != nil && inModule(w.r, fn) {
		if e := w.r.effects[fn]; e != nil && e.forces {
			return name, true
		}
	}
	return name, false
}

func eventList(events map[string]bool) string {
	var names []string
	for ev := range events {
		names = append(names, ev)
	}
	// Deterministic order for messages and tests.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return strings.Join(names, ",")
}
