package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the checker that produced it, and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Checker string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Checker, d.Message)
}

// CheckerNames lists every registered checker, in the order they run.
var CheckerNames = []string{
	"latchorder",
	"leakedlatch",
	"holdblock",
	"ctxflow",
	"errcmp",
	"goroleak",
	"forceorder",
	"rpcsymmetry",
}

// Runner runs checkers over a loaded module (plus any fixture packages).
type Runner struct {
	Mod      *Module
	Enabled  map[string]bool // nil = all
	latches  *latchSet
	summary  map[funcKey]*funcSummary
	effects  map[funcKey]*effects
	diags    []Diagnostic
	packages []*Package
}

// NewRunner prepares a runner for the module with the given checkers
// enabled (nil or empty enables all).
func NewRunner(mod *Module, enabled []string) (*Runner, error) {
	r := &Runner{Mod: mod}
	if len(enabled) > 0 {
		r.Enabled = make(map[string]bool)
		for _, name := range enabled {
			ok := false
			for _, known := range CheckerNames {
				if known == name {
					ok = true
				}
			}
			if !ok {
				return nil, fmt.Errorf("analysis: unknown checker %q (have %s)", name, strings.Join(CheckerNames, ", "))
			}
			r.Enabled[name] = true
		}
	}
	return r, nil
}

func (r *Runner) enabled(name string) bool {
	return r.Enabled == nil || r.Enabled[name]
}

// report records a diagnostic if its checker is enabled.
func (r *Runner) report(pos token.Pos, checker, format string, args ...any) {
	if !r.enabled(checker) {
		return
	}
	r.diags = append(r.diags, Diagnostic{
		Pos:     r.Mod.Fset.Position(pos),
		Checker: checker,
		Message: fmt.Sprintf(format, args...),
	})
}

// Run analyzes the given packages (defaulting to every module package) and
// returns the surviving diagnostics, sorted by position, with //lint:allow
// suppressions already applied.
func (r *Runner) Run(pkgs ...*Package) []Diagnostic {
	if len(pkgs) == 0 {
		pkgs = r.Mod.Packages
	}
	r.packages = pkgs
	r.diags = nil

	// The latch registry and function summaries span the whole module: a
	// fixture package may reference annotated module types, and transitive
	// order checks must see callees in other packages.
	all := append(append([]*Package(nil), r.Mod.Packages...), fixturesOf(pkgs)...)
	r.latches = collectLatches(r, all)
	r.summary = buildSummaries(r, all)
	r.effects = buildEffects(r, all)

	for _, p := range pkgs {
		r.runFlow(p) // latchorder + leakedlatch + holdblock
		r.ctxflow(p)
		r.errcmp(p)
		r.goroleak(p)
		r.forceorder(p)
	}
	r.rpcsymmetry() // whole-module registry symmetry

	kept := suppress(r.Mod.Fset, pkgs, r.diags)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return kept[i].Checker < kept[j].Checker
	})
	return kept
}

func fixturesOf(pkgs []*Package) []*Package {
	var out []*Package
	for _, p := range pkgs {
		if p.Fixture {
			out = append(out, p)
		}
	}
	return out
}

// suppressRe matches //lint:allow <checker> <reason>. The reason is
// mandatory: a suppression that does not say why does not suppress.
var suppressRe = regexp.MustCompile(`^//\s*lint:allow\s+([a-z]+)\s+(\S.*)$`)

// suppress drops diagnostics covered by a //lint:allow comment on the same
// line or the line directly above.
func suppress(fset *token.FileSet, pkgs []*Package, diags []Diagnostic) []Diagnostic {
	type key struct {
		file string
		line int
	}
	allowed := make(map[key][]string)
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := suppressRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					k := key{pos.Filename, pos.Line}
					allowed[k] = append(allowed[k], m[1])
				}
			}
		}
	}
	var kept []Diagnostic
	for _, d := range diags {
		ok := false
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			for _, checker := range allowed[key{d.Pos.Filename, line}] {
				if checker == d.Checker || checker == "all" {
					ok = true
				}
			}
		}
		if !ok {
			kept = append(kept, d)
		}
	}
	return kept
}

// WriteText prints diagnostics one per line, relative to root when possible.
func WriteText(w io.Writer, root string, diags []Diagnostic) {
	for _, d := range diags {
		name := d.Pos.Filename
		if root != "" {
			if rel, err := relPath(root, name); err == nil {
				name = rel
			}
		}
		fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n", name, d.Pos.Line, d.Pos.Column, d.Checker, d.Message)
	}
}

func relPath(root, name string) (string, error) {
	if !strings.HasPrefix(name, root) {
		return "", fmt.Errorf("outside root")
	}
	return strings.TrimPrefix(strings.TrimPrefix(name, root), "/"), nil
}

// eachFunc visits every function declaration with a body in the package.
func eachFunc(p *Package, fn func(decl *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
