package asset_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDocsCiteExistingTests: every Test*, Fuzz* or Benchmark* name that
// DESIGN.md, EXPERIMENTS.md or README.md cites is a function declared in
// the tree's test files, or the prefix of one (the documents cite
// families such as TestRecycle* by their prefix), the top-level pattern
// of every `-bench` command they give matches a declared benchmark, and
// every internal/ or cmd/ path they cite exists, so a renamed or deleted
// test, benchmark, package or command cannot leave a document pointing
// at nothing. Every Test* or Fuzz* name in a `-run` pattern of the CI
// workflow resolves the same way: a step whose pattern names nothing runs
// nothing, and passes.
func TestDocsCiteExistingTests(t *testing.T) {
	declared := declaredTests(t)
	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	bench := regexp.MustCompile(`-bench '?([\w.^$(][^'\s\x60]*)`)
	path := regexp.MustCompile(`\b(?:internal|cmd)/[\w.-]+(?:/[\w.-]+)*`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		missing := make(map[string]bool)
		for _, name := range cited.FindAllString(string(text), -1) {
			if !declaresPrefix(declared, name) {
				missing[name] = true
			}
		}
		for _, name := range sortedNames(missing) {
			t.Errorf("%s cites %s, which no test, fuzz target or benchmark in the tree is named or begins with", doc, name)
		}
		missing = make(map[string]bool)
		for _, m := range bench.FindAllStringSubmatch(string(text), -1) {
			if !runsBenchmark(declared, strings.SplitN(m[1], "/", 2)[0]) {
				missing[m[1]] = true
			}
		}
		for _, pattern := range sortedNames(missing) {
			t.Errorf("%s gives -bench %s, which runs no benchmark in the tree", doc, pattern)
		}
		missing = make(map[string]bool)
		for _, p := range path.FindAllString(string(text), -1) {
			p = strings.TrimRight(p, "./-")
			if _, err := os.Stat(p); err != nil {
				missing[p] = true
			}
		}
		for _, p := range sortedNames(missing) {
			t.Errorf("%s cites %s, which does not exist", doc, p)
		}
	}
	const workflow = ".github/workflows/ci.yml"
	text, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	run := regexp.MustCompile(`-run (?:'([^']*)'|(\S+))`)
	named := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z0-9_]\w*`)
	missing := make(map[string]bool)
	for _, m := range run.FindAllStringSubmatch(string(text), -1) {
		for _, name := range named.FindAllString(m[1]+m[2], -1) {
			if !declaresPrefix(declared, name) {
				missing[name] = true
			}
		}
	}
	for _, name := range sortedNames(missing) {
		t.Errorf("%s runs %s, which no test or fuzz target in the tree is named or begins with", workflow, name)
	}
}

// declaredTests returns the sorted names of the Test, Fuzz and Benchmark
// functions declared in the module's test files, the benchmark module's
// included; testdata fixtures are not tests.
func declaredTests(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	names := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz") || strings.HasPrefix(fn.Name.Name, "Benchmark")) {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sortedNames(names)
}

// runsBenchmark reports whether pattern, the top level of a -bench
// regexp, matches a Benchmark function in declared.
func runsBenchmark(declared []string, pattern string) bool {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return false
	}
	for _, name := range declared {
		if strings.HasPrefix(name, "Benchmark") && re.MatchString(name) {
			return true
		}
	}
	return false
}

// declaresPrefix reports whether some name in sorted begins with prefix.
func declaresPrefix(sorted []string, prefix string) bool {
	i := sort.SearchStrings(sorted, prefix)
	return i < len(sorted) && strings.HasPrefix(sorted[i], prefix)
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
