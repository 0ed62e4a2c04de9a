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

// TestDocsCiteExistingTests: every Test* or Fuzz* name that DESIGN.md or
// EXPERIMENTS.md cites is a test or fuzz target declared in the tree, or
// the prefix of one (the documents cite families such as TestRecycle* by
// their prefix), so a renamed or deleted test cannot leave a document
// pointing at nothing.
func TestDocsCiteExistingTests(t *testing.T) {
	declared := declaredTests(t)
	cited := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z0-9_]\w*`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
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
			t.Errorf("%s cites %s, which no test or fuzz target in the tree is named or begins with", doc, name)
		}
	}
}

// declaredTests returns the sorted names of the Test and Fuzz functions
// declared in the module's test files, the benchmark module's included;
// testdata fixtures are not tests.
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
			if ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
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
