// Command assetlint runs the project's concurrency-discipline checkers
// (internal/analysis) over the module. Exit status: 0 clean, 1 findings,
// 2 load or usage error.
//
// Usage:
//
//	assetlint [-checkers latchorder,errcmp] [packages]
//
// Package patterns are module-relative: "./..." (the default) analyzes
// everything; "./internal/lock" or "internal/lock" restricts output to that
// package. The whole module is always loaded — transitive latch-order checks
// need cross-package summaries — so patterns only filter which packages'
// diagnostics are reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	checkers := flag.String("checkers", "", "comma-separated checkers to run (default: all of "+strings.Join(analysis.CheckerNames, ",")+")")
	flag.Parse()

	mod, err := analysis.LoadModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "assetlint:", err)
		os.Exit(2)
	}

	var enabled []string
	if *checkers != "" {
		for _, c := range strings.Split(*checkers, ",") {
			if c = strings.TrimSpace(c); c != "" {
				enabled = append(enabled, c)
			}
		}
	}
	r, err := analysis.NewRunner(mod, enabled)
	if err != nil {
		fmt.Fprintln(os.Stderr, "assetlint:", err)
		os.Exit(2)
	}

	pkgs, err := selectPackages(mod, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "assetlint:", err)
		os.Exit(2)
	}
	diags := r.Run(pkgs...)

	analysis.WriteText(os.Stdout, mod.Root, diags)
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// selectPackages maps command-line patterns to loaded module packages.
func selectPackages(mod *analysis.Module, patterns []string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		return nil, nil // Runner default: every module package
	}
	var out []*analysis.Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		matched := false
		for _, p := range mod.Packages {
			if matchPattern(mod, pat, p) {
				matched = true
				if !seen[p.Path] {
					seen[p.Path] = true
					out = append(out, p)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no module packages", pat)
		}
	}
	return out, nil
}

// matchPattern implements the useful subset of go-tool package patterns:
// "./...", "dir/...", "./dir", "dir", and full import paths.
func matchPattern(mod *analysis.Module, pat string, p *analysis.Package) bool {
	rel, err := filepath.Rel(mod.Root, p.Dir)
	if err != nil {
		return false
	}
	rel = filepath.ToSlash(rel)
	pat = strings.TrimPrefix(pat, "./")
	pat = strings.TrimSuffix(pat, "/")
	if pat == "..." || pat == "" || pat == "." {
		return true
	}
	if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
		return rel == prefix || strings.HasPrefix(rel, prefix+"/") ||
			p.Path == prefix || strings.HasPrefix(p.Path, prefix+"/")
	}
	return rel == pat || p.Path == pat
}
