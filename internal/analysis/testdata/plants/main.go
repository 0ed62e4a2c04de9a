// Command plants replays the plant table of DESIGN.md §15. Each plant in
// plants.jsonl plants one checker's bug class into a copy of the tree; the
// command applies it, runs the test suite against it, prints one Markdown
// row naming the tests that failed ("none" when the suite stayed green),
// and restores the copy before the next plant.
//
// Usage:
//
//	go run ./internal/analysis/testdata/plants -tree <copy> [-run <id regexp>]
//
// The suite runs in up to three steps, stopping at the first that fails:
//
//	own   go test -count=1 -timeout <plant's, default 120s> <plant's packages>
//	all   go test -timeout 300s <every package but internal/analysis>
//	race  go test -race -count=3 -timeout 600s <plant's race packages, default its first>
//
// "race" runs only for the concurrency plants. "all" leaves the test cache
// on, so a package whose test binary the plant does not change reports its
// result from the unplanted tree, which is the result it would have.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

type edit struct {
	File   string
	Old    string
	New    string
	Occ    *int // which occurrence of Old; nil: Old must occur exactly once
	Append string
	Create bool
}

type plant struct {
	ID, Edit string
	Edits    []edit
	Pkgs     []string
	Race     bool
	RacePkgs []string `json:"race_pkgs"` // default: the first of Pkgs
	Timeout  string
}

func main() {
	tree := flag.String("tree", "", "copy of the tree to plant into (required)")
	specs := flag.String("plants", filepath.Join("internal", "analysis", "testdata", "plants", "plants.jsonl"), "plant list")
	run := flag.String("run", "", "replay only plants whose id matches this regexp")
	flag.Parse()
	if *tree == "" {
		flag.Usage()
		os.Exit(2)
	}
	sel := regexp.MustCompile(*run)
	data, err := os.ReadFile(*specs)
	if err != nil {
		fail(err)
	}
	out, err := goCmd(*tree, "list", "./...")
	if err != nil {
		fail(fmt.Errorf("go list: %v\n%s", err, out))
	}
	var all []string
	for _, p := range strings.Fields(out) {
		if !strings.HasSuffix(p, "/internal/analysis") {
			all = append(all, p)
		}
	}
	fmt.Println("| plant | edit | failing tests (step) |")
	fmt.Println("|---|---|---|")
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var p plant
		if err := json.Unmarshal(line, &p); err != nil {
			fail(err)
		}
		if !sel.MatchString(p.ID) {
			continue
		}
		tests, step := replay(*tree, p, all)
		fmt.Printf("| `%s` | %s | %s (%s) |\n", p.ID, p.Edit, tests, step)
	}
}

// replay plants p, runs the steps and restores every file it touched.
func replay(tree string, p plant, all []string) (tests, step string) {
	saved := make(map[string][]byte)
	defer func() {
		for path, b := range saved {
			if b == nil {
				os.Remove(path)
			} else if err := os.WriteFile(path, b, 0o644); err != nil {
				fail(err)
			}
		}
	}()
	for _, e := range p.Edits {
		path := filepath.Join(tree, e.File)
		if _, ok := saved[path]; !ok {
			b, err := os.ReadFile(path)
			if err != nil && !e.Create {
				return "edit: " + err.Error(), "-"
			}
			saved[path] = b
		}
		if err := apply(path, e); err != nil {
			return "edit: " + err.Error(), "-"
		}
	}
	if out, err := goCmd(tree, append([]string{"vet"}, p.Pkgs...)...); err != nil {
		return "build: " + firstLine(out), "-"
	}
	timeout := p.Timeout
	if timeout == "" {
		timeout = "120s"
	}
	steps := [][]string{
		append([]string{"test", "-count=1", "-timeout", timeout}, p.Pkgs...),
		append([]string{"test", "-timeout", "300s"}, all...),
	}
	names := []string{"own", "all", "race"}
	if p.Race {
		race := p.RacePkgs
		if race == nil {
			race = p.Pkgs[:1]
		}
		steps = append(steps, append([]string{"test", "-race", "-count=3", "-timeout", "600s"}, race...))
	}
	for i, args := range steps {
		if out, err := goCmd(tree, args...); err != nil {
			return failures(out), names[i]
		}
	}
	return "none", names[len(steps)-1]
}

func apply(path string, e edit) error {
	if e.Create {
		return os.WriteFile(path, []byte(e.New), 0o644)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	src := string(b)
	switch {
	case e.Append != "":
		src += e.Append
	case e.Occ == nil:
		if n := strings.Count(src, e.Old); n != 1 {
			return fmt.Errorf("%s: anchor matches %d times", e.File, n)
		}
		src = strings.Replace(src, e.Old, e.New, 1)
	default:
		at := -1
		for k := 0; k <= *e.Occ; k++ {
			i := strings.Index(src[at+1:], e.Old)
			if i < 0 {
				return fmt.Errorf("%s: anchor has no occurrence %d", e.File, *e.Occ)
			}
			at += i + 1
		}
		src = src[:at] + e.New + src[at+len(e.Old):]
	}
	return os.WriteFile(path, []byte(src), 0o644)
}

var (
	failRe    = regexp.MustCompile(`(?m)^\s*--- FAIL: (\w+)`)
	runningRe = regexp.MustCompile(`(?m)^\s+(Test\w+)(?:/\S*)? \(\S+\)$`)
)

// failures names the top-level tests a failed run reports: the failed
// ones, and for a timeout the ones still running when it fired.
func failures(out string) string {
	var names []string
	seen := make(map[string]bool)
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, m := range failRe.FindAllStringSubmatch(out, -1) {
		add(m[1])
	}
	if _, hung, ok := strings.Cut(out, "panic: test timed out"); ok {
		var running []string
		for _, m := range runningRe.FindAllStringSubmatch(hung, -1) {
			running = append(running, m[1])
		}
		add("timeout (" + strings.Join(running, ", ") + ")")
	}
	if len(names) == 0 {
		return "FAIL: " + firstLine(out)
	}
	return strings.Join(names, ", ")
}

func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(strings.TrimSpace(s), "\n")
	return line
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "plants:", err)
	os.Exit(2)
}
