package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The module load (go list + full type-check) is expensive; every test
// shares one instance.
var (
	modOnce sync.Once
	mod     *Module
	modErr  error
)

func repoModule(t *testing.T) *Module {
	t.Helper()
	modOnce.Do(func() { mod, modErr = LoadModule(".") })
	if modErr != nil {
		t.Fatalf("loading module: %v", modErr)
	}
	return mod
}

// TestSelfCheck runs every checker over the real repository and requires a
// clean bill: the tree must satisfy its own discipline (CI enforces the same
// via cmd/assetlint).
func TestSelfCheck(t *testing.T) {
	m := repoModule(t)
	r, err := NewRunner(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range r.Run() {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestFixtures runs the checkers over each golden package in testdata/src
// and matches the diagnostics against the fixtures' `// want "regex"`
// comments: every want must be hit, every diagnostic must be wanted.
func TestFixtures(t *testing.T) {
	m := repoModule(t)
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			p, err := m.LoadFixture(dir, "fixture/"+name)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			r, err := NewRunner(m, nil)
			if err != nil {
				t.Fatal(err)
			}
			diags := r.Run(p)
			checkWants(t, m, p, diags)
		})
	}
}

// wantRe matches one `// want "regex"` (or backquoted) comment; multiple
// expectations on one line each get their own quoted pattern.
var wantRe = regexp.MustCompile("//\\s*want\\s+((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")
var wantPatRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

type want struct {
	re  *regexp.Regexp
	hit bool
}

func checkWants(t *testing.T, m *Module, p *Package, diags []Diagnostic) {
	t.Helper()
	wants := make(map[int][]*want) // line -> expectations
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				g := wantRe.FindStringSubmatch(c.Text)
				if g == nil {
					continue
				}
				line := m.Fset.Position(c.Pos()).Line
				for _, pat := range wantPatRe.FindAllString(g[1], -1) {
					body := pat[1 : len(pat)-1]
					if pat[0] == '"' {
						body = strings.ReplaceAll(body, `\"`, `"`)
					}
					re, err := regexp.Compile(body)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", f.Name.Name, line, pat, err)
					}
					wants[line] = append(wants[line], &want{re: re})
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants[d.Pos.Line] {
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for line, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("line %d: want %q not reported", line, w.re)
			}
		}
	}
}

// TestSeededViolations mutates fixture shapes the way a regressing editor
// would — reordering two latch acquisitions, deleting an early-return
// Unlock — and requires the corresponding checker to fail. This guards the
// checkers themselves against silent decay.
func TestSeededViolations(t *testing.T) {
	m := repoModule(t)
	cases := []struct {
		name    string
		checker string
		src     string
		wantMsg string
	}{
		{
			name:    "reordered-acquisition",
			checker: "latchorder",
			src: `package seeded

import "sync"

type lo struct {
	//asset:latch order=1
	mu sync.Mutex
}
type hi struct {
	//asset:latch order=2
	mu sync.Mutex
}

func f(a *lo, b *hi) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}
`,
			wantMsg: "strictly ascending",
		},
		{
			name:    "removed-unlock",
			checker: "leakedlatch",
			src: `package seeded

import "sync"

type g struct{ mu sync.Mutex }

func f(x *g, fail bool) bool {
	x.mu.Lock()
	if fail {
		return false
	}
	x.mu.Unlock()
	return true
}
`,
			wantMsg: "still locked",
		},
		{
			name:    "goroleak-removed-done",
			checker: "goroleak",
			src: `package seeded

import "sync"

func f() {
	var wg sync.WaitGroup
	wg.Add(1)
	//asset:goroutine joined-by=waitgroup
	go func() {}()
	wg.Wait()
}
`,
			wantMsg: "never calls WaitGroup.Done",
		},
		{
			name:    "goroleak-unannotated-spawn",
			checker: "goroleak",
			src: `package seeded

func f() {
	go func() {}()
}
`,
			wantMsg: "unannotated go statement",
		},
		{
			name:    "forceorder-release-above-force",
			checker: "forceorder",
			src: `package seeded

type wlog struct{}

func (l *wlog) Flush() {}

type locks struct{}

func (l *locks) ReleaseAll() {}

// f publishes the verdict before the log force lands.
//
//asset:durable before=ReleaseAll
func f(l *wlog, lk *locks) {
	lk.ReleaseAll()
	l.Flush()
}
`,
			wantMsg: "before a durable force",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "seeded.go"), []byte(tc.src), 0o644); err != nil {
				t.Fatal(err)
			}
			p, err := m.LoadFixture(dir, "fixture/seeded/"+tc.name)
			if err != nil {
				t.Fatalf("loading seeded fixture: %v", err)
			}
			r, err := NewRunner(m, []string{tc.checker})
			if err != nil {
				t.Fatal(err)
			}
			diags := r.Run(p)
			found := false
			for _, d := range diags {
				if d.Checker == tc.checker && strings.Contains(d.Message, tc.wantMsg) {
					found = true
				}
			}
			if !found {
				t.Fatalf("seeded %s violation not detected; got %d diagnostics: %v", tc.checker, len(diags), diags)
			}
		})
	}
}

// TestSuppressionRequiresReason: //lint:allow without a trailing reason must
// not suppress anything.
func TestSuppressionRequiresReason(t *testing.T) {
	m := repoModule(t)
	src := `package seeded

import "errors"

var ErrX = errors.New("x")

func f(err error) bool {
	//lint:allow errcmp
	return err == ErrX
}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "s.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := m.LoadFixture(dir, "fixture/seeded/noreason")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(m, []string{"errcmp"})
	if err != nil {
		t.Fatal(err)
	}
	if diags := r.Run(p); len(diags) != 1 {
		t.Fatalf("reasonless //lint:allow suppressed the diagnostic: got %v", diags)
	}
}

// TestAnnotationValidation: malformed //asset:latch annotations are
// themselves diagnostics — a broken annotation silently weakens the
// discipline.
func TestAnnotationValidation(t *testing.T) {
	m := repoModule(t)
	src := `package seeded

import "sync"

type s struct {
	//asset:latch spin
	mu sync.Mutex
	//asset:latch order=3
	n int
}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "s.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := m.LoadFixture(dir, "fixture/seeded/badannot")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(m, []string{"latchorder"})
	if err != nil {
		t.Fatal(err)
	}
	diags := r.Run(p)
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	joined := fmt.Sprint(msgs)
	if len(diags) != 2 || !strings.Contains(joined, "missing order") || !strings.Contains(joined, "non-latch field") {
		t.Fatalf("expected missing-order and non-latch-field diagnostics, got %v", diags)
	}
}

// TestUnknownChecker: NewRunner rejects checker names that do not exist
// instead of silently running nothing.
func TestUnknownChecker(t *testing.T) {
	m := repoModule(t)
	if _, err := NewRunner(m, []string{"latchodrer"}); err == nil {
		t.Fatal("expected an error for a misspelled checker name")
	}
}

// TestReporters: text output is root-relative file:line:col.
func TestReporters(t *testing.T) {
	diags := []Diagnostic{{Checker: "errcmp", Message: "m"}}
	diags[0].Pos.Filename = "/r/pkg/f.go"
	diags[0].Pos.Line, diags[0].Pos.Column = 3, 7

	var text strings.Builder
	WriteText(&text, "/r", diags)
	if got, want := text.String(), "pkg/f.go:3:7: [errcmp] m\n"; got != want {
		t.Errorf("WriteText = %q, want %q", got, want)
	}
}

// TestLatchRegistry: the module's annotated latch classes form the exact
// documented global order (DESIGN.md §10). A new latch must be annotated and
// added there; this test pins the table.
func TestLatchRegistry(t *testing.T) {
	m := repoModule(t)
	r, err := NewRunner(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	got := make(map[string]string)
	for _, c := range r.latches.classes {
		attrs := fmt.Sprintf("order=%d", c.Order)
		if c.Spin {
			attrs += " spin"
		}
		got[c.Name] = attrs
	}
	want := map[string]string{
		// The distributed-commit coordinator's latch is outermost of all:
		// it is held only around its decision map and log, never across a
		// participant (client/network) call, so nothing it guards can ever
		// wait on anything ordered after it.
		"txcoord.Coordinator.mu": "order=1",

		// The networked tier's latches order before every engine latch:
		// client and server dispatch hold their session/connection state
		// only around queue and table manipulation, never across a core
		// call that could take an engine latch inward of them.
		"client.Client.mu":  "order=2",
		"client.cliConn.mu": "order=3",
		"server.Server.mu":  "order=4",
		"server.session.mu": "order=6",
		"server.srvConn.mu": "order=8",

		"core.Manager.mu": "order=10",

		// The object cache's directory latch, then one object's latch
		// (§4.2): a create holds the directory in S mode across the slot's
		// X latch, and a writer holds the object's X latch across the log
		// append and, on an Add that fails, across backing the escrow
		// reservation out of the lock table.
		"storage.Cache.lat":  "order=12 spin",
		"storage.Object.Lat": "order=14 spin",

		"lock.lockShard.lat": "order=20 spin",
		"htab.shard.mu":      "order=30",
		"lock.txnState.lat":  "order=40 spin",
		"waitgraph.Graph.mu": "order=50",
		"dep.Graph.mu":       "order=60",

		// The segmented WAL's group-commit latches order after everything
		// above: commit paths append to the log while holding core latches
		// (Tx.Write under core.Manager.mu is the paper's §4.2 design), so
		// the log's own latches must be innermost.
		"wal.SegmentedLog.stateMu":  "order=70",
		"wal.SegmentedLog.appendMu": "order=80",

		// The shared free lists (core's transaction descriptors, lock's
		// txnStates): push and pop only, nothing acquired under the latch,
		// so it is innermost of all and any caller's holds are in order.
		"pool.Shared.lat": "order=90 spin",
	}
	for name, attrs := range want {
		if got[name] != attrs {
			t.Errorf("latch %s: got %q, want %q", name, got[name], attrs)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected annotated latch %s (update the table in DESIGN.md §10 and this test)", name)
		}
	}
}
