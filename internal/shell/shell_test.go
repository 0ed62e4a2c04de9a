package shell

import (
	"fmt"
	"strings"
	"testing"

	asset "repro"
)

func runScript(t *testing.T, script string) (string, *asset.Manager) {
	t.Helper()
	m, err := asset.Open(asset.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	var out strings.Builder
	sh := New(m, &out)
	if err := sh.Run(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	return out.String(), m
}

func TestBasicSession(t *testing.T) {
	out, m := runScript(t, `
# create and commit
begin
create t1 hello world
commit t1
objects
`)
	if !strings.Contains(out, "t1\n") || !strings.Contains(out, "ob1\n") {
		t.Fatalf("missing ids in output:\n%s", out)
	}
	if !strings.Contains(out, `ob1 = "hello world"`) {
		t.Fatalf("object listing wrong:\n%s", out)
	}
	if !strings.Contains(out, "t1 committed") {
		t.Fatalf("commit status missing:\n%s", out)
	}
	if m.Cache().Len() != 1 {
		t.Fatal("object not committed")
	}
}

func TestAbortRollsBack(t *testing.T) {
	out, m := runScript(t, `
begin
create t1 keep
commit t1
begin
write t2 ob1 dirty
abort t2
`)
	_ = out
	if b, _ := m.Cache().Read(1); string(b) != "keep" {
		t.Fatalf("rollback failed: %q", b)
	}
}

func TestTwoTransactionsPermitAndDependency(t *testing.T) {
	out, m := runScript(t, `
begin
create t1 base
begin
permit t1 t2 w ob1
dep CD t1 t2
write t2 ob1 cooperative
commit t1
commit t2
`)
	if strings.Contains(out, "error:") {
		t.Fatalf("script errored:\n%s", out)
	}
	if b, _ := m.Cache().Read(1); string(b) != "cooperative" {
		t.Fatalf("object = %q", b)
	}
}

func TestDelegateCommand(t *testing.T) {
	out, m := runScript(t, `
begin
create t1 owned
begin
delegate t1 t2
abort t1
commit t2
`)
	if strings.Contains(out, "error:") {
		t.Fatalf("script errored:\n%s", out)
	}
	if b, ok := m.Cache().Read(1); !ok || string(b) != "owned" {
		t.Fatalf("delegated create lost: %q %v", b, ok)
	}
}

func TestCounterAdd(t *testing.T) {
	out, m := runScript(t, "begin\ncreate t1 \x00\x00\x00\x00\x00\x00\x00\x00\ncommit t1\n")
	_ = out
	_ = m
	// Binary via script is awkward; drive the add path directly instead.
	m2, _ := asset.Open(asset.Config{})
	defer m2.Close()
	var sb strings.Builder
	sh := New(m2, &sb)
	seedCounter(t, m2)
	if err := sh.Run(strings.NewReader("begin\nadd t2 ob1 5\ncommit t2\n")); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "error:") {
		t.Fatalf("add errored:\n%s", sb.String())
	}
	b, _ := m2.Cache().Read(1)
	if b[0] != 5 {
		t.Fatalf("counter = %v", b)
	}
}

func seedCounter(t *testing.T, m *asset.Manager) {
	t.Helper()
	id, err := m.Initiate(func(tx *asset.Tx) error {
		_, err := tx.Create(make([]byte, 8))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Begin(id)
	if err := m.Commit(id); err != nil {
		t.Fatal(err)
	}
}

func TestErrorsAreReportedNotFatal(t *testing.T) {
	out, _ := runScript(t, `
bogus-command
commit t99
status t1
stats
quit
begin
`)
	if !strings.Contains(out, "error: unknown command") {
		t.Fatalf("unknown command not reported:\n%s", out)
	}
	if !strings.Contains(out, "error: no open interactive transaction") {
		t.Fatalf("bad tid not reported:\n%s", out)
	}
	if !strings.Contains(out, "commits=") {
		t.Fatalf("stats missing:\n%s", out)
	}
	// Nothing after quit may run.
	if strings.Count(out, "t1\n") != 0 {
		t.Fatalf("command after quit ran:\n%s", out)
	}
}

func TestDanglingTransactionsClosedAtEOF(t *testing.T) {
	// A script that leaves a transaction open must not hang Run.
	out, m := runScript(t, "begin\ncreate t1 orphan\n")
	_ = out
	// The transaction completed but was never committed; its create is
	// invisible (locks held until terminate, data volatile).
	if st := m.StatusOf(1); st != asset.StatusCompleted {
		t.Fatalf("dangling transaction is %v at EOF, want completed (not committed)", st)
	}
}

func TestHelpAndStatus(t *testing.T) {
	out, _ := runScript(t, "help\nbegin\nstatus t1\ncommit t1\nstatus t1\n")
	if !strings.Contains(out, "commands:") {
		t.Fatal("help missing")
	}
	if !strings.Contains(out, "t1 running") && !strings.Contains(out, "t1 completed") {
		t.Fatalf("status of live txn missing:\n%s", out)
	}
	if !strings.Contains(out, "t1 committed") {
		t.Fatalf("status after commit missing:\n%s", out)
	}
}

func TestExclusionDep(t *testing.T) {
	out, m := runScript(t, `
begin
begin
dep EXC t1 t2
commit t1
status t2
`)
	if !strings.Contains(out, "t2 aborted") {
		t.Fatalf("exclusion not applied:\n%s", out)
	}
	_ = m
}

func TestPsAndPermitVariants(t *testing.T) {
	out, m := runScript(t, `
begin
create t1 shared
begin
permit t1 any w ob1
permit t1 t2 r ob1
permit t1 t2 rw
ps
commit t1
commit t2
`)
	if strings.Contains(out, "error:") {
		t.Fatalf("script errored:\n%s", out)
	}
	if !strings.Contains(out, "t1 running") && !strings.Contains(out, "t1 completed") {
		t.Fatalf("ps output missing:\n%s", out)
	}
	_ = m
}

func TestUsageErrors(t *testing.T) {
	out, _ := runScript(t, `
begin
read t1
write t1
create t1
delete t1
add t1 ob1 xyz
permit t1
delegate t1
dep XX t1 t2
status
commit
abort
commit t1
`)
	for _, want := range []string{
		"usage: read", "usage: write", "usage: create", "usage: delete",
		"usage: permit", "usage: delegate", "unknown dependency type",
		"usage: status", "usage: commit", "usage: abort",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "bad delta") {
		t.Fatalf("bad delta unreported:\n%s", out)
	}
}

func TestBadIDsReported(t *testing.T) {
	out, _ := runScript(t, `
begin
read t1 obXYZ
write tFOO ob1 v
delegate tx ty
dep CD a b
commit t1
`)
	if !strings.Contains(out, "bad oid") || !strings.Contains(out, "bad tid") {
		t.Fatalf("id errors unreported:\n%s", out)
	}
}

func TestCheckpointCommand(t *testing.T) {
	out, _ := runScript(t, `
begin
create t1 persist-me
commit t1
checkpoint
`)
	if strings.Contains(out, "error:") {
		t.Fatalf("checkpoint errored:\n%s", out)
	}
}

func TestEchoMode(t *testing.T) {
	m, err := asset.Open(asset.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var out strings.Builder
	sh := New(m, &out)
	sh.Echo = true
	sh.Run(strings.NewReader("stats\n"))
	if !strings.Contains(out.String(), "> stats") {
		t.Fatalf("echo missing:\n%s", out.String())
	}
}

func TestDeleteCommand(t *testing.T) {
	_, m := runScript(t, `
begin
create t1 doomed
commit t1
begin
delete t2 ob1
commit t2
`)
	if m.Cache().Len() != 0 {
		t.Fatal("delete command did not remove the object")
	}
}

// TestBeginCommitLoopRecyclesHandles: the shell gives back the reference of
// every handle that commit, abort or the end of a script drops, so the
// descriptors behind them are recycled from one begin to the next, and
// every command still lands on its own transaction.
func TestBeginCommitLoopRecyclesHandles(t *testing.T) {
	m, err := asset.Open(asset.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	var out strings.Builder
	sh := New(m, &out)
	exec := func(line string) string {
		t.Helper()
		out.Reset()
		if _, err := sh.Exec(line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		return strings.TrimSpace(out.String())
	}
	tid := exec("begin")
	exec("create " + tid + " v0")
	exec("commit " + tid)
	handles := make(map[*asset.Tx]bool)
	want := "v0"
	for i := 1; i <= 200; i++ {
		tid := exec("begin")
		id, err := parseID(tid)
		if err != nil {
			t.Fatalf("begin printed %q", tid)
		}
		handles[sh.txns[asset.TID(id)]] = true
		val := fmt.Sprintf("v%d", i)
		exec("write " + tid + " ob1 " + val)
		if i%3 == 0 {
			if got := exec("abort " + tid); got != tid+" aborted" {
				t.Fatalf("abort %s printed %q", tid, got)
			}
		} else {
			if got := exec("commit " + tid); got != tid+" committed" {
				t.Fatalf("commit %s printed %q", tid, got)
			}
			want = val
		}
		if b, _ := m.Cache().Read(1); string(b) != want {
			t.Fatalf("after %s: ob1 = %q, want %q", tid, b, want)
		}
	}
	if len(sh.txns) != 0 || len(m.Transactions()) != 0 {
		t.Fatalf("%d handles and %d transactions left open", len(sh.txns), len(m.Transactions()))
	}
	if len(handles) > 2 {
		t.Fatalf("200 transactions ran on %d handles: the shell keeps the descriptors it drops", len(handles))
	}
}
