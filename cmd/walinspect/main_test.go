package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSummarizesFixture: over the wal package's committed chain, the
// dump has a line per record and the summary counts the commit records'
// members, the group left in doubt and the objects the chain recovers.
func TestRunSummarizesFixture(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "../../internal/wal/testdata/segmented-chain", false); err != nil {
		t.Fatal(err)
	}
	const summary = "26 records; recovery: 4 committed txn(s), 1 in-doubt group(s), 2 object(s), next LSN 27"
	lines := strings.Split(out.String(), "\n")
	if len(lines) < 28 || lines[27] != summary {
		t.Fatalf("summary line missing; want %q in\n%s", summary, out.String())
	}
	if !strings.Contains(out.String(), "in doubt: gid=65261 group=[t8]") {
		t.Errorf("in-doubt group not listed:\n%s", out.String())
	}
}
