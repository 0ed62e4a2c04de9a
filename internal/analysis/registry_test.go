package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestAnnotationRegistry pins the //asset: annotation grammar and the
// tree's annotated-site inventory. Every annotation kind in the module
// must be one the analyzer parses, and every durability or hot-path
// claim is a recorded decision: adding a //asset:durable or
// //asset:noalloc site (or a new goroutine join) means updating this
// table, the same discipline TestLatchRegistry applies to latches.
func TestAnnotationRegistry(t *testing.T) {
	m := repoModule(t)
	kindRe := regexp.MustCompile(`^//\s*asset:(\w+)`)
	known := map[string]bool{"latch": true, "goroutine": true, "durable": true, "noalloc": true}

	latches := 0
	mechs := make(map[string]int)
	var durable, noalloc []string
	for _, p := range m.Packages {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					km := kindRe.FindStringSubmatch(c.Text)
					if km == nil {
						continue
					}
					if !known[km[1]] {
						t.Errorf("%s: unknown annotation kind asset:%s (the analyzer parses %v)",
							m.Fset.Position(c.Pos()), km[1], sortedKeys(known))
						continue
					}
					base := filepath.Base(m.Fset.Position(c.Pos()).Filename)
					switch km[1] {
					case "latch":
						latches++
					case "goroutine":
						gm := goAnnotRe.FindStringSubmatch(c.Text)
						mech := "?"
						for _, attr := range attrRe.FindAllStringSubmatch(gm[1], -1) {
							if attr[1] == "by" {
								mech = attr[2]
							}
						}
						mechs[mech]++
					case "durable":
						dm := durableRe.FindStringSubmatch(c.Text)
						durable = append(durable, base+" "+strings.TrimSpace(dm[1]))
					case "noalloc":
						noalloc = append(noalloc, base)
					}
				}
			}
		}
	}

	// One annotation per latch class; the classes themselves (names and
	// orders) are pinned by TestLatchRegistry.
	if latches != 15 {
		t.Errorf("latch annotations: got %d, want 15 (update TestLatchRegistry and DESIGN.md §10 too)", latches)
	}

	wantMechs := map[string]int{"waitgroup": 16, "channel": 5, "ctx": 1}
	if fmt.Sprint(sortedCounts(mechs)) != fmt.Sprint(sortedCounts(wantMechs)) {
		t.Errorf("goroutine join mechanisms: got %v, want %v", sortedCounts(mechs), sortedCounts(wantMechs))
	}

	sort.Strings(durable)
	wantDurable := []string{
		"commit.go before=ReleaseAll,EscrowCommit",
		"groupcommit.go before=createSegment",
		"groupcommit.go before=createSegment",
		"manager.go before=Truncate",
		"manifest.go before=Rename",
		"prepared.go before=ReleaseAll,EscrowCommit",
		"prepared.go before=close",
		"txcoord.go before=Decide",
		"txcoord.go before=Rename",
	}
	if fmt.Sprint(durable) != fmt.Sprint(wantDurable) {
		t.Errorf("durable sites:\n got %v\nwant %v", durable, wantDurable)
	}

	sort.Strings(noalloc)
	wantNoalloc := []string{
		"commit.go", "commit.go", // core.examineGroupLocked, commitGroupLocked
		"dedup.go",             // server.dedup.admit
		"frame.go", "frame.go", // rpc.BeginFrame, FinishFrame
		"groupcommit.go",
		"lock.go", "lock.go", "lock.go", // lock.acquire, installGrant, ReleaseAll
		"ops.go", "ops.go", "ops.go",
		"server.go", "server.go", // server.worker.run, session.dispatch
		"shard.go",                                 // lock.txnOf
		"wire.go", "wire.go", "wire.go", "wire.go", // rpc.Append{Request,Response}, Decode{Request,Response}Into
	}
	if fmt.Sprint(noalloc) != fmt.Sprint(wantNoalloc) {
		t.Errorf("noalloc sites:\n got %v\nwant %v", noalloc, wantNoalloc)
	}
}

func sortedKeys(m map[string]bool) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedCounts(m map[string]int) []string {
	var out []string
	for k, n := range m {
		out = append(out, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(out)
	return out
}

// writeModule lays out a throwaway on-disk module and loads it — the
// registry and escape checkers need real buildable packages, not
// type-checked fixtures.
func writeModule(t *testing.T, files map[string]string) *Module {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("loading seeded module: %v", err)
	}
	return m
}

// rpcSeedFiles is a minimal wire registry in the shape rpcsymmetry
// expects: an rpc package with Op/opNames/Sentinels, a core package with
// an exported sentinel, server dispatch, client encoding, and an
// exhaustive round-trip test.
func rpcSeedFiles() map[string]string {
	return map[string]string{
		"go.mod": "module seedrpc\n\ngo 1.22\n",
		"core/core.go": `package core

import "errors"

var ErrBusy = errors.New("busy")
`,
		"rpc/wire.go": `package rpc

import "seedrpc/core"

type Op uint8

const (
	OpHello Op = 1 + iota
	OpPut
	opMax
)

var opNames = [...]string{
	OpHello: "Hello",
	OpPut:   "Put",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

var Sentinels = []error{core.ErrBusy}
`,
		"server/server.go": `package server

import "seedrpc/rpc"

func Dispatch(op rpc.Op) bool {
	switch op {
	case rpc.OpHello:
		return true
	case rpc.OpPut:
		return true
	}
	return false
}
`,
		"client/client.go": `package client

import "seedrpc/rpc"

func Encode(op rpc.Op) byte {
	switch op {
	case rpc.OpHello, rpc.OpPut:
		return byte(op)
	}
	return 0
}
`,
		"rpc/rpc_test.go": `package rpc

import "testing"

func TestRoundTrip(t *testing.T) {
	for o := Op(1); o < opMax; o++ {
		if o.String() == "op?" {
			t.Fatal(o)
		}
	}
}
`,
	}
}

// TestRPCSymmetrySeeded drifts each leg of the wire registry in turn —
// dropped dispatch case, dropped name, dropped sentinel, dropped test
// coverage — and requires rpcsymmetry to catch exactly that drift.
func TestRPCSymmetrySeeded(t *testing.T) {
	cases := []struct {
		name     string
		override map[string]string
		wantMsg  string // "" = expect a clean run
	}{
		{name: "clean"},
		{
			name: "dropped-dispatch",
			override: map[string]string{"server/server.go": `package server

import "seedrpc/rpc"

func Dispatch(op rpc.Op) bool {
	switch op {
	case rpc.OpHello:
		return true
	}
	return false
}
`},
			wantMsg: "OpPut has no server dispatch case",
		},
		{
			name: "dropped-opname",
			override: map[string]string{"rpc/wire.go": `package rpc

import "seedrpc/core"

type Op uint8

const (
	OpHello Op = 1 + iota
	OpPut
	opMax
)

var opNames = [...]string{
	OpHello: "Hello",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

var Sentinels = []error{core.ErrBusy}
`},
			wantMsg: "OpPut has no opNames entry",
		},
		{
			name: "dropped-sentinel",
			override: map[string]string{"rpc/wire.go": `package rpc

type Op uint8

const (
	OpHello Op = 1 + iota
	OpPut
	opMax
)

var opNames = [...]string{
	OpHello: "Hello",
	OpPut:   "Put",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

var Sentinels = []error{}
`},
			wantMsg: "core.ErrBusy crosses the wire without a Sentinels entry",
		},
		{
			name: "dropped-test-coverage",
			override: map[string]string{"rpc/rpc_test.go": `package rpc

import "testing"

func TestHello(t *testing.T) {
	if OpHello.String() != "Hello" {
		t.Fatal("hello")
	}
}
`},
			wantMsg: "OpPut has no round-trip coverage",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := rpcSeedFiles()
			for name, src := range tc.override {
				files[name] = src
			}
			m := writeModule(t, files)
			r, err := NewRunner(m, []string{"rpcsymmetry"})
			if err != nil {
				t.Fatal(err)
			}
			diags := r.Run()
			if tc.wantMsg == "" {
				if len(diags) != 0 {
					t.Fatalf("clean registry produced diagnostics: %v", diags)
				}
				return
			}
			found := false
			for _, d := range diags {
				if d.Checker == "rpcsymmetry" && strings.Contains(d.Message, tc.wantMsg) {
					found = true
				}
			}
			if !found {
				t.Fatalf("seeded drift not detected: want %q in %v", tc.wantMsg, diags)
			}
		})
	}
}

// TestNoallocSeeded verifies the escape gate end to end against the real
// compiler: an annotated function that heap-allocates is flagged, and
// one that stays in registers is not.
func TestNoallocSeeded(t *testing.T) {
	m := writeModule(t, map[string]string{
		"go.mod": "module seednoalloc\n\ngo 1.22\n",
		"pkg/pkg.go": `// Package pkg exercises the noalloc escape gate.
package pkg

// Box is returned by pointer, so its literal escapes.
type Box struct{ N [4]int64 }

// Escapes heap-allocates inside an annotated function.
//
//asset:noalloc
func Escapes() *Box {
	return &Box{}
}

// Clean stays in registers.
//
//asset:noalloc
func Clean(x int) int {
	return x*2 + 1
}
`,
	})
	r, err := NewRunner(m, []string{"noalloc"})
	if err != nil {
		t.Fatal(err)
	}
	diags := r.Run()
	if len(diags) == 0 {
		t.Fatal("seeded heap escape not detected")
	}
	for _, d := range diags {
		if d.Checker != "noalloc" || !strings.Contains(d.Message, "Escapes") ||
			!strings.Contains(d.Message, "heap-allocates") {
			t.Errorf("unexpected diagnostic: %s", d)
		}
		if strings.Contains(d.Message, "Clean") {
			t.Errorf("clean function flagged: %s", d)
		}
	}
}
