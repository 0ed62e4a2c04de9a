package server

import (
	"context"
	"testing"
	"time"
)

// TestFinishBodyWaitsOutBeginning: a commit racing an in-flight begin
// must wait the begin out and still deliver the finish op — returning
// early would hand CommitCtx a body that never completes and, once the
// tid was forgotten, leak the body goroutine forever (nothing left to
// unwind it).
func TestFinishBodyWaitsOutBeginning(t *testing.T) {
	t.Parallel()
	ti := newItx(context.Background())
	ti.mu.Lock()
	ti.state = stBeginning
	ti.mu.Unlock()
	// The begin settles shortly and the body starts draining ops, the way
	// BeginCtx returning does in begin().
	go func() {
		time.Sleep(5 * time.Millisecond)
		ti.settle(stRunning)
		ti.body()(nil) //nolint:errcheck
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ti.finishBody(ctx); err != nil {
		t.Fatalf("finishBody: %v", err)
	}
	select {
	case <-ti.gone:
	case <-time.After(5 * time.Second):
		t.Fatal("body still running after finishBody returned")
	}
}

// TestFinishBodyBeginningCancelled: cancellation while waiting out the
// begin reports the abandonment instead of pretending the body finished.
func TestFinishBodyBeginningCancelled(t *testing.T) {
	t.Parallel()
	ti := newItx(context.Background())
	ti.mu.Lock()
	ti.state = stBeginning
	ti.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ti.finishBody(ctx); err == nil {
		t.Fatal("finishBody with cancelled ctx = nil, want error")
	}
	ti.mu.Lock()
	st := ti.state
	ti.mu.Unlock()
	if st != stBeginning {
		t.Fatalf("state = %v, want stBeginning left intact", st)
	}
}
