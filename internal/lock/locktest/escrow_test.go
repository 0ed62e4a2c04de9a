package locktest

import (
	"testing"
	"time"
)

// TestEscrowModel sweeps the escrow model checker across three shard
// counts: 1 (the legacy serial table, maximal latch
// conflict), 4 (heavy cross-shard traffic), and 64 (the default spread).
// Tight bounds [0,100] with ±8 deltas and 8 workers keep the counters
// under constant bound pressure so blocking admission, never-admittable
// rejection, and withdrawal at a deadline all fire. Run with -race.
func TestEscrowModel(t *testing.T) {
	for _, shards := range []int{1, 4, 64} {
		shards := shards
		t.Run(map[int]string{1: "shards1", 4: "shards4", 64: "shards64"}[shards], func(t *testing.T) {
			t.Parallel()
			RunEscrow(t, EscrowConfig{
				Shards: shards,
				Seed:   int64(shards)*100 + 7,
			})
		})
	}
}

// TestEscrowModelHotSpot drives every worker at a single counter with the
// tightest workable bounds, so nearly every reservation contends with
// every other and the in-flight sums ride the bound edges.
func TestEscrowModelHotSpot(t *testing.T) {
	RunEscrow(t, EscrowConfig{
		Shards:       4,
		Workers:      12,
		Batches:      3,
		TxnsPerBatch: 30,
		Objects:      1,
		Init:         20,
		Lo:           0,
		Hi:           40,
		MaxDelta:     12,
		Seed:         99,
		WaitBound:    20 * time.Millisecond,
	})
}
