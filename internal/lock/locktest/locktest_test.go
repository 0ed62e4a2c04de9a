package locktest

import (
	"testing"
	"time"
)

// TestInvariantsUnderStress runs the randomized concurrent harness across
// the shard counts the issue calls out (1 = the legacy serial table, a
// small count forcing heavy cross-shard traffic, and the default) in both
// permit-closure modes. Run with -race; the harness is as much a data-race
// probe as an invariant check.
func TestInvariantsUnderStress(t *testing.T) {
	for _, shards := range []int{1, 4, 64} {
		for _, eager := range []bool{true, false} {
			shards, eager := shards, eager
			name := map[bool]string{true: "eager", false: "lazy"}[eager]
			t.Run(map[int]string{1: "shards1", 4: "shards4", 64: "shards64"}[shards]+"/"+name, func(t *testing.T) {
				t.Parallel()
				Run(t, Config{
					Shards:       shards,
					Workers:      8,
					Batches:      4,
					OpsPerBatch:  120,
					Objects:      16,
					Seed:         int64(shards)*1000 + 17,
					EagerClosure: eager,
				})
			})
		}
	}
}

// TestInvariantsHotSpot drives every worker at a tiny object set so almost
// every operation contends, maximizing suspension, delegation merges, and
// victim traffic through a handful of ODs.
func TestInvariantsHotSpot(t *testing.T) {
	Run(t, Config{
		Shards:      4,
		Workers:     12,
		Batches:     3,
		OpsPerBatch: 100,
		Objects:     3,
		Seed:        42,
		WaitBound:   2 * time.Millisecond,
	})
}
