package hist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exact returns the ceil(q*n)-th smallest sample, the definition Quantile
// approximates.
func exact(sorted []int64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

func TestQuantileWithinTwoPercentOnHeavyTails(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() int64{
		// Log-normal around 20 µs with a fat right tail.
		"lognormal": func() int64 { return int64(math.Exp(rng.NormFloat64()*1.5 + math.Log(20e3))) },
		// Pareto, shape 1.2: the mean barely exists.
		"pareto": func() int64 { return int64(500 / math.Pow(1-rng.Float64(), 1/1.2)) },
		// Two modes a thousand times apart, as in a commit that either
		// runs inline or parks on an fsync.
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 2e6 + rng.Int63n(4e6)
			}
			return 2e3 + rng.Int63n(4e3)
		},
	}
	for name, draw := range dists {
		var h Hist
		samples := make([]int64, 200000)
		for i := range samples {
			samples[i] = draw()
			h.Record(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			want, got := exact(samples, q), h.Quantile(q)
			if rel := math.Abs(got-want) / want; rel > 0.02 {
				t.Errorf("%s q=%v: got %.0f want %.0f (%.2f%% off)", name, q, got, want, rel*100)
			}
		}
		if h.Max() != uint64(samples[len(samples)-1]) {
			t.Errorf("%s: Max %d, want %d", name, h.Max(), samples[len(samples)-1])
		}
	}
}

func TestBucketsCoverEveryValue(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1 << 20, 1<<20 + 1<<14, 1 << 40, math.MaxUint64} {
		i := index(v)
		if i < prev || i >= buckets {
			t.Fatalf("index(%d) = %d, not monotone within [0,%d)", v, i, buckets)
		}
		prev = i
		if v >= 64 && v < 1<<62 {
			if rel := math.Abs(mid(i)-float64(v)) / float64(v); rel > 1.0/sub {
				t.Errorf("mid(index(%d)) = %v, %.2f%% off", v, mid(i), rel*100)
			}
		}
	}
}

func TestMergeAndEmpty(t *testing.T) {
	var a, b Hist
	if a.Quantile(0.5) != 0 {
		t.Fatal("empty quantile must be 0")
	}
	for i := int64(1); i <= 1000; i++ {
		a.Record(i * 1000)
		b.Record(i * 1000000)
	}
	a.Merge(&b)
	if a.Count() != 2000 {
		t.Fatalf("count %d", a.Count())
	}
	if got := a.Quantile(0.5); math.Abs(got-1e6)/1e6 > 0.02 {
		t.Fatalf("merged median %v, want about 1e6", got)
	}
	a.Record(-5)
	if a.Quantile(0.0001) != 0 {
		t.Fatal("negative observation must count as 0")
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	var h Hist
	v := int64(12345)
	if n := testing.AllocsPerRun(1000, func() { h.Record(v); v += 997 }); n != 0 {
		t.Fatalf("Record allocates %v times per call", n)
	}
}
