package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 4, 8, 16}); math.Abs(s-10.5/4) > 1e-12 {
		t.Errorf("spread %v", s)
	}
}

func TestQuietQuartileSidesWithTheBetterEnd(t *testing.T) {
	// Seven quiet windows around 100 and five disturbed ones: the median
	// window sits on the edge between the two, the quiet quartile does not.
	lat := []float64{101, 99, 100, 102, 98, 100, 101, 900, 1500, 400, 2500, 700}
	if got := quiet(lat, lower); got < 98 || got > 101 {
		t.Errorf("quiet quartile of the latencies is %v", got)
	}
	tput := []float64{1000, 990, 1010, 1005, 995, 1000, 1002, 300, 500, 100, 650, 800}
	if got := quiet(tput, higher); got < 1000 || got > 1010 {
		t.Errorf("quiet quartile of the throughputs is %v", got)
	}
}

// The metrics a log on disk brings exist for the durable arrangements only,
// and are held to bounds there like the rest.
func TestDurableMetricsAreGatedWhereTheyExist(t *testing.T) {
	for _, wl := range workloadNames {
		has := false
		for _, d := range gated(wl) {
			if d.Bound <= 0 || d.Bound > 0.25 {
				t.Errorf("%s: %s has bound %v", wl, d.Name, d.Bound)
			}
			has = has || d.Name == "recover_s"
		}
		if has != wlDurableLog(wl) {
			t.Errorf("%s: recover_s gated: %v", wl, has)
		}
	}
}

func TestCompareIsDirectionAwareAndAdmitsNoise(t *testing.T) {
	steady := func(centre float64) []float64 {
		return []float64{centre * 0.99, centre, centre * 1.01, centre, centre * 0.995, centre * 1.005}
	}
	lat := metricDef{Name: "open_p50_us", Better: lower, Bound: 0.10}
	tput := metricDef{Name: "closed_goodput_txn_s", Better: higher, Bound: 0.10}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lat, steady(100), steady(105), verdictOK},
		{lat, steady(100), steady(120), verdictRegressed},
		{lat, steady(100), steady(60), verdictOK}, // faster is never a regression
		{tput, steady(1000), steady(1200), verdictOK},
		{tput, steady(1000), steady(850), verdictRegressed},
		// Runs that disagree with themselves by more than the bound
		// cannot show the metric unchanged.
		{lat, []float64{60, 80, 100, 120, 140}, steady(100), verdictUnresolved},
		{lat, steady(100), nil, verdictUnresolved},
	}
	for i, c := range cases {
		if got, worse := compareOne(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d: %s (worse by %.1f%%), want %s", i, got, 100*worse, c.want)
		}
	}
}

// BENCHMARK.json is written from the tables in metrics.go (-print-spec);
// this holds the two together and the file to the driver's limits.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d metrics listed, the tables have %d", len(got), len(want))
		}
		for i, d := range got {
			if d != want[i] {
				t.Errorf("metric %d is %+v, the table says %+v", i, d, want[i])
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("metric %+v breaks the naming rules", d)
			}
			seen[d.Name] = true
			if bounded != (d.Bound > 0) || d.Bound > 0.25 {
				t.Errorf("metric %s has bound %v", d.Name, d.Bound)
			}
		}
	}
	check(spec.EndToEnd, endToEnd, true)
	check(spec.PerLayer, perLayer, false)
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the limits", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads listed", len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		rate := "open_rate_txn_s=" + trimFloat(openRate[w.Name])
		if w.Name != workloadNames[i] || !strings.Contains(w.Why, rate) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why %q (%d chars) must be one line of at most 200 and state %s", w.Name, w.Why, len(w.Why), rate)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}

func trimFloat(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}
