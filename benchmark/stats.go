package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// samples holds, per workload and metric, one value per repeated run. It
// is what -repeat writes and -compare reads.
type samples map[string]map[string][]float64

// quartiles returns the first quartile, the median and the third quartile
// of v the way Python's statistics.quantiles(v, n=4) does, which is how
// the driver judges the benchmark's steadiness.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// quiet is the quiet quartile of a phase's windows: the value a quarter of
// the way in from their better end. Collections, table growth, the
// checkpoint, a stolen vCPU and, on a durable log, stretches in which
// commits wait for two forces instead of one each disturb some of a phase's
// windows, between them often more than half, so the median window flips between a quiet and a disturbed reading
// from run to run; the quiet quartile reads the same as long as a quarter of
// the windows are undisturbed.
func quiet(v []float64, better string) float64 {
	q1, _, q3 := quartiles(v)
	if better == higher {
		return q3
	}
	return q1
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// printSpreads prints, per end-to-end metric, the median, the quartiles
// and the spread over the repeated runs, next to the metric's bound.
func printSpreads(w io.Writer, s samples) {
	for _, wl := range workloadNames {
		byMetric, ok := s[wl]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s (%d runs)\n", wl, len(byMetric[endToEnd[0].Name]))
		fmt.Fprintf(w, "  %-22s %14s %14s %14s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, d := range gated(wl) {
			q1, q2, q3 := quartiles(byMetric[d.Name])
			note := ""
			if sp := spread(byMetric[d.Name]); sp > d.Bound/3 && d.Name != "setup_s" {
				note = "  spread above a third of the bound"
			}
			fmt.Fprintf(w, "  %-22s %14.4f %14.4f %14.4f %7.2f%% %5.0f%%%s\n",
				d.Name, q2, q1, q3, 100*spread(byMetric[d.Name]), 100*d.Bound, note)
		}
	}
}

func readSamples(path string) (samples, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s samples
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// verdicts of a comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// compareOne judges one metric: b against a, by the metric's direction and
// bound. When either side's own spread exceeds the bound the runs cannot
// tell a regression from noise, and the answer is unresolved, not ok.
func compareOne(d metricDef, a, b []float64) (verdict string, worse float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if d.Better == higher {
			worse = -worse
		}
	}
	switch {
	case len(a) == 0 || len(b) == 0, spread(a) > d.Bound, spread(b) > d.Bound:
		return verdictUnresolved, worse
	case worse > d.Bound:
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// compareSamples prints a row per workload and metric and reports whether a
// metric regressed.
func compareSamples(w io.Writer, a, b samples) (regressed bool) {
	fmt.Fprintf(w, "%-8s %-22s %14s %14s %8s %8s %8s  %s\n", "workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "verdict")
	for _, wl := range workloadNames {
		if a[wl] == nil && b[wl] == nil {
			continue
		}
		for _, d := range gated(wl) {
			va, vb := a[wl][d.Name], b[wl][d.Name]
			verdict, worse := compareOne(d, va, vb)
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(w, "%-8s %-22s %14.4f %14.4f %7.2f%% %7.2f%% %7.2f%%  %s\n",
				wl, d.Name, ma, mb, 100*worse, 100*spread(va), 100*spread(vb), verdict)
		}
	}
	return regressed
}
