// Command benchmark is the MACRO benchmark: one seeded script of business
// transactions (sagas, workflows, cooperating transactions, escrow
// restocks, read-only audits, two-counter transfers) run against four
// arrangements of the engine, with end-to-end metrics from untraced phases
// and per-layer metrics from a traced pass, public counters and standalone
// probes. README.md has the glossary and the method.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	repeat   int
	out      string
	compare  bool
	spec     bool
}

// outDir holds the trace files and the engines' scratch files.
const outDir = "benchmark/out"

// specSeconds and specSeed are what BENCHMARK.json runs the benchmark with
// and what its bounds were measured at.
const (
	specSeconds = 20
	specSeed    = 1
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "mem, durable, remote, twonode, or all")
	flag.Uint64Var(&o.seed, "seed", specSeed, "script seed; the same seed gives the same script and arrival schedule")
	flag.IntVar(&o.seconds, "seconds", specSeconds, "seconds of measured load per pass")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics; -1: both passes")
	flag.IntVar(&o.repeat, "repeat", 0, "run the end-to-end pass this many times on the seed and print each metric's median, quartiles and spread")
	flag.StringVar(&o.out, "out", "", "with -repeat: also write the samples to this file, for -compare")
	flag.BoolVar(&o.compare, "compare", false, "compare two -repeat sample files (arguments A.json B.json) under the bounds")
	flag.BoolVar(&o.spec, "print-spec", false, "print BENCHMARK.json as the metric tables define it")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch {
	case o.spec:
		return printSpec(os.Stdout)
	case o.compare:
		return compareFiles(flag.Args())
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	names := workloadNames
	if o.workload != "all" {
		if _, ok := openRate[o.workload]; !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		names = []string{o.workload}
	}
	// The engines live under the benchmark's own directory; the source
	// tree must be there, which also makes a checkout holding only the
	// benchmark's files an error rather than a silent success.
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	cfg := runConfig{seed: o.seed, seconds: o.seconds, scratch: filepath.Join(outDir, "scratch")}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.scratch) //nolint:errcheck // scratch
	fmt.Printf("MACRO benchmark: seed %d, %d s per pass, C=%d clients, GOMAXPROCS=%d\n", o.seed, o.seconds, clients(), runtime.GOMAXPROCS(0))
	if o.repeat > 0 {
		return repeatRuns(cfg, names, o.repeat, o.out)
	}

	var last []byte
	bad := false
	for _, wl := range names {
		cfg.workload = wl
		line := resultLine{Correct: true, Metrics: map[string]reportValue{}}
		// pass runs one pass, prints what it measured and puts the metrics
		// the driver reads from it into the line.
		pass := func(f func(runConfig) (*runResult, error), printed, driver []metricDef) error {
			res, err := guarded(f, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", wl, err)
			}
			if err := res.metrics.known(printed); err != nil {
				return err
			}
			for _, d := range printed {
				fmt.Printf("%s %-34s %16.4f %s\n", wl, d.Name, res.metrics[d.Name], d.Unit)
			}
			for _, v := range res.violations {
				fmt.Printf("%s VIOLATION %s\n", wl, v)
			}
			line.Correct = line.Correct && len(res.violations) == 0
			line.Attempted += res.attempted
			line.Failed += res.failed
			for _, d := range driver {
				line.Metrics[d.Name] = reportValue{Value: res.metrics[d.Name], Unit: d.Unit}
			}
			return nil
		}
		if o.trace != 1 {
			if err := pass(runEndToEnd, append(gated(wl), failRatio), endToEnd); err != nil {
				return err
			}
		}
		if o.trace != 0 {
			if err := pass(runTraced, perLayer, perLayer); err != nil {
				return err
			}
		}
		fmt.Printf("%s attempted %d failed %d correct %v\n", wl, line.Attempted, line.Failed, line.Correct)
		bad = bad || !line.Correct
		var err error
		if last, err = json.Marshal(line); err != nil {
			return err
		}
		if len(names) > 1 {
			fmt.Printf("%s %s\n", wl, last)
		}
	}
	if bad {
		return fmt.Errorf("the correctness checker found violations")
	}
	// The result of the (last) workload, as the last line of output.
	fmt.Printf("%s\n", last)
	return nil
}

// repeatRuns is -repeat: n end-to-end runs of the seed per workload, then
// each metric's spread. A run with a violation or a failed transaction is
// rejected: its figures are left out, the others are still reported, and
// the command fails.
func repeatRuns(cfg runConfig, names []string, n int, out string) error {
	all := samples{}
	rejected := 0
	for _, wl := range names {
		all[wl] = map[string][]float64{}
		cfg.workload = wl
		for i := 0; i < n; i++ {
			res, err := guarded(runEndToEnd, cfg)
			if err != nil {
				return fmt.Errorf("%s, run %d: %w", wl, i+1, err)
			}
			if len(res.violations) != 0 || res.failed != 0 {
				rejected++
				fmt.Printf("%s run %d rejected: %d failed, violations %v\n", wl, i+1, res.failed, res.violations)
				continue
			}
			for _, d := range gated(wl) {
				all[wl][d.Name] = append(all[wl][d.Name], res.metrics[d.Name])
			}
			fmt.Printf("%s run %d done\n", wl, i+1)
		}
	}
	printSpreads(os.Stdout, all)
	if out != "" {
		data, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
	}
	if rejected > 0 {
		return fmt.Errorf("%d runs were rejected for violations", rejected)
	}
	return nil
}

// compareFiles is -compare: the second sample file against the first.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two sample files")
	}
	a, err := readSamples(paths[0])
	if err != nil {
		return err
	}
	b, err := readSamples(paths[1])
	if err != nil {
		return err
	}
	if compareSamples(os.Stdout, a, b) {
		return fmt.Errorf("at least one bounded metric regressed beyond its bound")
	}
	return nil
}

// passDeadline bounds one pass over one workload. The engine has waits no
// detector sees (README.md, "What the mix leaves out"); should a run ever
// wedge on one, the benchmark must fail loudly inside the driver's time cap
// rather than hang.
const passDeadline = 170 * time.Second

func guarded(f func(runConfig) (*runResult, error), cfg runConfig) (*runResult, error) {
	watchdog := time.AfterFunc(passDeadline, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s did not finish within %v\n", cfg.workload, passDeadline)
		os.Exit(2)
	})
	defer watchdog.Stop()
	return f(cfg)
}

// resultLine is the one JSON object the driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]reportValue `json:"metrics"`
}

// printSpec writes BENCHMARK.json from the tables this program reports by,
// so the file and the output cannot drift apart.
func printSpec(w *os.File) error {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	why := map[string]string{
		wlMem:     "in-process manager with no log: core, lock, dep, models and workflow do the work, so CPU-path and allocation changes show here",
		wlDurable: fmt.Sprintf("same script on a group-commit WAL on disk, an fsync per cohort held to at least %d us: the force wait dominates, so log changes show and CPU changes barely do", forceFloor.Microseconds()),
		wlRemote:  "same script through client sessions to a server on loopback TCP: framing, hops and dedup dominate and the log is idle",
		wlTwoNode: "two durable servers owning alternate keys plus a coordinator: every xfer is 2PC, the only workload where txcoord works",
	}
	var spec struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []perLayerDef `json:"per_layer"`
	}
	spec.Command = []string{"bash", "benchmark/run.sh"}
	spec.Paths = []string{"benchmark"}
	spec.RunSeconds = specSeconds
	for _, wl := range workloadNames {
		spec.Workloads = append(spec.Workloads, workloadDef{wl, fmt.Sprintf("%s; open_rate_txn_s=%.0f C=%d nproc=%d seed=%d",
			why[wl], openRate[wl], clients(), runtime.GOMAXPROCS(0), specSeed)})
	}
	spec.EndToEnd = endToEnd
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, perLayerDef{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

type perLayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}
