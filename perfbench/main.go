// Command perfbench is the repository's benchmark. It drives the
// replicated store through its public API on one of three workloads,
// checks every output against an independent reference, and prints one
// JSON result line:
//
//	perfbench --workload read-mostly --seed 1 --seconds 10 --trace 0
//	perfbench steady --runs 5
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds int
	traced  bool
	out     io.Writer // human-readable lines; the JSON line follows them
}

// outcome is what a workload hands back: its metrics, its op counts and
// the first output check that failed, if any.
type outcome struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	checkErr  error
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records the first failed output check.
func (o *outcome) fail(err error) {
	if err != nil && o.checkErr == nil {
		o.checkErr = err
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"read-mostly":   func(c runConfig) (*outcome, error) { return runLive(c, liveSpecs["read-mostly"]) },
	"write-heavy":   func(c runConfig) (*outcome, error) { return runLive(c, liveSpecs["write-heavy"]) },
	"durable-write": func(c runConfig) (*outcome, error) { return runLive(c, liveSpecs["durable-write"]) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "run length: the timed work is sized to take about this long")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics; 0: untraced run printing end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run := workloads[*workload]
	switch {
	case run == nil:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	bf, err := readBenchFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, out: stdout}
	printEnv(stdout, *workload)
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: o.checkErr == nil, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}
	if o.checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", o.checkErr)
	}
	if err := bf.checkMetrics(cfg.traced, res.Metrics); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}
	fmt.Fprintf(stdout, "# peak_rss_mib=%.0f\n", peakRSS())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
