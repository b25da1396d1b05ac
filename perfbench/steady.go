package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchFile is the part of BENCHMARK.json the steadiness command reads.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readBenchFile reads BENCHMARK.json from the root of the checkout.
func readBenchFile() (*benchFile, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// checkMetrics reports the first metric BENCHMARK.json names for this kind
// of run (end-to-end untraced, per-layer traced) that got is missing,
// carries in another unit or holds no finite value, any end-to-end figure
// that is not positive, and any metric got holds that BENCHMARK.json does
// not name.
func (bf *benchFile) checkMetrics(traced bool, got map[string]metric) error {
	want := map[string]string{}
	if traced {
		for _, m := range bf.PerLayer {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range bf.EndToEnd {
			want[m.Name] = m.Unit
		}
	}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", name)
		case m.Unit != unit:
			return fmt.Errorf("metric %s is in %s, BENCHMARK.json says %s", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s was not measured", name)
		case !traced && m.Value <= 0:
			return fmt.Errorf("metric %s reads %g", name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	return nil
}

// steadyMain runs each workload of BENCHMARK.json several times with
// successive seeds and its run_seconds, each run in its own process, and
// prints for every end-to-end metric the
// median, the quartiles and their spread as a share of the median, next
// to the metric's bound in BENCHMARK.json. It is run from the root of the
// checkout:
//
//	bash perfbench/run.sh steady --runs 10 --seed 101
func steadyMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 5, "runs per workload")
	seed := fs.Int64("seed", 1, "seed of the first run; later runs count up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bf, err := readBenchFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	status := 0
	for _, wl := range bf.Workloads {
		w := wl.Name
		values := map[string][]float64{}
		for i := 0; i < *runs; i++ {
			s := *seed + int64(i)
			res, err := runOnce(exe, w, s, bf.RunSeconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", w, s, err)
				status = 1
				continue
			}
			fmt.Fprintf(out, "%s seed %d: attempted %d failed %d correct %v;", w, s, res.Attempted, res.Failed, res.Correct)
			for _, m := range bf.EndToEnd {
				if v, ok := res.Metrics[m.Name]; ok {
					values[m.Name] = append(values[m.Name], v.Value)
					fmt.Fprintf(out, " %s=%.4g", m.Name, v.Value)
				}
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "\n%s (%d runs of %ds)\n", w, *runs, bf.RunSeconds)
		fmt.Fprintf(out, "%-18s %10s %12s %12s %12s %8s %6s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
		for _, m := range bf.EndToEnd {
			xs := values[m.Name]
			if len(xs) < 2 {
				continue
			}
			q1, q3 := quartiles(xs)
			med := pyMedian(xs)
			spread := (q3 - q1) / med
			mark := ""
			if spread > m.Bound/3 {
				mark = "  above a third of its bound"
			}
			fmt.Fprintf(out, "%-18s %10s %12.4g %12.4g %12.4g %8.4f %6.3f%s\n", m.Name, m.Unit, med, q1, q3, spread, m.Bound, mark)
		}
		fmt.Fprintln(out)
	}
	return status
}

// runOnce runs one untraced benchmark process and parses its result line.
func runOnce(exe, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("no result line: %w", jerr)
	}
	return &res, err
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// pyMedian is Python's statistics.median: the mean of the two middle
// values for an even count.
func pyMedian(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}
