package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"

	"repro/internal/vfs"
)

// buildDir is where the benchmark keeps what it writes: the probe file
// below and the span traces. It is the build directory run.sh uses, at the
// root of the checkout.
const buildDir = ".bench_build"

// printEnv prints the environment header every run starts with. The
// figures are comparable only between runs with the same header.
func printEnv(w io.Writer, workload string) {
	fmt.Fprintf(w, "# perfbench workload=%s go=%s GOMAXPROCS=%d NumCPU=%d cpu=%q\n",
		workload, goruntime.Version(), goruntime.GOMAXPROCS(0), goruntime.NumCPU(), cpuModel())
	fmt.Fprintf(w, "# wal_fs=in-process memory vfs.FS (durable-write) checkout_fs=%s fdatasync_p50_us=%s\n",
		fsType(buildDir), fdatasyncP50(buildDir))
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fdatasyncP50 probes the median latency of a 4 KiB write plus fdatasync
// in dir, the figure a WAL on that filesystem would pay per sync.
func fdatasyncP50(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "n/a"
	}
	path := filepath.Join(dir, "fdatasync-probe")
	defer os.Remove(path)
	f, err := vfs.OS.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "n/a"
	}
	defer f.Close()
	buf := make([]byte, 4096)
	lat := make([]float64, 0, 64)
	for i := 0; i < cap(lat); i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return "n/a"
		}
		if err := vfs.DataSync(f); err != nil {
			return "n/a"
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return fmt.Sprintf("%.2f", median(lat))
}
