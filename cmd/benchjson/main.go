// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a stable JSON document on stdout — the format of the checked-in
// BENCH_BASELINE.json that tracks the fast-path performance floor.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson > BENCH_BASELINE.json
//
// Only benchmark result lines are parsed; context lines (nproc/goos/
// goarch/cpu/pkg, PASS, ok) set metadata or are ignored. The JSON is
// deterministic: benchmarks appear in input order and keys are fixed.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"b_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	// Metrics holds custom b.ReportMetric units (e.g. "pps",
	// "pps/core" from BenchmarkPipeline). encoding/json sorts map
	// keys, so output stays deterministic.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Baseline is the whole document.
type Baseline struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Nproc      int      `json:"nproc,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	var base Baseline
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			base.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			base.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			base.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "nproc:"):
			base.Nproc, _ = strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "nproc:")))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				r.Package = pkg
				base.Benchmarks = append(base.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write: %v\n", err)
		os.Exit(1)
	}
}

// parseLine parses one result line, e.g.
//
//	BenchmarkMarshal/pooled-8  3862762  95.87 ns/op  0 B/op  0 allocs/op
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	name := f[0]
	// Strip the -GOMAXPROCS suffix.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		val, unit := f[i], f[i+1]
		switch unit {
		case "ns/op":
			r.NsPerOp, _ = strconv.ParseFloat(val, 64)
		case "B/op":
			if n, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.BytesPerOp = &n
			}
		case "allocs/op":
			if n, err := strconv.ParseInt(val, 10, 64); err == nil {
				r.AllocsPerOp = &n
			}
		case "MB/s":
			r.MBPerSec, _ = strconv.ParseFloat(val, 64)
		default:
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
	}
	return r, r.NsPerOp > 0
}
