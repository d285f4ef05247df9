// Command benchmark is the repository benchmark: one binary that drives
// four workloads through the public entry points of the simulator, the
// sharded data plane and the service daemons, checks their outputs, and
// prints every end-to-end metric by name with its unit. With --trace 1 it
// runs the workload twice, untraced then traced, and prints the per-layer
// metrics and the tracing overhead instead.
//
//	bash benchmark/run.sh --workload sim-rack --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md in this directory
// explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// gated lists the end-to-end metrics every workload reports with tracing
// off, in print order. Each workload maps its own figures onto them; see
// README.md for the per-workload meaning.
var gated = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"heap_mb", "MB"},
}

// runConfig is what a workload receives: its seed, how long to measure,
// and the tracer (nil for an untraced run).
type runConfig struct {
	seed    int64
	seconds float64
	tr      *tracer
	// smoke shrinks every workload to a size the self-test can run in a
	// few seconds.
	smoke bool
}

// named is one workload-specific metric printed in the report table.
type named struct {
	name  string
	value float64
	unit  string
	note  string
}

// outcome is one measured run of a workload.
type outcome struct {
	attempted, failed int64
	checks            []check
	// e2e holds the gated end-to-end metrics by name.
	e2e map[string]float64
	// report holds the workload's own metric names (virtual_per_wall,
	// dp_mpps, pin_ms_p50, ...) for the human-readable table.
	report []named
	// layers holds per-layer metrics gathered from public counters; a
	// traced run adds CPU attribution and span statistics.
	layers map[string]float64
	// bases describes the denominator of each ratio in layers.
	bases map[string]string
	// digest is the deterministic output digest (sim workloads only).
	digest string
}

// check is one output-correctness check.
type check struct {
	name   string
	ok     bool
	detail string
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return o.failed == 0 && len(o.checks) > 0
}

type workloadFunc func(runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"sim-rack":  runSimRack,
	"sim-scale": runSimScale,
	"dataplane": runDataplane,
	"daemons":   runDaemons,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: sim-rack, sim-scale, dataplane or daemons")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "1 = untraced pass, then traced pass with per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	printEnv()
	res, err := run(fn, runConfig{seed: *seed, seconds: *seconds}, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one untraced measurement, or an untraced then a traced one,
// prints the report and returns the result line.
func run(fn workloadFunc, cfg runConfig, traced bool) (resultJSON, error) {
	if !traced {
		o, err := fn(cfg)
		if err != nil {
			return resultJSON{}, err
		}
		printOutcome("untraced", o)
		res := resultOf(o)
		for _, g := range gated {
			res.Metrics[g.name] = metricJSON{Value: o.e2e[g.name], Unit: g.unit}
		}
		return res, nil
	}

	half := cfg
	half.seconds = cfg.seconds / 2
	plain, err := fn(half)
	if err != nil {
		return resultJSON{}, err
	}
	printOutcome("untraced", plain)

	half.tr = newTracer()
	prof := startProfile()
	tracedOut, err := fn(half)
	cpu := prof.stop()
	if err != nil {
		return resultJSON{}, err
	}
	for layer, ms := range cpu {
		tracedOut.layers[layer+".cpu_ms"] = ms
	}
	// The sim vswitch runs inside engine callbacks, so its per-packet cost
	// comes from the profile.
	if n := tracedOut.layers["vswitch.packets"]; n > 0 && tracedOut.layers["vswitch.ns_per_pkt"] == 0 {
		tracedOut.layers["vswitch.ns_per_pkt"] = tracedOut.layers["vswitch.cpu_ms"] * 1e6 / n
		tracedOut.bases["vswitch.ns_per_pkt"] = fmt.Sprintf("%.0f packets through the sim vswitch, CPU from the profile", n)
	}
	half.tr.addLayers(tracedOut.layers)
	printOutcome("traced", tracedOut)

	// Tracing must not change what the program computes.
	if plain.digest != tracedOut.digest {
		tracedOut.check("traced digest equals untraced", false, "untraced %s traced %s", plain.digest, tracedOut.digest)
	}
	overhead := 0.0
	if base := plain.e2e["throughput"]; base > 0 {
		overhead = 100 * (base - tracedOut.e2e["throughput"]) / base
	}
	tracedOut.layers["trace.overhead_pct"] = overhead
	tracedOut.bases["trace.overhead_pct"] = fmt.Sprintf("throughput %.6g untraced vs %.6g traced", plain.e2e["throughput"], tracedOut.e2e["throughput"])
	printOverhead(plain, tracedOut)
	printLayers(tracedOut)

	res := resultOf(tracedOut)
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	res.Correct = res.Correct && plain.correct()
	for _, l := range perLayer {
		res.Metrics[l.name] = metricJSON{Value: tracedOut.layers[l.name], Unit: l.unit}
	}
	return res, nil
}

func resultOf(o *outcome) resultJSON {
	att := o.attempted
	if att < 1 {
		att = 1
	}
	return resultJSON{
		Correct:   o.correct(),
		Attempted: att,
		Failed:    o.failed,
		Metrics:   make(map[string]metricJSON),
	}
}

// printEnv records the machine the numbers were taken on.
func printEnv() {
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printOutcome(pass string, o *outcome) {
	fmt.Printf("== %s pass\n", pass)
	for _, c := range o.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Printf("check %s %-34s %s\n", status, c.name, c.detail)
	}
	fmt.Printf("attempted=%d failed=%d error_rate=%.6g\n", o.attempted, o.failed, errorRate(o))
	if o.digest != "" {
		fmt.Printf("digest %s\n", o.digest)
	}
	for _, g := range gated {
		fmt.Printf("e2e   %-22s %14.6g %s\n", g.name, o.e2e[g.name], g.unit)
	}
	for _, m := range o.report {
		fmt.Printf("named %-22s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
}

func errorRate(o *outcome) float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}

func printOverhead(plain, traced *outcome) {
	fmt.Println("tracing overhead (traced minus untraced, same seed, half the time each):")
	for _, g := range gated {
		a, b := plain.e2e[g.name], traced.e2e[g.name]
		pct := 0.0
		if a != 0 {
			pct = 100 * (b - a) / a
		}
		fmt.Printf("  %-22s untraced %12.6g traced %12.6g %s (%+.2f%%)\n", g.name, a, b, g.unit, pct)
	}
}

func printLayers(o *outcome) {
	fmt.Println("per-layer (traced pass):")
	names := make([]string, 0, len(perLayer))
	for _, l := range perLayer {
		names = append(names, l.name)
	}
	sort.Strings(names)
	units := make(map[string]string)
	for _, l := range perLayer {
		units[l.name] = l.unit
	}
	for _, n := range names {
		base := o.bases[n]
		if base != "" {
			base = "(of " + base + ")"
		}
		fmt.Printf("  %-28s %14.6g %-6s %s\n", n, o.layers[n], units[n], base)
	}
}

// since returns seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
