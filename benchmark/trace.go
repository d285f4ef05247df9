package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// perLayer lists the per-layer metrics every traced run reports. Layers
// are named after the internal/ packages; a layer a workload does not
// reach reports 0.
var perLayer = []struct{ name, unit string }{
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.cpu_ms", "ms"},
	{"runtime.allocs_per_event", "count"},
	{"runtime.gc_cpu_ms", "ms"},
	{"runtime.cpu_ms", "ms"},
	{"host.cpu_ms", "ms"},
	{"fabric.cpu_ms", "ms"},
	{"vswitch.cpu_ms", "ms"},
	{"rules.cpu_ms", "ms"},
	{"measure.cpu_ms", "ms"},
	{"measure.reports", "count"},
	{"core.cpu_ms", "ms"},
	{"core.decide_cycles", "count"},
	{"core.retries", "count"},
	{"core.giveups", "count"},
	{"decision.cpu_ms", "ms"},
	{"tor.cpu_ms", "ms"},
	{"tor.tcam_installs", "count"},
	{"tor.tcam_rejects", "count"},
	{"vswitch.ns_per_pkt", "ns"},
	{"vswitch.pkts_per_vector", "count"},
	{"vswitch.exact_hit_ratio", "ratio"},
	{"vswitch.megaflow_hit_ratio", "ratio"},
	{"vswitch.upcalls", "count"},
	{"vswitch.epoch_flushes", "count"},
	{"rules.publish_us", "us"},
	{"tunnel.cpu_ms", "ms"},
	{"packet.cpu_ms", "ms"},
	{"openflow.messages", "count"},
	{"openflow.bytes", "bytes"},
	{"openflow.cpu_ms", "ms"},
	{"service.cpu_ms", "ms"},
	{"service.lag_ms_p99", "ms"},
	{"adminapi.cpu_ms", "ms"},
	{"adminapi.req_ms_p50", "ms"},
	{"other.cpu_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// tracer records spans around the benchmark's calls into each layer's
// public functions. A nil *tracer records nothing, so untraced runs pay
// only a nil check.
type tracer struct {
	start time.Time
	spans []span
}

type span struct {
	name       string
	start, end time.Duration
	parent     int // index into spans, -1 for a root
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.start), parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = time.Since(t.start)
}

// spanStats summarises the closed spans of one name.
type spanStats struct {
	count int
	total time.Duration
	self  time.Duration
	p50   time.Duration
	p99   time.Duration
}

// stats groups spans by name. A span's self time is its duration minus
// the time its direct children cover.
func (t *tracer) stats() map[string]*spanStats {
	if t == nil {
		return nil
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end > 0 {
			child[s.parent] += s.end - s.start
		}
	}
	durs := make(map[string][]float64)
	out := make(map[string]*spanStats)
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		d := s.end - s.start
		st.count++
		st.total += d
		st.self += d - child[i]
		durs[s.name] = append(durs[s.name], float64(d))
	}
	for name, ds := range durs {
		out[name].p50 = time.Duration(quantile(ds, 0.50))
		out[name].p99 = time.Duration(quantile(ds, 0.99))
	}
	return out
}

// addLayers prints the span table, writes the spans out, and derives the
// span-based per-layer metrics.
func (t *tracer) addLayers(layers map[string]float64) {
	st := t.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("spans (traced pass):")
	for _, n := range names {
		s := st[n]
		fmt.Printf("  %-28s n=%-8d total=%-12v self=%-12v p50=%-10v p99=%v\n",
			n, s.count, s.total.Round(time.Microsecond), s.self.Round(time.Microsecond),
			s.p50.Round(time.Microsecond/10), s.p99.Round(time.Microsecond/10))
	}
	if s := st["rules.publish"]; s != nil {
		layers["rules.publish_us"] = float64(s.p50) / 1e3
	}
	if s := st["adminapi.request"]; s != nil {
		layers["adminapi.req_ms_p50"] = float64(s.p50) / 1e6
	}
	if err := t.write(".bench_build/spans.json"); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: write spans: %v\n", err)
	}
}

// write stores the spans as Chrome trace-event JSON (complete events).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	b.WriteString("[")
	for i, s := range t.spans {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, `{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"parent":%d}}`,
			s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.parent)
	}
	b.WriteString("]\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// cpuProfile is a running runtime/pprof CPU profile.
type cpuProfile struct {
	buf bytes.Buffer
	on  bool
}

func startProfile() *cpuProfile {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: cpu profile: %v\n", err)
		return p
	}
	p.on = true
	return p
}

// stop ends the profile and returns CPU milliseconds per layer. A sample
// goes to the package of its leaf frame. Leaves in standard-library
// packages other than runtime (container/heap, fmt, sort, syscall, ...)
// go to the nearest caller in this repository, so a heap operation the
// sim engine makes counts as sim; runtime leaves (allocation, GC, maps,
// scheduling) count as runtime.
func (p *cpuProfile) stop() map[string]float64 {
	out := make(map[string]float64)
	if !p.on {
		return out
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(p.buf.Bytes())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: parse cpu profile: %v\n", err)
		return out
	}
	known := make(map[string]bool)
	for _, l := range perLayer {
		if layer, ok := strings.CutSuffix(l.name, ".cpu_ms"); ok {
			known[layer] = true
		}
	}
	for _, s := range samples {
		layer := attribute(s.stack)
		if !known[layer] {
			layer = "other"
		}
		out[layer] += float64(s.nanos) / 1e6
	}
	return out
}

// attribute picks the layer of one sampled stack (leaf first).
func attribute(stack []string) string {
	for _, fn := range stack {
		pkg := funcPackage(fn)
		switch {
		case pkg == "runtime":
			return "runtime"
		case strings.HasPrefix(pkg, "repro/internal/"):
			return strings.TrimPrefix(pkg, "repro/internal/")
		case pkg == "repro" || pkg == "main":
			return "other"
		}
	}
	return "other"
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/sim.(*Engine).step" or
// "repro/internal/rules.(*EpochPublisher[...]).Publish".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profSample is one CPU profile sample: its stack (leaf first, inlined
// frames expanded) and the CPU time it stands for.
type profSample struct {
	stack []string
	nanos int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes. Only the fields attribution needs are read: samples, locations
// with their lines, functions and the string table.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = make(map[uint64][]uint64) // location id → function ids, innermost first
		funcs   = make(map[uint64]int64)    // function id → name string index
		strs    []string
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendUints(s.locs, w, v, b)
				case 2:
					for _, u := range pbAppendUints(nil, w, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		ps := profSample{nanos: s.values[1]}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := funcs[f]; idx >= 0 && int(idx) < len(strs) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// pbFields walks one protobuf message, calling fn per field with the
// varint value (wire type 0) or the bytes (wire type 2).
func pbFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbAppendUints appends a repeated varint field that may be packed.
func pbAppendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
