package main

import (
	"testing"

	"repro/internal/vswitch"
)

// TestSmokeWorkloads runs every workload at a tiny size, untraced and
// traced, and expects correct outputs and every gated metric non-zero.
func TestSmokeWorkloads(t *testing.T) {
	for name, fn := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := run(fn, runConfig{seed: 3, seconds: 0.2, smoke: true}, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := len(gated)
				if traced {
					want = len(perLayer)
				}
				if len(res.Metrics) != want {
					t.Fatalf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), want)
				}
				if traced {
					continue
				}
				for _, g := range gated {
					if res.Metrics[g.name].Value <= 0 {
						t.Errorf("%s = %v, want > 0", g.name, res.Metrics[g.name].Value)
					}
				}
			}
		})
	}
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, bases: map[string]string{}}
}

// TestSimChecksFire feeds the sim conservation and digest checks one
// wrong count each.
func TestSimChecksFire(t *testing.T) {
	good := simLedger{sent: 1000, delivered: 990, linkDrops: 4, swDrops: 3, rateDrops: 2, cutover: 1}
	o := newOutcome()
	good.check(o, "good")
	checkDigest(o, 1, "abc", "abc")
	if !o.correct() {
		t.Fatalf("balanced ledger rejected: %+v", o.checks)
	}

	bad := map[string]simLedger{}
	l := good
	l.delivered--
	bad["lost packet"] = l
	l = good
	l.swUnrouted, l.delivered = 1, good.delivered-1
	bad["blackhole"] = l
	l = good
	l.torACL, l.delivered = 1, good.delivered-1
	bad["tor acl drop"] = l
	l = good
	l.delivered++
	bad["extra delivery"] = l
	l = good
	l.cutover, l.delivered = simMaxCutover+1, good.delivered-simMaxCutover
	bad["cut-over too large"] = l
	for name, l := range bad {
		o := newOutcome()
		l.check(o, name)
		if o.correct() || o.failed == 0 {
			t.Errorf("%s: check passed: %+v", name, o.checks)
		}
	}

	o = newOutcome()
	good.check(o, "good")
	checkDigest(o, 3, "abc", "abd")
	if o.correct() {
		t.Error("digest mismatch passed")
	}
}

// TestDataplaneChecksFire feeds the dataplane checks wrong counts.
func TestDataplaneChecksFire(t *testing.T) {
	good := vswitch.PlaneCounters{Packets: 100, Tx: 90, Denied: 7, Unrouted: 3}
	o := newOutcome()
	dpCheck(o, good, 100, 7, 3, 1)
	if !o.correct() {
		t.Fatalf("good counters rejected: %+v", o.checks)
	}
	cases := map[string]func(c *vswitch.PlaneCounters) (injected, denied, unrouted uint64, writes int){
		"tx short":    func(c *vswitch.PlaneCounters) (uint64, uint64, uint64, int) { c.Tx--; return 100, 7, 3, 1 },
		"unprocessed": func(c *vswitch.PlaneCounters) (uint64, uint64, uint64, int) { return 101, 7, 3, 1 },
		"wrong verdict": func(c *vswitch.PlaneCounters) (uint64, uint64, uint64, int) {
			c.Denied, c.Tx = 8, 89
			return 100, 7, 3, 1
		},
		"no writes": func(c *vswitch.PlaneCounters) (uint64, uint64, uint64, int) { return 100, 7, 3, 0 },
	}
	for name, mutate := range cases {
		c := good
		injected, denied, unrouted, writes := mutate(&c)
		o := newOutcome()
		dpCheck(o, c, injected, denied, unrouted, writes)
		if o.correct() {
			t.Errorf("%s: checks passed: %+v", name, o.checks)
		}
	}
}

// TestDaemonChecksFire feeds the landing checks wrong counts.
func TestDaemonChecksFire(t *testing.T) {
	o := newOutcome()
	dmCheck(o, 10, 10, 40, 37, 3)
	if !o.correct() {
		t.Fatalf("good counts rejected: %+v", o.checks)
	}
	for name, c := range map[string][5]int{
		"wave lost": {10, 9, 40, 37, 3},
		"pin lost":  {10, 10, 40, 36, 3},
	} {
		o := newOutcome()
		dmCheck(o, c[0], c[1], c[2], c[3], c[4])
		if o.correct() {
			t.Errorf("%s: checks passed: %+v", name, o.checks)
		}
	}
}

// TestAttribute pins the CPU-profile attribution rule.
func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/sim.(*Engine).step"}, "sim"},
		{[]string{"container/heap.down", "repro/internal/sim.(*Engine).At"}, "sim"},
		{[]string{"runtime.mallocgc", "repro/internal/sim.(*Engine).At"}, "runtime"},
		{[]string{"fmt.Sprintf", "repro/internal/rules.Pattern.String", "repro/internal/measure.emit"}, "rules"},
		{[]string{"repro/internal/rules.(*EpochPublisher[go.shape.*uint8]).Publish"}, "rules"},
		{[]string{"syscall.Syscall", "net.(*conn).Write"}, "other"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
