package fastrak

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/host"
	"repro/internal/packet"
	"repro/internal/telemetry"
)

// runTracedScenario builds a deterministic deployment — two tenants,
// request/response traffic at different rates, a live migration halfway —
// with telemetry enabled, and returns the three export byte streams.
func runTracedScenario(t *testing.T, seed int64) (trace, prom, csv []byte) {
	t.Helper()
	d, err := NewDeployment(Options{Servers: 3, TCAMCapacity: 8, Seed: seed,
		Controller: ControllerOptions{Epoch: 100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	tel := d.EnableTelemetry(TelemetryOptions{SampleInterval: 50 * time.Millisecond})

	type pair struct{ c, s *host.VM }
	var pairs []pair
	for i, spec := range []struct {
		tenant uint32
		cIP    string
		sIP    string
	}{
		{7, "10.7.0.1", "10.7.0.2"},
		{8, "10.8.0.1", "10.8.0.2"},
	} {
		c, err := d.AddVM(i%3, spec.tenant, spec.cIP, VMOptions{VCPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := d.AddVM((i+1)%3, spec.tenant, spec.sIP, VMOptions{VCPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		s.BindApp(9000, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
			vm.Send(p.IP.Src, 9000, p.TCP.SrcPort, 256, host.SendOptions{Seq: p.Meta.Seq}, nil)
		}))
		pairs = append(pairs, pair{c, s})
	}
	for i, p := range pairs {
		p := p
		period := time.Millisecond << uint(i) // different rates per tenant
		d.Cluster.Eng.Every(period, func() {
			p.c.Send(p.s.Key.IP, 40000, 9000, 128, host.SendOptions{}, nil)
		})
	}
	d.Cluster.Eng.After(800*time.Millisecond, func() {
		if err := d.MigrateVM(1, 2, 7, "10.7.0.2"); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})

	d.Start()
	d.Run(1500 * time.Millisecond)
	d.Stop()

	var tb, pb, cb bytes.Buffer
	if err := telemetry.WriteChromeTrace(&tb, tel.Recorder, tel.Sampler); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WritePrometheus(&pb, tel.Registry); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteSeriesCSV(&cb, tel.Sampler); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), pb.Bytes(), cb.Bytes()
}

// TestTelemetryExportsAreDeterministic is the repo's determinism guard
// for the observability subsystem: two runs from the same seed must
// produce byte-identical trace, Prometheus and CSV exports. Any map-order
// leak, non-deterministic float formatting, or stray wall-clock read
// breaks the hash equality here.
func TestTelemetryExportsAreDeterministic(t *testing.T) {
	t1, p1, c1 := runTracedScenario(t, 42)
	t2, p2, c2 := runTracedScenario(t, 42)
	for _, x := range []struct {
		name string
		a, b []byte
	}{{"trace", t1, t2}, {"prometheus", p1, p2}, {"csv", c1, c2}} {
		ha, hb := sha256.Sum256(x.a), sha256.Sum256(x.b)
		if ha != hb {
			t.Errorf("%s export is not deterministic: %x != %x (lens %d, %d)",
				x.name, ha[:8], hb[:8], len(x.a), len(x.b))
		}
	}
	// The deterministic bytes must also be conformant bytes: the same
	// exposition text the daemons serve live on /metrics has to pass the
	// strict format linter, or every Prometheus scrape of a service
	// deployment would choke on it.
	if err := telemetry.LintPrometheus(bytes.NewReader(p1)); err != nil {
		t.Errorf("prometheus export fails exposition lint: %v", err)
	}
	// A different seed must actually change the trace — guards against
	// the degenerate "deterministically empty" pass.
	t3, _, _ := runTracedScenario(t, 43)
	if bytes.Equal(t1, t3) {
		t.Error("trace export is seed-independent; the recorder is not seeing the run")
	}
}

// runTracedTieredScenario is the SmartNIC-enabled variant: per-server
// NICs and a TCAM squeezed to two offloads, so the run produces NIC-tier
// installs, hardware hits and placement-change events alongside the
// 2-level machinery's.
func runTracedTieredScenario(t *testing.T, seed int64) (trace, prom, csv []byte) {
	t.Helper()
	d, err := NewDeployment(Options{Servers: 3, TCAMCapacity: 8, Seed: seed,
		SmartNICCapacity: 8,
		Controller: ControllerOptions{Epoch: 100 * time.Millisecond, MaxOffloads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Sample hits densely: per-NIC scopes see a few hundred hits in this
	// short run, far under the default 1024-hit sampling period.
	tel := d.EnableTelemetry(TelemetryOptions{SampleInterval: 50 * time.Millisecond,
		HitSampleEvery: 16})

	type pair struct{ c, s *host.VM }
	var pairs []pair
	for i, spec := range []struct {
		tenant uint32
		cIP    string
		sIP    string
	}{
		{7, "10.7.0.1", "10.7.0.2"},
		{8, "10.8.0.1", "10.8.0.2"},
		{9, "10.9.0.1", "10.9.0.2"},
	} {
		c, err := d.AddVM(i%3, spec.tenant, spec.cIP, VMOptions{VCPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := d.AddVM((i+1)%3, spec.tenant, spec.sIP, VMOptions{VCPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		s.BindApp(9000, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
			vm.Send(p.IP.Src, 9000, p.TCP.SrcPort, 256, host.SendOptions{Seq: p.Meta.Seq}, nil)
		}))
		pairs = append(pairs, pair{c, s})
	}
	for i, p := range pairs {
		p := p
		period := time.Millisecond << uint(i) // different rates per tenant
		d.Cluster.Eng.Every(period, func() {
			p.c.Send(p.s.Key.IP, 40000, 9000, 128, host.SendOptions{}, nil)
		})
	}

	d.Start()
	d.Run(1500 * time.Millisecond)
	d.Stop()

	var tb, pb, cb bytes.Buffer
	if err := telemetry.WriteChromeTrace(&tb, tel.Recorder, tel.Sampler); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WritePrometheus(&pb, tel.Registry); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteSeriesCSV(&cb, tel.Sampler); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), pb.Bytes(), cb.Bytes()
}

// TestTelemetryTieredExportsAreDeterministic extends the determinism
// guard to the SmartNIC tier: with NICs installed and the placement
// ladder active, two runs from the same seed must still produce
// byte-identical exports, and the trace must actually contain the NIC
// tier's event kinds (otherwise the guard is vacuous).
func TestTelemetryTieredExportsAreDeterministic(t *testing.T) {
	t1, p1, c1 := runTracedTieredScenario(t, 42)
	t2, p2, c2 := runTracedTieredScenario(t, 42)
	for _, x := range []struct {
		name string
		a, b []byte
	}{{"trace", t1, t2}, {"prometheus", p1, p2}, {"csv", c1, c2}} {
		ha, hb := sha256.Sum256(x.a), sha256.Sum256(x.b)
		if ha != hb {
			t.Errorf("tiered %s export is not deterministic: %x != %x (lens %d, %d)",
				x.name, ha[:8], hb[:8], len(x.a), len(x.b))
		}
	}
	if err := telemetry.LintPrometheus(bytes.NewReader(p1)); err != nil {
		t.Errorf("tiered prometheus export fails exposition lint: %v", err)
	}
	events, _, err := telemetry.ReadChromeTrace(bytes.NewReader(t1))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, te := range events {
		if te.Args != nil {
			seen[te.Args.Kind] = true
		}
	}
	for _, kind := range []string{"nic-install", "nic-hit", "placement-change"} {
		if !seen[kind] {
			t.Errorf("trace is missing %q events; the NIC tier is not being recorded", kind)
		}
	}
	t3, _, _ := runTracedTieredScenario(t, 43)
	if bytes.Equal(t1, t3) {
		t.Error("tiered trace export is seed-independent; the recorder is not seeing the run")
	}
}

// runTracedSketchScenario is the streaming-accounting variant: demand
// measured through the count-min + space-saving accountant, so the run
// produces sketch-report events alongside the standard machinery's.
func runTracedSketchScenario(t *testing.T, seed int64) (trace, prom, csv []byte) {
	t.Helper()
	d, err := NewDeployment(Options{Servers: 3, TCAMCapacity: 8, Seed: seed,
		SketchAccounting: true, SketchTopK: 128,
		Controller: ControllerOptions{Epoch: 100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	tel := d.EnableTelemetry(TelemetryOptions{SampleInterval: 50 * time.Millisecond})

	type pair struct{ c, s *host.VM }
	var pairs []pair
	for i, spec := range []struct {
		tenant uint32
		cIP    string
		sIP    string
	}{
		{7, "10.7.0.1", "10.7.0.2"},
		{8, "10.8.0.1", "10.8.0.2"},
	} {
		c, err := d.AddVM(i%3, spec.tenant, spec.cIP, VMOptions{VCPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := d.AddVM((i+1)%3, spec.tenant, spec.sIP, VMOptions{VCPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		s.BindApp(9000, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
			vm.Send(p.IP.Src, 9000, p.TCP.SrcPort, 256, host.SendOptions{Seq: p.Meta.Seq}, nil)
		}))
		pairs = append(pairs, pair{c, s})
	}
	for i, p := range pairs {
		p := p
		period := time.Millisecond << uint(i) // different rates per tenant
		d.Cluster.Eng.Every(period, func() {
			p.c.Send(p.s.Key.IP, 40000, 9000, 128, host.SendOptions{}, nil)
		})
	}

	d.Start()
	d.Run(1500 * time.Millisecond)
	d.Stop()

	var tb, pb, cb bytes.Buffer
	if err := telemetry.WriteChromeTrace(&tb, tel.Recorder, tel.Sampler); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WritePrometheus(&pb, tel.Registry); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteSeriesCSV(&cb, tel.Sampler); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), pb.Bytes(), cb.Bytes()
}

// TestTelemetrySketchExportsAreDeterministic extends the determinism
// guard to sketch accounting mode: with the accountant feeding the ME,
// two same-seed runs must still hash
// identically, and the trace must actually contain sketch-report events
// (otherwise the guard is vacuous).
func TestTelemetrySketchExportsAreDeterministic(t *testing.T) {
	t1, p1, c1 := runTracedSketchScenario(t, 42)
	t2, p2, c2 := runTracedSketchScenario(t, 42)
	for _, x := range []struct {
		name string
		a, b []byte
	}{{"trace", t1, t2}, {"prometheus", p1, p2}, {"csv", c1, c2}} {
		ha, hb := sha256.Sum256(x.a), sha256.Sum256(x.b)
		if ha != hb {
			t.Errorf("sketch %s export is not deterministic: %x != %x (lens %d, %d)",
				x.name, ha[:8], hb[:8], len(x.a), len(x.b))
		}
	}
	events, _, err := telemetry.ReadChromeTrace(bytes.NewReader(t1))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, te := range events {
		if te.Args != nil {
			seen[te.Args.Kind] = true
		}
	}
	for _, kind := range []string{"sketch-report", "offload-decision"} {
		if !seen[kind] {
			t.Errorf("trace is missing %q events; sketch accounting is not being recorded", kind)
		}
	}
	t3, _, _ := runTracedSketchScenario(t, 43)
	if bytes.Equal(t1, t3) {
		t.Error("sketch trace export is seed-independent; the recorder is not seeing the run")
	}
}

// TestTelemetryTraceIsCausal checks the acceptance ordering on the
// migrated tenant's hot flow: upcall -> offload-decision -> tcam-install
// -> migration-start appear in increasing global sequence order.
func TestTelemetryTraceIsCausal(t *testing.T) {
	trace, _, _ := runTracedScenario(t, 42)
	events, _, err := telemetry.ReadChromeTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	firstSeq := map[string]uint64{}
	for _, te := range events {
		if te.Args == nil || te.Args.Tenant != 7 {
			continue
		}
		if _, ok := firstSeq[te.Args.Kind]; !ok {
			firstSeq[te.Args.Kind] = te.Args.Seq
		}
	}
	order := []string{"upcall", "offload-decision", "tcam-install", "migration-start"}
	for i := 0; i < len(order)-1; i++ {
		a, aok := firstSeq[order[i]]
		b, bok := firstSeq[order[i+1]]
		if !aok || !bok {
			t.Fatalf("missing %q or %q events for tenant 7 (have %v)", order[i], order[i+1], firstSeq)
		}
		if a >= b {
			t.Errorf("causality violated: first %q (seq %d) not before first %q (seq %d)",
				order[i], a, order[i+1], b)
		}
	}
}

// runTracedHAScenario is the control-plane HA variant: two TOR DE
// replicas with rule leases, a severed election channel that
// manufactures dueling leaders (the deposed one's installs are fenced),
// then a full control-plane outage (leader crashed, standby paused) long
// enough for placer and TCAM leases to lapse. It exercises the election,
// fence-reject and lease-expire event kinds under the recorder.
func runTracedHAScenario(t *testing.T, seed int64) (trace, prom, csv []byte) {
	t.Helper()
	d, err := NewDeployment(Options{Servers: 3, TCAMCapacity: 8, Seed: seed,
		Controller: ControllerOptions{Epoch: 100 * time.Millisecond,
			Replicas: 2, LeaseTTL: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	tel := d.EnableTelemetry(TelemetryOptions{SampleInterval: 50 * time.Millisecond})

	type pair struct{ c, s *host.VM }
	var pairs []pair
	for i, spec := range []struct {
		tenant uint32
		cIP    string
		sIP    string
	}{
		{7, "10.7.0.1", "10.7.0.2"},
		{8, "10.8.0.1", "10.8.0.2"},
	} {
		c, err := d.AddVM(i%3, spec.tenant, spec.cIP, VMOptions{VCPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		s, err := d.AddVM((i+1)%3, spec.tenant, spec.sIP, VMOptions{VCPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		s.BindApp(9000, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
			vm.Send(p.IP.Src, 9000, p.TCP.SrcPort, 256, host.SendOptions{Seq: p.Meta.Seq}, nil)
		}))
		pairs = append(pairs, pair{c, s})
	}
	for i, p := range pairs {
		p := p
		period := time.Millisecond << uint(i)
		d.Cluster.Eng.Every(period, func() {
			p.c.Send(p.s.Key.IP, 40000, 9000, 128, host.SendOptions{}, nil)
		})
	}

	inj := faults.NewInjector(d.Cluster.Eng, seed)
	d.Cluster.RegisterFaults(inj)
	d.Manager.RegisterFaults(inj)
	plan := faults.Plan{Events: []faults.Event{
		// Isolate the leader's election plane while it still reaches the
		// switch: the standby claims the next term and the stale leader's
		// installs bounce off the fence.
		{At: 500 * time.Millisecond, Kind: faults.ChannelDown, Target: "elect0.0-1",
			Duration: 800 * time.Millisecond},
		// Full control-plane outage, longer than the lease TTL: placer
		// rules expire at TTL/2 and TCAM rules at TTL.
		{At: 1800 * time.Millisecond, Kind: faults.ControllerCrash, Target: "torctl0",
			Duration: 1200 * time.Millisecond},
		{At: 1800 * time.Millisecond, Kind: faults.ControllerPause, Target: "torctl0.1",
			Duration: 1200 * time.Millisecond},
	}}
	if err := inj.Apply(plan); err != nil {
		t.Fatal(err)
	}

	d.Start()
	d.Run(3400 * time.Millisecond)
	d.Stop()

	var tb, pb, cb bytes.Buffer
	if err := telemetry.WriteChromeTrace(&tb, tel.Recorder, tel.Sampler); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WritePrometheus(&pb, tel.Registry); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteSeriesCSV(&cb, tel.Sampler); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), pb.Bytes(), cb.Bytes()
}

// TestTelemetryHAExportsAreDeterministic extends the determinism guard to
// the control-plane HA machinery: with elections, fencing and lease
// expiry in the run, two same-seed runs must still hash identically, and
// the trace must actually contain the HA event kinds (otherwise the
// guard is vacuous).
func TestTelemetryHAExportsAreDeterministic(t *testing.T) {
	t1, p1, c1 := runTracedHAScenario(t, 42)
	t2, p2, c2 := runTracedHAScenario(t, 42)
	for _, x := range []struct {
		name string
		a, b []byte
	}{{"trace", t1, t2}, {"prometheus", p1, p2}, {"csv", c1, c2}} {
		ha, hb := sha256.Sum256(x.a), sha256.Sum256(x.b)
		if ha != hb {
			t.Errorf("HA %s export is not deterministic: %x != %x (lens %d, %d)",
				x.name, ha[:8], hb[:8], len(x.a), len(x.b))
		}
	}
	events, _, err := telemetry.ReadChromeTrace(bytes.NewReader(t1))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, te := range events {
		if te.Args != nil {
			seen[te.Args.Kind] = true
		}
	}
	for _, kind := range []string{"election", "fence-reject", "lease-expire"} {
		if !seen[kind] {
			t.Errorf("trace is missing %q events; the HA machinery is not being recorded", kind)
		}
	}
	t3, _, _ := runTracedHAScenario(t, 43)
	if bytes.Equal(t1, t3) {
		t.Error("HA trace export is seed-independent; the recorder is not seeing the run")
	}
}
