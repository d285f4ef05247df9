package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/vswitch"
)

// Dataplane workload: one inline ShardedPlane shard, no worker
// goroutines, one closed-loop producer replaying pre-built flows at three
// packet sizes, with rule writes at a fixed rate per packet alongside.
const (
	dpTenants       = 4
	dpVMsPerTenant  = 8
	dpRemoteServers = 4
	dpRulesPerVM    = 8
	// dpUnroutedPerSize flows of each size go to an address with no
	// tunnel mapping.
	dpUnroutedPerSize = 16
	// dpWriteEvery is the number of replay passes between rule writes;
	// each write republishes the rule epoch, so the shard flushes its
	// exact and megaflow caches and the slow path does measured work.
	dpWriteEvery = 4
	dpDenyPort   = 9007
	dpWarmup     = 500 * time.Millisecond
	dpSlice      = 250 * time.Millisecond
	dpSetups     = 25
)

var dpSizes = []int{64, 600, 1448}

// dpRig is one built plane with its pre-built flows.
type dpRig struct {
	pl       *vswitch.ShardedPlane
	locals   []vswitch.VMKey
	keys     []vswitch.VMKey
	pkts     []*packet.Packet
	payload  uint64 // payload bytes per pass
	denied   uint64 // flows per pass the ACL denies
	unrouted uint64 // flows per pass with no tunnel
	remotes  []rules.TunnelMapping
}

func buildDataplane(seed int64) *dpRig {
	rig := &dpRig{}
	serverIP := packet.MustParseIP("192.168.1.1")
	rig.pl = vswitch.NewShardedPlane(vswitch.PlaneConfig{Shards: 1, Tunneling: true, ServerIP: serverIP})
	for t := 0; t < dpTenants; t++ {
		tenant := packet.TenantID(10 + t)
		for v := 0; v < dpVMsPerTenant; v++ {
			ip := packet.MakeIP(10, byte(t), 0, byte(10+v))
			key := vswitch.VMKey{Tenant: tenant, IP: ip}
			rig.pl.AttachVM(key, dpACL(tenant, ip, false))
			rig.locals = append(rig.locals, key)
		}
		for s := 0; s < dpRemoteServers; s++ {
			remote := packet.MakeIP(192, 168, 1, byte(2+s))
			for v := 0; v < dpVMsPerTenant; v++ {
				m := rules.TunnelMapping{Tenant: tenant, VMIP: packet.MakeIP(10, byte(t), 1, byte(10+v+s*dpVMsPerTenant)), Remote: remote}
				rig.pl.SetTunnel(m)
				rig.remotes = append(rig.remotes, m)
			}
		}
	}
	// Every seed builds the same mix: each local VM sends one flow per
	// service port to each remote server at each size, and 16 flows per
	// size go to an address with no tunnel mapping. The seed picks the
	// remote VM behind each server, which flows are unrouted, and the
	// replay order.
	rng := rand.New(rand.NewSource(seed))
	type flow struct {
		key vswitch.VMKey
		pkt *packet.Packet
	}
	var flows []flow
	for _, size := range dpSizes {
		var group []flow
		for _, src := range rig.locals {
			t := byte(src.Tenant - 10)
			for port := uint16(9000); port < 9000+dpRulesPerVM; port++ {
				for s := 0; s < dpRemoteServers; s++ {
					host := byte(10 + s*dpVMsPerTenant + rng.Intn(dpVMsPerTenant))
					p := packet.NewTCP(src.Tenant, src.IP, packet.MakeIP(10, t, 1, host), uint16(40000+len(group)), port, size)
					group = append(group, flow{src, p})
					rig.payload += uint64(size)
				}
			}
		}
		unrouted := 0
		for _, i := range rng.Perm(len(group)) {
			if unrouted == dpUnroutedPerSize {
				break
			}
			// The ACL is evaluated before the tunnel lookup, so only
			// allowed flows can be unrouted.
			if p := group[i].pkt; p.TCP.DstPort != dpDenyPort {
				p.IP.Dst = packet.MakeIP(10, byte(p.Tenant-10), 1, 200)
				unrouted++
			}
		}
		rig.unrouted += uint64(unrouted)
		flows = append(flows, group...)
	}
	rng.Shuffle(len(flows), func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
	for _, f := range flows {
		if f.pkt.TCP.DstPort == dpDenyPort {
			rig.denied++
		}
		rig.keys = append(rig.keys, f.key)
		rig.pkts = append(rig.pkts, f.pkt)
	}
	return rig
}

// dpACL is a VM's security rules: allows on the service ports, a deny on
// dpDenyPort, and a tenant-wide default allow. extra adds one more allow
// that changes no verdict, so a rule write republishes without moving
// the expected counts.
func dpACL(tenant packet.TenantID, ip packet.IP, extra bool) *rules.VMRules {
	r := &rules.VMRules{Tenant: tenant, VMIP: ip}
	for i := 0; i < dpRulesPerVM; i++ {
		port := uint16(9000 + i)
		action := rules.Allow
		if port == dpDenyPort {
			action = rules.Deny
		}
		r.Security = append(r.Security, rules.SecurityRule{
			Pattern: rules.Pattern{Tenant: tenant, DstPort: port}, Action: action, Priority: 10,
		})
	}
	if extra {
		r.Security = append(r.Security, rules.SecurityRule{
			Pattern: rules.Pattern{Tenant: tenant, DstPort: 8443}, Action: rules.Allow, Priority: 5,
		})
	}
	r.Security = append(r.Security, rules.SecurityRule{Pattern: rules.Pattern{Tenant: tenant}, Action: rules.Allow})
	return r
}

func runDataplane(cfg runConfig) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, bases: map[string]string{}}
	tr := cfg.tr

	var setups []float64
	var rig *dpRig
	for i := 0; i < dpSetups; i++ {
		if rig != nil {
			rig.pl.Close()
		}
		t0 := time.Now()
		sp := tr.begin("vswitch.NewShardedPlane+rules", -1)
		rig = buildDataplane(cfg.seed)
		tr.end(sp)
		setups = append(setups, since(t0))
	}
	defer rig.pl.Close()

	warmup, slice := dpWarmup, dpSlice
	if cfg.smoke {
		warmup, slice = 20*time.Millisecond, 20*time.Millisecond
	}
	inj := rig.pl.NewInjector()
	var (
		passes, writes int
		writeLat       []float64
		sliceRates     []float64
		sliceBytes     []float64
	)
	pass := func() {
		sp := tr.begin("vswitch.PlaneInjector.Egress+Flush", -1)
		for i, p := range rig.pkts {
			inj.Egress(rig.keys[i], p)
		}
		inj.Flush()
		rig.pl.Barrier()
		tr.end(sp)
		passes++
		if passes%dpWriteEvery == 0 {
			t0 := time.Now()
			sp := tr.begin("rules.publish", -1)
			rig.write(writes)
			tr.end(sp)
			writeLat = append(writeLat, float64(time.Since(t0))/1e6)
			writes++
		}
	}

	// Warm up, then measure in fixed slices of wall time.
	start := time.Now()
	for time.Since(start) < warmup {
		pass()
	}
	base := rig.pl.Counters()
	writeLat = writeLat[:0]
	rt0 := readRuntime()
	measure := time.Now()
	for since(measure) < cfg.seconds || len(sliceRates) == 0 {
		s0, p0 := time.Now(), passes
		for time.Since(s0) < slice {
			pass()
		}
		el := since(s0)
		n := float64(passes - p0)
		sliceRates = append(sliceRates, n*float64(len(rig.pkts))/el)
		sliceBytes = append(sliceBytes, n*float64(rig.payload)/el)
	}
	wall := since(measure)
	rt1 := readRuntime()
	c := rig.pl.Counters()

	n := uint64(passes)
	dpCheck(o, c, n*uint64(len(rig.pkts)), n*rig.denied, n*rig.unrouted, writes)

	mpps := median(sliceRates) / 1e6
	gbps := median(sliceBytes) * 8 / 1e9
	p50, p90, p99 := quantile(writeLat, 0.5), quantile(writeLat, 0.9), quantile(writeLat, 0.99)
	heap := liveHeapMB()
	o.e2e["setup_s"] = median(setups)
	o.e2e["throughput"] = mpps * 1e6
	o.e2e["latency_ms_p50"] = p50
	o.e2e["latency_ms_p90"] = p90
	o.e2e["heap_mb"] = heap
	o.report = []named{
		{"dp_mpps", mpps, "Mpps", fmt.Sprintf("median of %d slices of %v, %d flows at %v B", len(sliceRates), slice, len(rig.pkts), dpSizes)},
		{"dp_gbps", gbps, "Gb/s", "payload bits per host second"},
		{"rule_update_us_p50", p50 * 1e3, "us", fmt.Sprintf("%d writes, one per %d passes", len(writeLat), dpWriteEvery)},
		{"rule_update_us_p90", p90 * 1e3, "us", ""},
		{"rule_update_us_p99", p99 * 1e3, "us", ""},
		{"heap_mb", heap, "MB", "live heap after GC"},
		{"setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", dpSetups)},
		{"error_rate", errorRate(o), "ratio", "unaccounted packets / packets"},
	}

	d := c
	d.Packets -= base.Packets
	d.Vectors -= base.Vectors
	d.EpochFlushes -= base.EpochFlushes
	d.Megaflow.Hits -= base.Megaflow.Hits
	d.Megaflow.Misses -= base.Megaflow.Misses
	l := o.layers
	if d.Vectors > 0 {
		l["vswitch.pkts_per_vector"] = float64(d.Packets) / float64(d.Vectors)
		o.bases["vswitch.pkts_per_vector"] = fmt.Sprintf("%d vectors", d.Vectors)
	}
	if d.Packets > 0 {
		lookups := d.Megaflow.Hits + d.Megaflow.Misses
		l["vswitch.exact_hit_ratio"] = float64(d.Packets-lookups) / float64(d.Packets)
		o.bases["vswitch.exact_hit_ratio"] = fmt.Sprintf("%d packets", d.Packets)
		l["vswitch.ns_per_pkt"] = wall * 1e9 / float64(d.Packets)
		o.bases["vswitch.ns_per_pkt"] = fmt.Sprintf("%d packets in %.3fs", d.Packets, wall)
		l["runtime.allocs_per_event"] = float64(rt1.allocs-rt0.allocs) / float64(d.Packets)
		o.bases["runtime.allocs_per_event"] = fmt.Sprintf("%d packets (the plane has no sim events)", d.Packets)
		if lookups > 0 {
			l["vswitch.megaflow_hit_ratio"] = float64(d.Megaflow.Hits) / float64(lookups)
			o.bases["vswitch.megaflow_hit_ratio"] = fmt.Sprintf("%d megaflow lookups", lookups)
		}
	}
	l["vswitch.upcalls"] = float64(d.Megaflow.Misses)
	l["vswitch.epoch_flushes"] = float64(d.EpochFlushes)
	l["runtime.gc_cpu_ms"] = rt1.gcCPUms - rt0.gcCPUms
	return o, nil
}

// dpCheck runs the dataplane output checks: every packet is accounted
// for, every injected packet was processed, and the ACL and tunnel
// verdicts match what the flows were built to produce.
func dpCheck(o *outcome, c vswitch.PlaneCounters, injected, wantDenied, wantUnrouted uint64, writes int) {
	accounted := c.Tx + c.Denied + c.Unrouted + c.Drops.Total()
	o.attempted = int64(c.Packets)
	o.failed = abs64(int64(c.Packets) - int64(accounted))
	o.check("conservation", c.Packets == accounted, "packets=%d tx=%d denied=%d unrouted=%d drops=%d", c.Packets, c.Tx, c.Denied, c.Unrouted, c.Drops.Total())
	o.check("all packets processed", c.Packets == injected, "processed %d of %d injected", c.Packets, injected)
	o.check("verdicts", c.Denied == wantDenied && c.Unrouted == wantUnrouted,
		"denied %d want %d, unrouted %d want %d", c.Denied, wantDenied, c.Unrouted, wantUnrouted)
	o.check("rule writes", writes > 0, "%d epoch republishes", writes)
}

// write performs rule write n: even writes re-attach a VM with its ACL
// toggled, odd writes re-point a remote VM's tunnel. Both republish the
// epoch; neither changes a verdict.
func (rig *dpRig) write(n int) {
	if n%2 == 0 {
		i := (n / 2) % len(rig.locals)
		key := rig.locals[i]
		rig.pl.AttachVM(key, dpACL(key.Tenant, key.IP, (n/2/len(rig.locals))%2 == 0))
		return
	}
	i := (n / 2) % len(rig.remotes)
	m := rig.remotes[i]
	m.Remote = packet.MakeIP(192, 168, 1, byte(2+(n/2)%dpRemoteServers))
	rig.pl.SetTunnel(m)
}
