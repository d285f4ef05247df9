// Package vswitch implements the hypervisor's software switch — the Open
// vSwitch role of §2.2: a user-space slow path holding tenant security
// rules, a kernel fast path with an O(1) exact-match cache, VXLAN
// tunneling toward remote servers, and htb (`tc`) rate limiting on VM
// virtual interfaces. All per-packet work is charged to the host's network
// CPU station via the Exec hook, and the serialized qdisc work to a
// per-VIF station, so CPU contention and queueing latency emerge in the
// simulation exactly where they arise on a real server.
package vswitch

import (
	"fmt"
	"math"
	"time"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/ratelimit"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/tunnel"
)

// Exec submits work with the given CPU cost to a processing station and
// runs fn when the work completes. internal/host's CPUStation provides it.
type Exec func(cost time.Duration, fn func())

// Inline is an Exec that charges nothing and runs immediately — useful in
// unit tests that exercise switching logic without a CPU model.
var Inline Exec = func(_ time.Duration, fn func()) { fn() }

// VMKey identifies a VM attachment: tenant plus tenant-assigned IP
// (overlapping across tenants, requirement C1).
type VMKey struct {
	Tenant packet.TenantID
	IP     packet.IP
}

// fpVerdict is the fast-path cached decision for a flow.
type fpVerdict struct {
	allow bool
	queue int
}

// vport is one VM's virtual interface attachment.
type vport struct {
	key     VMKey
	rules   *rules.VMRules
	deliver fabric.Port
	// htbExec serializes qdisc work for this VIF (the qdisc lock).
	htbExec Exec
	// egress/ingress shaping buckets; nil = no limit.
	egress, ingress *ratelimit.TokenBucket
	// egressClock/ingressClock enforce FIFO delivery per direction:
	// jittered path latencies never reorder packets within a vport,
	// matching the in-order softirq queues of a real vswitch.
	egressClock, ingressClock time.Duration
	// meters observe achieved rates for FPS max-out detection.
	egressMeter, ingressMeter ratelimit.UsageMeter
}

// Switch is one server's vswitch.
type Switch struct {
	eng *sim.Engine
	cm  *model.CostModel
	cfg model.VSwitchConfig

	serverIP packet.IP
	hostExec Exec
	uplink   fabric.Port

	vports   map[VMKey]*vport
	tunnels  *rules.TunnelTable
	fastpath *rules.ExactTable[fpVerdict]
	// mega is the wildcard decision cache between the exact-match fast
	// path and the user-space rule scan (see megaflow.go): slow-path
	// verdicts are installed under the union of field masks the
	// classification consulted, so new flows equal under that mask skip
	// the upcall entirely.
	mega *megaflowCache
	// sched is the slow path's bounded-queue DRR scheduler and overload
	// governor (see overload.go). It also coalesces concurrent misses for
	// the same flow onto one user-space rule scan.
	sched *upcallSched

	// HostCPU accounts all vswitch CPU time (reported by Fig. 4).
	HostCPU *metrics.CPUAccount

	// OnOverload, when set, receives a signal on every overload-detector
	// state transition: entering overload (the "emergency offload" hint the
	// local controller forwards to the DE), offender changes, and recovery.
	OnOverload func(OverloadSignal)

	// rec is the flight-recorder scope; nil when telemetry is disabled.
	// Hot paths guard with a single pointer test before building events.
	rec *telemetry.Scoped

	// plane, when non-nil, is the sharded throughput data plane mirroring
	// this switch's rule state (see plane.go). Control-plane mutators
	// republish epochs through it so rule updates never race the shards.
	plane *ShardedPlane

	// sk, when non-nil, receives every fast-path accrual (sketch
	// accounting mode): the same per-packet (segments, wire bytes)
	// increments the exact-cache statistics get, so sketch totals track
	// the exact counters packet for packet.
	sk *sketch.ShardSketch

	upcalls       uint64
	upcallsServed uint64
	denied        uint64
	unrouted      uint64
	txPackets     uint64
	rxPackets     uint64
	drops         metrics.DropCounters
}

// New builds a vswitch for the server at serverIP. hostExec runs the
// shared host network CPUs; uplink leads to the NIC's physical port.
func New(eng *sim.Engine, cm *model.CostModel, cfg model.VSwitchConfig, serverIP packet.IP, hostExec Exec, uplink fabric.Port) *Switch {
	return &Switch{
		eng: eng, cm: cm, cfg: cfg,
		serverIP: serverIP,
		hostExec: hostExec,
		uplink:   uplink,
		vports:   make(map[VMKey]*vport),
		tunnels:  rules.NewTunnelTable(),
		fastpath: rules.NewExactTable[fpVerdict](),
		mega:     newMegaflowCache(DefaultMegaflowLimit),
		sched:    newUpcallSched(DefaultOverloadConfig()),
		HostCPU:  &metrics.CPUAccount{},
	}
}

// SetOverloadConfig replaces the slow path's overload-protection
// parameters. It resets the scheduler, so it should be called at
// configuration time, before traffic flows.
func (s *Switch) SetOverloadConfig(cfg OverloadConfig) {
	s.sched = newUpcallSched(cfg)
}

// Overloaded reports whether the slow-path overload detector is currently
// in the overloaded state.
func (s *Switch) Overloaded() bool { return s.sched.overloaded }

// OverloadEvents reports how many times the detector entered and left the
// overloaded state.
func (s *Switch) OverloadEvents() (entered, recovered uint64) {
	return s.sched.Entered, s.sched.Recovered
}

// UpcallStats returns per-tenant slow-path service accounting, sorted by
// tenant ID.
func (s *Switch) UpcallStats() []UpcallStats { return s.sched.snapshotStats() }

// SetUplink rewires the physical port (topology assembly).
func (s *Switch) SetUplink(p fabric.Port) { s.uplink = p }

// AttachVM connects a VM's VIF. vmRules holds the tenant's security/QoS
// rules for the VM; deliver receives packets destined to the VM; htbExec
// is the VIF's serialized qdisc station.
func (s *Switch) AttachVM(key VMKey, vmRules *rules.VMRules, deliver fabric.Port, htbExec Exec) {
	if htbExec == nil {
		htbExec = Inline
	}
	s.vports[key] = &vport{key: key, rules: vmRules, deliver: deliver, htbExec: htbExec}
	// Wildcard verdicts covering this VM's address were computed without
	// its rules; new flows must re-classify against the attached vport.
	s.invalidateVMFlows(key)
	if s.plane != nil {
		s.plane.AttachVM(key, vmRules)
	}
}

// invalidateVMFlows flushes megaflow entries whose region touches the
// VM's address in either direction.
func (s *Switch) invalidateVMFlows(key VMKey) {
	s.mega.invalidate(rules.Pattern{Tenant: key.Tenant, Src: key.IP, SrcPrefix: 32})
	s.mega.invalidate(rules.Pattern{Tenant: key.Tenant, Dst: key.IP, DstPrefix: 32})
}

// DetachVM removes a VM (it is migrating away); its fast-path entries are
// purged.
func (s *Switch) DetachVM(key VMKey) {
	delete(s.vports, key)
	var stale []packet.FlowKey
	s.fastpath.Entries(func(e *rules.ExactEntry[fpVerdict]) {
		if e.Key.Tenant == key.Tenant && (e.Key.Src == key.IP || e.Key.Dst == key.IP) {
			stale = append(stale, e.Key)
		}
	})
	for _, k := range stale {
		s.fastpath.Remove(k)
	}
	s.invalidateVMFlows(key)
	// In-service upcalls for the VM's flows must not re-install verdicts
	// after the detach.
	for k, job := range s.sched.pending {
		if k.Tenant == key.Tenant && (k.Src == key.IP || k.Dst == key.IP) {
			job.install = false
		}
	}
	if s.plane != nil {
		s.plane.DetachVM(key)
	}
}

// SetTunnel installs a (tenant, remote VM IP) → remote server mapping.
func (s *Switch) SetTunnel(m rules.TunnelMapping) {
	s.tunnels.Set(m)
	if s.plane != nil {
		s.plane.SetTunnel(m)
	}
}

// RemoveTunnel drops a mapping (VM migration updates, requirement S4).
func (s *Switch) RemoveTunnel(tenant packet.TenantID, vmIP packet.IP) {
	s.tunnels.Remove(tenant, vmIP)
	if s.plane != nil {
		s.plane.RemoveTunnel(tenant, vmIP)
	}
}

// SetVIFLimits installs htb shaping rates on a VM's VIF; zero disables a
// direction. FasTrak's local DE calls this every control interval with the
// FPS split Rs (§4.3.2).
func (s *Switch) SetVIFLimits(key VMKey, egressBps, ingressBps float64) error {
	vp, ok := s.vports[key]
	if !ok {
		return fmt.Errorf("vswitch: no such VM %v", key)
	}
	now := s.eng.Now()
	vp.egress = makeBucket(vp.egress, now, egressBps)
	vp.ingress = makeBucket(vp.ingress, now, ingressBps)
	if s.plane != nil {
		s.plane.SetVIFLimit(key, egressBps)
	}
	return nil
}

func makeBucket(cur *ratelimit.TokenBucket, now time.Duration, bps float64) *ratelimit.TokenBucket {
	if bps <= 0 {
		return nil
	}
	if cur != nil {
		cur.SetRate(now, bps)
		return cur
	}
	// htb-like burst: ~1 ms at rate, floor of four MTUs.
	burst := math.Max(bps/1000, 4*1500*8)
	return ratelimit.NewTokenBucket(bps, burst)
}

// VIFRates samples a VM's achieved VIF rates (egress, ingress) in bps and
// whether each direction is maxed out against the given limits.
func (s *Switch) VIFRates(key VMKey) (egressBps, ingressBps float64, ok bool) {
	vp, found := s.vports[key]
	if !found {
		return 0, 0, false
	}
	now := s.eng.Now()
	return vp.egressMeter.Sample(now), vp.ingressMeter.Sample(now), true
}

// invalidate flushes fast-path entries matching a pattern — exact-match
// entries the pattern covers and megaflow entries whose wildcard region
// overlaps it (the OVS revalidation rule that keeps the cache
// semantically transparent); the FasTrak local controller calls this when
// rules for offloaded flows change.
func (s *Switch) Invalidate(p rules.Pattern) int {
	var stale []packet.FlowKey
	s.fastpath.Entries(func(e *rules.ExactEntry[fpVerdict]) {
		if p.Match(e.Key) {
			stale = append(stale, e.Key)
		}
	})
	for _, k := range stale {
		s.fastpath.Remove(k)
	}
	// Megaflow removals are accounted in CacheCounters.Invalidations; the
	// return value counts exact-match flushes only (the seed contract).
	megaFlushed := s.mega.invalidate(p)
	if s.rec != nil {
		s.rec.EmitPattern(telemetry.KindInvalidate, p.Tenant, p, "", float64(len(stale)), float64(megaFlushed))
	}
	// A pending upcall for a covered flow must not resurrect the stale
	// verdict when its scan completes (e.g. the DE just offloaded the flow
	// to hardware and flushed it here): the scan still runs — its waiters
	// need a verdict — but the result is not installed.
	for k, job := range s.sched.pending {
		if p.Match(k) {
			job.install = false
		}
	}
	if s.plane != nil {
		s.plane.Invalidate(p)
	}
	return len(stale)
}

// exec charges the host station and accounts the time.
func (s *Switch) exec(cost time.Duration, fn func()) {
	s.HostCPU.Charge(cost)
	s.hostExec(cost, fn)
}

// OutputFromVM processes a packet a VM sends through its VIF: fast-path
// (or slow-path) rule check, htb shaping, VXLAN encap, then the NIC.
func (s *Switch) OutputFromVM(key VMKey, p *packet.Packet) {
	vp, ok := s.vports[key]
	if !ok {
		s.unrouted++
		return
	}
	p.Tenant = key.Tenant
	p.Meta.Path = "vif"
	cost := s.cm.VSwitchUnitCost(p.PayloadLen(), s.cfg)
	s.exec(cost, func() {
		// The flow key is extracted once per packet and threaded through
		// classification and transmit (the encap reuses its hash for the
		// VXLAN source port), never re-derived.
		k := p.Key()
		s.classify(vp, k, p, func(v fpVerdict) {
			if !v.allow {
				s.denied++
				if s.rec != nil {
					s.rec.Drop(k.Tenant, k, "denied")
				}
				return
			}
			s.shapeEgress(vp, p, func() {
				s.addPathLatency(&vp.egressClock, func() { s.transmit(vp, k, p) })
			})
		})
	})
}

// classify resolves the packet's verdict via the fast path, falling back
// to the user-space slow path on a miss (§2.2). Lookup order is
// exact-match table, then the megaflow wildcard cache (a hit installs an
// exact entry so per-flow statistics keep accruing for the ME poll), then
// the slow path. Slow-path misses pass through the overload governor:
// bounded per-VIF queues, DRR admission across tenants, and (when the
// host is overloaded by a dominant tenant) per-VIF miss-rate clamping.
// Packets refused at admission are dropped with exact per-cause
// accounting.
func (s *Switch) classify(vp *vport, k packet.FlowKey, p *packet.Packet, then func(fpVerdict)) {
	if e := s.fastpath.Lookup(k); e != nil {
		s.accrue(e, k, p)
		if s.rec != nil {
			s.rec.Hit(telemetry.KindExactHit, k.Tenant, k)
		}
		then(e.Value)
		return
	}
	if v, ok := s.mega.lookup(k, s.eng.Now()); ok {
		e := s.fastpath.Install(k, v)
		s.accrue(e, k, p)
		if s.rec != nil {
			s.rec.Hit(telemetry.KindMegaflowHit, k.Tenant, k)
			s.rec.Emit(telemetry.KindExactInstall, k.Tenant, k, "megaflow", 0, 0)
		}
		then(v)
		return
	}
	now := s.eng.Now()
	// Concurrent misses for the same flow coalesce onto the pending scan.
	waiter := func(v fpVerdict) {
		if e := s.fastpath.Lookup(k); e != nil {
			s.accrue(e, k, p)
		}
		then(v)
	}
	if job, pending := s.sched.pending[k]; pending {
		job.waiters = append(job.waiters, waiter)
		return
	}
	job := &upcallJob{
		key:     k,
		vif:     vp.key,
		cost:    s.cm.SlowPathCost(s.ruleCount(k)),
		install: true,
		waiters: []func(fpVerdict){waiter},
	}
	switch s.sched.admit(now, job) {
	case admitOK:
		s.upcalls++
		if s.rec != nil {
			s.rec.Emit(telemetry.KindUpcall, k.Tenant, k, "", float64(s.sched.inFlight), 0)
		}
		s.pumpUpcalls()
	case admitQueueFull:
		s.drops.UpcallQueue++
		if s.rec != nil {
			s.rec.Drop(k.Tenant, k, "upcall-queue")
		}
	case admitClamped:
		s.drops.Clamp++
		if s.rec != nil {
			s.rec.Drop(k.Tenant, k, "clamp")
		}
	}
	s.overloadEval()
}

// pumpUpcalls dispatches queued upcalls onto the host CPUs up to the
// configured handler-thread concurrency.
func (s *Switch) pumpUpcalls() {
	for s.sched.inFlight < s.sched.cfg.MaxInFlight {
		job := s.sched.next()
		if job == nil {
			return
		}
		s.sched.inFlight++
		s.exec(job.cost, func() {
			s.sched.inFlight--
			s.completeUpcall(job)
		})
	}
}

// completeUpcall finishes a slow-path scan: install the verdict (unless
// an invalidation covering the flow landed mid-scan), wake the waiters,
// and keep the pipeline full.
func (s *Switch) completeUpcall(job *upcallJob) {
	v, mask := s.evaluate(job.key)
	if job.install {
		s.fastpath.Install(job.key, v)
		s.mega.install(job.key, mask, v, s.eng.Now())
		if s.rec != nil {
			s.rec.Emit(telemetry.KindExactInstall, job.key.Tenant, job.key, "upcall", 0, 0)
			s.rec.Emit(telemetry.KindMegaflowInstall, job.key.Tenant, job.key, "", float64(mask.SrcPrefix), float64(mask.DstPrefix))
		}
	}
	s.upcallsServed++
	s.sched.complete(s.eng.Now(), job)
	for _, w := range job.waiters {
		w(v)
	}
	s.pumpUpcalls()
	s.overloadEval()
}

// overloadEval runs the overload detector and delivers any state
// transition to the OnOverload hook.
func (s *Switch) overloadEval() {
	if sig, changed := s.sched.evaluate(s.eng.Now()); changed {
		if s.rec != nil {
			s.rec.Record(telemetry.Event{
				Kind:   telemetry.KindOverload,
				Cause:  overloadCause(sig),
				Tenant: sig.Offender,
				V1:     sig.Utilization,
				V2:     sig.MissPPS,
			})
		}
		if s.OnOverload != nil {
			s.OnOverload(sig)
		}
	}
}

// EnableSketch routes every fast-path accrual into sk in addition to the
// exact-cache statistics. Call before traffic starts; the slow path runs
// single-threaded on the simulator loop, so no locking is needed.
func (s *Switch) EnableSketch(sk *sketch.ShardSketch) { s.sk = sk }

// accrue charges one packet to the exact-cache entry (wire bytes plus TSO
// segment count) and mirrors the identical increment into the sketch when
// sketch accounting is enabled, so sketch totals equal Stats totals.
func (s *Switch) accrue(e *rules.ExactEntry[fpVerdict], k packet.FlowKey, p *packet.Packet) {
	e.Stats.Hit(wireSegBytes(p), s.eng.Now())
	bumpSegments(e, p)
	if s.sk != nil {
		segs := uint64(model.Segments(p.PayloadLen()))
		if segs == 0 {
			segs = 1
		}
		s.sk.Observe(k, segs, uint64(wireSegBytes(p)))
	}
}

// bumpSegments accounts additional wire segments beyond the first so pps
// statistics reflect on-the-wire packet counts after TSO segmentation.
func bumpSegments(e *rules.ExactEntry[fpVerdict], p *packet.Packet) {
	extra := model.Segments(p.PayloadLen()) - 1
	if extra > 0 {
		e.Stats.Packets += uint64(extra)
	}
}

func wireSegBytes(p *packet.Packet) int { return p.WireLen() }

func (s *Switch) ruleCount(k packet.FlowKey) int {
	n := s.cfg.SecurityRules
	if vp, ok := s.vports[VMKey{Tenant: k.Tenant, IP: k.Src}]; ok {
		n += len(vp.rules.Security)
	}
	if k.Dst != k.Src {
		if vp, ok := s.vports[VMKey{Tenant: k.Tenant, IP: k.Dst}]; ok {
			n += len(vp.rules.Security)
		}
	}
	return n
}

// evaluate computes the verdict for a flow from the rules of the local
// endpoint VMs, source endpoint first (deterministically), denying if any
// rule-bearing endpoint denies. In the microbenchmark configurations with
// no explicit rules, traffic is allowed (baseline OVS is a plain L2
// switch).
//
// The returned FieldMask is the union of fields the decision consulted —
// the wildcard under which the verdict may be cached. The vport probes
// key on tenant and exact endpoint addresses, so those are always pinned;
// each rule lookup contributes the masks of the tuple groups it visited.
func (s *Switch) evaluate(k packet.FlowKey) (fpVerdict, rules.FieldMask) {
	verdict := fpVerdict{allow: true}
	mask := rules.FieldMask{Tenant: true, SrcPrefix: 32, DstPrefix: 32}
	for _, ip := range [2]packet.IP{k.Src, k.Dst} {
		vp, ok := s.vports[VMKey{Tenant: k.Tenant, IP: ip}]
		if !ok || len(vp.rules.Security) == 0 {
			continue
		}
		a, m := vp.rules.EvaluateMask(k)
		mask = mask.Union(m)
		if a != rules.Allow {
			return fpVerdict{}, mask
		}
		q, qm := vp.rules.QueueForMask(k)
		mask = mask.Union(qm)
		if q > verdict.queue {
			verdict.queue = q
		}
	}
	return verdict, mask
}

// shapeEgress applies the VIF's htb: serialized qdisc cost plus token-
// bucket shaping delay.
func (s *Switch) shapeEgress(vp *vport, p *packet.Packet, then func()) {
	bucket := vp.egress
	if s.cfg.RateLimitBps > 0 && bucket == nil {
		// Microbenchmark config: fixed per-VIF limit.
		vp.egress = makeBucket(nil, s.eng.Now(), s.cfg.RateLimitBps)
		bucket = vp.egress
	}
	if bucket == nil {
		vp.egressMeter.Record(p.WireLen())
		then()
		return
	}
	vp.htbExec(s.cm.HTBPerPacket, func() {
		delay, ok := bucket.ReserveLimit(s.eng.Now(), p.WireLen(), maxShapeDelay)
		if !ok {
			s.drops.Shape++
			if s.rec != nil {
				s.rec.Drop(p.Tenant, p.Key(), "shape")
			}
			return
		}
		vp.egressMeter.Record(p.WireLen())
		s.eng.PostAfter(delay, then)
	})
}

// maxShapeDelay bounds the htb backlog: packets that would wait longer
// are tail-dropped, as a real qdisc's finite queue does.
const maxShapeDelay = 50 * time.Millisecond

// addPathLatency applies the software path's one-way floor plus
// exponential jitter (§3.2.4: software delays are less predictable),
// clamped to the direction's FIFO clock so packets of a vport never
// reorder.
func (s *Switch) addPathLatency(clock *time.Duration, then func()) {
	d := s.cm.PathLatency(s.cfg)
	if s.cm.SoftJitterMean > 0 {
		d += time.Duration(s.eng.Rand().ExpFloat64() * float64(s.cm.SoftJitterMean))
	}
	at := s.eng.Now() + d
	if at < *clock {
		at = *clock
	}
	*clock = at
	s.eng.Post(at, then)
}

// transmit encapsulates (when tunneling) and hands the packet to the NIC.
// Local destination VMs are delivered directly, as a vswitch switches
// intra-host traffic without touching the wire.
func (s *Switch) transmit(src *vport, k packet.FlowKey, p *packet.Packet) {
	if dst, ok := s.vports[VMKey{Tenant: p.Tenant, IP: p.IP.Dst}]; ok {
		s.txPackets++
		s.deliverLocal(dst, p)
		return
	}
	if s.cfg.Tunneling {
		m, ok := s.tunnels.Lookup(p.Tenant, p.IP.Dst)
		if !ok {
			s.unrouted++
			if s.rec != nil {
				s.rec.Drop(k.Tenant, k, "no-tunnel")
			}
			return
		}
		outer, err := tunnel.VXLANEncapHashed(s.serverIP, m.Remote, p.Tenant, p, k.FastHash())
		if err != nil {
			s.unrouted++
			if s.rec != nil {
				s.rec.Drop(k.Tenant, k, "encap")
			}
			return
		}
		s.txPackets++
		s.uplink.Input(outer)
		return
	}
	s.txPackets++
	s.uplink.Input(p)
}

// TransmitOffloaded carries a packet the host's SmartNIC already
// classified and forwarded in hardware: classification, the slow path and
// the htb qdisc's CPU cost are all bypassed, but the VIF's token-bucket
// rate limit still applies (the NIC enforces the same tenant shaping the
// software path does), and the packet is metered and counted exactly like
// a software transmit before the normal encap/wire stage.
func (s *Switch) TransmitOffloaded(key VMKey, p *packet.Packet) {
	vp, ok := s.vports[key]
	if !ok {
		s.unrouted++
		return
	}
	p.Tenant = key.Tenant
	k := p.Key()
	bucket := vp.egress
	if s.cfg.RateLimitBps > 0 && bucket == nil {
		vp.egress = makeBucket(nil, s.eng.Now(), s.cfg.RateLimitBps)
		bucket = vp.egress
	}
	if bucket == nil {
		vp.egressMeter.Record(p.WireLen())
		s.transmit(vp, k, p)
		return
	}
	delay, ok := bucket.ReserveLimit(s.eng.Now(), p.WireLen(), maxShapeDelay)
	if !ok {
		s.drops.Shape++
		if s.rec != nil {
			s.rec.Drop(p.Tenant, k, "shape")
		}
		return
	}
	vp.egressMeter.Record(p.WireLen())
	s.eng.PostAfter(delay, func() { s.transmit(vp, k, p) })
}

func (s *Switch) deliverLocal(dst *vport, p *packet.Packet) {
	dst.ingressMeter.Record(p.WireLen())
	dst.deliver.Input(p)
}

// InputFromNIC processes a packet arriving on the physical port for this
// server: VXLAN decap (when tunneling), rule check, ingress shaping, then
// delivery to the destination VM's VIF.
func (s *Switch) InputFromNIC(p *packet.Packet) {
	cost := s.cm.VSwitchUnitCost(p.PayloadLen(), s.cfg)
	s.exec(cost, func() {
		inner := p
		if s.cfg.Tunneling && p.UDP != nil && p.UDP.DstPort == packet.VXLANPort {
			dec, tenant, err := tunnel.VXLANDecap(p)
			if err != nil {
				s.unrouted++
				if s.rec != nil {
					s.rec.Record(telemetry.Event{Kind: telemetry.KindDrop, Cause: "decap"})
				}
				return
			}
			inner = dec
			inner.Tenant = tenant
			// The outer frame is dead once the inner has been extracted
			// (decap shares no memory with it); recycle its buffers.
			tunnel.Release(p)
		}
		vp, ok := s.vports[VMKey{Tenant: inner.Tenant, IP: inner.IP.Dst}]
		if !ok {
			s.unrouted++
			if s.rec != nil {
				s.rec.Drop(inner.Tenant, inner.Key(), "no-vport")
			}
			return
		}
		k := inner.Key()
		s.classify(vp, k, inner, func(v fpVerdict) {
			if !v.allow {
				s.denied++
				if s.rec != nil {
					s.rec.Drop(k.Tenant, k, "denied")
				}
				return
			}
			s.shapeIngress(vp, inner, func() {
				s.addPathLatency(&vp.ingressClock, func() {
					s.rxPackets++
					vp.deliver.Input(inner)
				})
			})
		})
	})
}

func (s *Switch) shapeIngress(vp *vport, p *packet.Packet, then func()) {
	bucket := vp.ingress
	if s.cfg.RateLimitBps > 0 && bucket == nil {
		vp.ingress = makeBucket(nil, s.eng.Now(), s.cfg.RateLimitBps)
		bucket = vp.ingress
	}
	if bucket == nil {
		vp.ingressMeter.Record(p.WireLen())
		then()
		return
	}
	vp.htbExec(s.cm.HTBPerPacket, func() {
		delay, ok := bucket.ReserveLimit(s.eng.Now(), p.WireLen(), maxShapeDelay)
		if !ok {
			s.drops.Shape++
			if s.rec != nil {
				s.rec.Drop(p.Tenant, p.Key(), "shape")
			}
			return
		}
		vp.ingressMeter.Record(p.WireLen())
		s.eng.PostAfter(delay, then)
	})
}

// FlowStats snapshots the fast path's per-flow counters — what the local
// controller's ME polls ("queries the OVS datapath for active flow
// statistics", §5.2).
type FlowStats struct {
	Key     packet.FlowKey
	Packets uint64
	Bytes   uint64
}

// Snapshot returns current per-flow counters.
func (s *Switch) Snapshot() []FlowStats {
	out := make([]FlowStats, 0, s.fastpath.Len())
	s.fastpath.Entries(func(e *rules.ExactEntry[fpVerdict]) {
		out = append(out, FlowStats{Key: e.Key, Packets: e.Stats.Packets, Bytes: e.Stats.Bytes})
	})
	return out
}

// ExpireIdle evicts fast-path entries idle since before deadline. Idle
// megaflow entries expire alongside (counted as cache evictions, not in
// the return value), so a flow that idles out of the datapath is fully
// reclassified on its next packet — matching OVS revalidator behavior.
func (s *Switch) ExpireIdle(deadline time.Duration) int {
	s.mega.expire(deadline)
	return s.fastpath.Expire(deadline)
}

// Telemetry is the switch's aggregate counter snapshot. Every packet the
// switch intentionally discards is charged to exactly one Drops cause, so
// conservation equations over Telemetry close exactly.
type Telemetry struct {
	// Tx/Rx count packets transmitted toward the fabric (or delivered
	// locally) and received for local VMs.
	Tx, Rx uint64
	// Upcalls counts slow-path misses admitted to the scheduler;
	// UpcallsServed those whose rule scan completed.
	Upcalls, UpcallsServed uint64
	// Denied counts packets rejected by security rules; Unrouted packets
	// with no attached destination or tunnel mapping.
	Denied, Unrouted uint64
	// Drops is the per-cause intentional-drop accounting.
	Drops metrics.DropCounters
	// Megaflow is the wildcard decision cache's hit/miss/churn accounting.
	Megaflow metrics.CacheCounters
}

// Counters reports aggregate statistics.
func (s *Switch) Counters() Telemetry {
	return Telemetry{
		Tx:            s.txPackets,
		Rx:            s.rxPackets,
		Upcalls:       s.upcalls,
		UpcallsServed: s.upcallsServed,
		Denied:        s.denied,
		Unrouted:      s.unrouted,
		Drops:         s.drops,
		Megaflow:      s.mega.stats,
	}
}

// ActiveFlows returns the number of fast-path entries.
func (s *Switch) ActiveFlows() int { return s.fastpath.Len() }

// ActiveMegaflows returns the number of wildcard cache entries.
func (s *Switch) ActiveMegaflows() int { return s.mega.Len() }
