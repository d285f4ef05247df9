package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"time"

	fastrak "repro"
	"repro/internal/host"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
)

// simSpec shapes one simulated rack scenario. Services are flows between
// VMs on different servers; their request rates come from a fixed ladder
// whose ranks are re-dealt to services at every rotation, so the set of
// hot services changes while the offered load stays the same.
type simSpec struct {
	servers, vmsPerServer, tenants, flowsPerVM int
	tcam                                       int
	// topRate is the hottest service's request rate (packets/s). The
	// ladder falls log-linearly over decades, or as topRate/rank with
	// zipf.
	topRate float64
	decades float64
	zipf    bool
	// hot is the number of top ladder ranks that count as hot; offload
	// delays are sampled for the top measured ranks, those the TCAM has
	// room for, so the figure is the control loop's reaction time rather
	// than the luck of the TCAM contest further down.
	hot, measured int
	rotate        time.Duration
	// horizon is how long traffic is offered.
	horizon time.Duration
	// respSize > 0 makes each request draw a response of that size.
	reqSize, respSize int
	// epoch is the measurement period T; history the median depth M
	// (0 keeps the default).
	epoch   time.Duration
	history int
	// migrate live-migrates the hottest service's server VM halfway.
	migrate bool
	// variants is the number of distinct sub-seeds a run cycles through;
	// offload samples pool over exactly these, so they never depend on
	// how fast the machine is.
	variants int
}

const (
	// simDrain lets in-flight packets land before the conservation check.
	simDrain = 500 * time.Millisecond
	// simSlice is the virtual time per Deployment.Run call, a whole
	// number of control intervals in both scenarios so every slice
	// carries the same control work.
	simSlice = time.Second
	// simSetups is the number of extra deployment builds timed for
	// setup_s.
	simSetups = 31
)

var simRackSpec = simSpec{
	servers: 4, vmsPerServer: 8, tenants: 4, flowsPerVM: 2,
	tcam:    56,
	topRate: 7000, decades: 2,
	hot: 32, measured: 16,
	rotate: 750 * time.Millisecond, horizon: 3 * time.Second,
	reqSize: 64, respSize: 600,
	epoch: 100 * time.Millisecond, history: 2,
	migrate:  true,
	variants: 6,
}

var simScaleSpec = simSpec{
	servers: 8, vmsPerServer: 32, tenants: 8, flowsPerVM: 16,
	tcam:    256,
	topRate: 2250, zipf: true,
	hot: 128, measured: 128,
	rotate: 3 * time.Second, horizon: 12 * time.Second,
	reqSize:  256,
	epoch:    500 * time.Millisecond,
	variants: 2,
}

func runSimRack(cfg runConfig) (*outcome, error)  { return runSim(simRackSpec, cfg) }
func runSimScale(cfg runConfig) (*outcome, error) { return runSim(simScaleSpec, cfg) }

// smokeSpec shrinks a spec for the self-test.
func smokeSpec(s simSpec) simSpec {
	s.horizon, s.rotate, s.variants = 3*time.Second, time.Second, 1
	s.topRate /= 10
	return s
}

// simRep is the result of one scenario run.
type simRep struct {
	setup, run time.Duration
	// slices holds virtual seconds per wall second of each Run call
	// while traffic is offered.
	slices         []float64
	heapMB         float64
	offloads       []time.Duration
	digest         string
	ledger         simLedger
	events         uint64
	counters       simCounters
	migrated       bool
	finalOffloaded int
}

// simLedger is one scenario's packet accounting.
type simLedger struct {
	sent, delivered uint64
	// Accounted losses: link queue/fault drops, vswitch shaping, upcall
	// queue and clamp drops, ToR rate drops, and the migration cut-over
	// (at most simMaxCutover).
	linkDrops, swDrops, rateDrops, cutover uint64
	// Blackholes: a packet refused or unroutable because rules and
	// placement disagree.
	torACL, torNoVRF, torUnrouted, swDenied, swUnrouted, steerMiss uint64
}

func (l simLedger) blackholed() uint64 {
	return l.torACL + l.torNoVRF + l.torUnrouted + l.swDenied + l.swUnrouted + l.steerMiss
}

func (l simLedger) unaccounted() int64 {
	return int64(l.sent) - int64(l.delivered) - int64(l.linkDrops+l.swDrops+l.rateDrops+l.cutover) - int64(l.blackholed())
}

// simMaxCutover bounds the migration cut-over loss: a handful of
// packets are in flight when the VM moves; more would mean senders kept
// steering to the old host.
const simMaxCutover = 100

// check adds the conservation check for one run and counts its failures.
func (l simLedger) check(o *outcome, name string) {
	o.attempted += int64(l.sent)
	bh, un := l.blackholed(), l.unaccounted()
	o.failed += int64(bh) + abs64(un)
	if l.cutover > simMaxCutover {
		o.failed += int64(l.cutover - simMaxCutover)
	}
	o.check(name, bh == 0 && un == 0 && l.cutover <= simMaxCutover,
		"sent=%d delivered=%d cutover=%d blackholed=%d (tor-acl=%d tor-novrf=%d tor-unrouted=%d vswitch-denied=%d vswitch-unrouted=%d nic-steer-miss=%d) unaccounted=%d",
		l.sent, l.delivered, l.cutover, bh, l.torACL, l.torNoVRF, l.torUnrouted, l.swDenied, l.swUnrouted, l.steerMiss, un)
}

// checkDigest compares a repeated variant's digest with its first run.
func checkDigest(o *outcome, run int, got, want string) {
	o.check(fmt.Sprintf("run %d digest", run), got == want, "%s, first run of this variant %s", got, want)
}

// simCounters are the public per-layer counters of one scenario.
type simCounters struct {
	reports, decisions, retries, giveups uint64
	installs, rejects                    uint64
	upcalls, megaHits, megaMisses        uint64
	vswitchPkts, classified              uint64
	ofMessages, ofBytes                  uint64
}

func runSim(spec simSpec, cfg runConfig) (*outcome, error) {
	if cfg.smoke {
		spec = smokeSpec(spec)
	}
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, bases: map[string]string{}}
	digests := make([]string, spec.variants)
	var (
		slices, setups []float64
		heaps          []float64
		offloads       []float64
		totals         simCounters
		events         uint64
		runWall        time.Duration
		reps           int
	)
	// Building a deployment takes milliseconds, so set-up time is the
	// median of several extra builds besides the measured ones.
	for i := 0; i < simSetups; i++ {
		t0 := time.Now()
		if _, err := buildScenario(spec, cfg.seed*1000); err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
	}
	rt0 := readRuntime()
	start := time.Now()
	// Every variant runs once; further runs repeat them while another one
	// is expected to finish within the measurement time.
	for r := 0; r < spec.variants || since(start)*float64(r+1)/float64(r) <= cfg.seconds; r++ {
		v := r % spec.variants
		rep, err := runScenario(spec, cfg.seed*1000+int64(v), cfg.tr)
		if err != nil {
			return nil, err
		}
		slices = append(slices, rep.slices...)
		reps++
		setups = append(setups, rep.setup.Seconds())
		heaps = append(heaps, rep.heapMB)
		rep.ledger.check(o, fmt.Sprintf("run %d conservation", r))
		if r < spec.variants {
			digests[v] = rep.digest
			for _, d := range rep.offloads {
				offloads = append(offloads, float64(d)/1e6)
			}
			o.check(fmt.Sprintf("variant %d offloads", v), len(rep.offloads) > 0,
				"%d hot services reached the express lane, %d lanes at end", len(rep.offloads), rep.finalOffloaded)
			if spec.migrate {
				o.check(fmt.Sprintf("variant %d migration", v), rep.migrated, "hottest server VM moved live")
			}
		} else {
			checkDigest(o, r, rep.digest, digests[v])
		}
		totals = totals.add(rep.counters)
		events += rep.events
		runWall += rep.run
	}
	h := sha256.New()
	for _, d := range digests {
		h.Write([]byte(d))
	}
	o.digest = hex.EncodeToString(h.Sum(nil))[:16]

	p50, p90, p99 := quantile(offloads, 0.5), quantile(offloads, 0.9), quantile(offloads, 0.99)
	o.e2e["setup_s"] = median(setups)
	// The median over Run slices resists a slowdown of the machine that
	// lasts only part of the run.
	o.e2e["throughput"] = median(slices)
	o.e2e["latency_ms_p50"] = p50
	o.e2e["latency_ms_p90"] = p90
	o.e2e["heap_mb"] = median(heaps)
	o.report = []named{
		{"virtual_per_wall", o.e2e["throughput"], "x", fmt.Sprintf("median of %d Run slices of %v over %d runs of %v virtual", len(slices), simSlice, reps, spec.horizon+simDrain)},
		{"offload_ms_p50", p50, "ms", fmt.Sprintf("virtual; %d samples over %d variants", len(offloads), spec.variants)},
		{"offload_ms_p90", p90, "ms", "virtual"},
		{"offload_ms_p99", p99, "ms", "virtual"},
		{"heap_mb", median(heaps), "MB", "live heap after GC, deployment alive"},
		{"setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups))},
		{"error_rate", errorRate(o), "ratio", "packets unaccounted or blackholed / sent"},
	}

	rt1 := readRuntime()
	l := o.layers
	l["sim.events"] = float64(events)
	if runWall > 0 {
		l["sim.events_per_s"] = float64(events) / runWall.Seconds()
	}
	if events > 0 {
		l["runtime.allocs_per_event"] = float64(rt1.allocs-rt0.allocs) / float64(events)
	}
	l["runtime.gc_cpu_ms"] = rt1.gcCPUms - rt0.gcCPUms
	l["measure.reports"] = float64(totals.reports)
	l["core.decide_cycles"] = float64(totals.decisions)
	l["core.retries"] = float64(totals.retries)
	l["core.giveups"] = float64(totals.giveups)
	l["tor.tcam_installs"] = float64(totals.installs)
	l["tor.tcam_rejects"] = float64(totals.rejects)
	l["vswitch.upcalls"] = float64(totals.upcalls)
	if lookups := totals.megaHits + totals.megaMisses; lookups > 0 {
		l["vswitch.megaflow_hit_ratio"] = float64(totals.megaHits) / float64(lookups)
		o.bases["vswitch.megaflow_hit_ratio"] = fmt.Sprintf("%d megaflow lookups", lookups)
	}
	if totals.classified > 0 {
		exact := float64(totals.classified) - float64(totals.megaHits+totals.megaMisses)
		l["vswitch.exact_hit_ratio"] = math.Max(0, exact) / float64(totals.classified)
		o.bases["vswitch.exact_hit_ratio"] = fmt.Sprintf("%d packets transmitted or refused by the vswitch", totals.classified)
	}
	l["vswitch.packets"] = float64(totals.vswitchPkts)
	l["openflow.messages"] = float64(totals.ofMessages)
	l["openflow.bytes"] = float64(totals.ofBytes)
	o.bases["sim.events_per_s"] = fmt.Sprintf("%.3fs of Deployment.Run wall time", runWall.Seconds())
	o.bases["runtime.allocs_per_event"] = fmt.Sprintf("%d events", events)
	return o, nil
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func (a simCounters) add(b simCounters) simCounters {
	a.reports += b.reports
	a.decisions += b.decisions
	a.retries += b.retries
	a.giveups += b.giveups
	a.installs += b.installs
	a.rejects += b.rejects
	a.upcalls += b.upcalls
	a.megaHits += b.megaHits
	a.megaMisses += b.megaMisses
	a.vswitchPkts += b.vswitchPkts
	a.classified += b.classified
	a.ofMessages += b.ofMessages
	a.ofBytes += b.ofBytes
	return a
}

// simService is one flow of the scenario.
type simService struct {
	src, dst int // indices into scenario.vms
	tenant   uint32
	srcPort  uint16
	dstPort  uint16
	rate     float64
	next     *sim.Event
	// hotSince is when the service last entered the hot set (-1 when not
	// hot); sampled marks that its offload delay for this hot spell is
	// recorded (or that it was already on the express lane).
	hotSince time.Duration
	sampled  bool
	placed   int
}

type scenario struct {
	spec     simSpec
	d        *fastrak.Deployment
	eng      *sim.Engine
	rng      *rand.Rand
	vms      []*host.VM
	vmServer []int
	retired  []*host.VM
	svcs     []*simService
	ladder   []float64
	byPat    map[rules.Pattern]int
	offloads []time.Duration
	migrated bool
	// The migrated VM's old server, and its vswitch-unrouted and NIC
	// steer-miss counts at the move: packets that reach it afterwards
	// were in flight to a VM that no longer exists there.
	cutoverFrom                  int
	cutoverUnrouted, cutoverMiss uint64
}

// runScenario builds and runs one deployment for spec.horizon+simDrain of
// virtual time.
func runScenario(spec simSpec, seed int64, tr *tracer) (*simRep, error) {
	rep := &simRep{}
	t0 := time.Now()
	sp := tr.begin("sim.setup", -1)
	sc, err := buildScenario(spec, seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	rep.setup = time.Since(t0)

	total := spec.horizon + simDrain
	t1 := time.Now()
	rs := tr.begin("sim.run", -1)
	for sc.d.Now() < total {
		step := simSlice
		if rem := total - sc.d.Now(); rem < step {
			step = rem
		}
		s := tr.begin("fastrak.Deployment.Run", rs)
		t := time.Now()
		sc.d.Run(step)
		if sc.d.Now() <= spec.horizon {
			rep.slices = append(rep.slices, step.Seconds()/since(t))
		}
		tr.end(s)
	}
	tr.end(rs)
	rep.run = time.Since(t1)
	rep.heapMB = liveHeapMB()
	sc.d.Stop()
	sc.finish(rep)
	return rep, nil
}

func buildScenario(spec simSpec, seed int64) (*scenario, error) {
	d, err := fastrak.NewDeployment(fastrak.Options{
		Servers:      spec.servers,
		TCAMCapacity: spec.tcam,
		Seed:         seed,
		Controller:   fastrak.ControllerOptions{Epoch: spec.epoch, HistoryIntervals: spec.history},
	})
	if err != nil {
		return nil, err
	}
	sc := &scenario{spec: spec, d: d, eng: d.Cluster.Eng, rng: rand.New(rand.NewSource(seed)), byPat: map[rules.Pattern]int{}}

	// VMs: tenants interleave across servers so every tenant spans the
	// rack.
	byTenant := make(map[uint32][]int)
	for s := 0; s < spec.servers; s++ {
		for v := 0; v < spec.vmsPerServer; v++ {
			id := len(sc.vms)
			tenant := uint32(10 + id%spec.tenants)
			ip := fmt.Sprintf("10.%d.%d.%d", tenant-10, s, 10+v)
			vm, err := d.AddVM(s, tenant, ip, fastrak.VMOptions{VCPUs: 2})
			if err != nil {
				return nil, err
			}
			sc.vms = append(sc.vms, vm)
			sc.vmServer = append(sc.vmServer, s)
			byTenant[tenant] = append(byTenant[tenant], id)
		}
	}
	// Flows: each VM sends flowsPerVM flows to peers of its tenant on
	// other servers.
	for id := range sc.vms {
		tenant := uint32(sc.vms[id].Key.Tenant)
		peers := byTenant[tenant]
		for k := 0; k < spec.flowsPerVM; k++ {
			dst := peers[sc.rng.Intn(len(peers))]
			for sc.vmServer[dst] == sc.vmServer[id] {
				dst = peers[sc.rng.Intn(len(peers))]
			}
			sc.svcs = append(sc.svcs, &simService{
				src: id, dst: dst, tenant: tenant,
				srcPort: uint16(40000 + k), dstPort: uint16(9000 + k),
				hotSince: -1,
			})
		}
	}
	for id := range sc.vms {
		sc.bindApps(id)
	}
	n := len(sc.svcs)
	sc.ladder = make([]float64, n)
	for r := range sc.ladder {
		if spec.zipf {
			sc.ladder[r] = spec.topRate / float64(r+1)
		} else {
			sc.ladder[r] = spec.topRate * math.Pow(10, -spec.decades*float64(r)/float64(n-1))
		}
	}
	for _, lc := range d.Manager.Locals {
		lc.OnPlacement = sc.onPlacement
	}

	// Rotations re-deal the ladder; the first one at t=0 starts traffic.
	for at := time.Duration(0); at < spec.horizon; at += spec.rotate {
		at := at
		sc.eng.At(at, func() { sc.rotateHot(at) })
	}
	if spec.migrate {
		sc.eng.At(spec.horizon/2+spec.rotate/4, sc.migrate)
	}
	d.Start()
	return sc, nil
}

// bindApps installs the receive side on VM id: a responder per service
// port when the scenario has responses, else a sink.
func (sc *scenario) bindApps(id int) {
	vm := sc.vms[id]
	for k := 0; k < sc.spec.flowsPerVM; k++ {
		port := uint16(9000 + k)
		if sc.spec.respSize == 0 {
			vm.BindApp(port, host.AppFunc(func(*host.VM, *packet.Packet) {}))
			continue
		}
		size := sc.spec.respSize
		vm.BindApp(port, host.AppFunc(func(v *host.VM, p *packet.Packet) {
			v.Send(p.IP.Src, port, p.TCP.SrcPort, size, host.SendOptions{Seq: p.Meta.Seq}, nil)
		}))
	}
}

// rotateHot deals the ladder to services by a fresh permutation. Each
// service takes its new rank at its own seeded offset within the first
// half of the period, so the moments services turn hot are spread over
// the measurement-epoch grid instead of sharing one phase.
func (sc *scenario) rotateHot(base time.Duration) {
	perm := sc.rng.Perm(len(sc.svcs))
	for i, s := range sc.svcs {
		s, rank := s, perm[i]
		at := base
		if base > 0 {
			at += time.Duration(sc.rng.Float64() * float64(sc.spec.rotate) / 2)
		}
		sc.eng.At(at, func() { sc.setRank(s, rank) })
	}
}

// setRank moves a service to a ladder rank and restarts its generator at
// the new rate (Poisson arrivals are memoryless, so redrawing the pending
// gap is exact).
func (sc *scenario) setRank(s *simService, rank int) {
	now := sc.eng.Now()
	s.rate = sc.ladder[rank]
	switch hot := rank < sc.spec.hot; {
	case hot && s.hotSince < 0:
		s.hotSince = now
		// A service that turns hot at t=0 is warming the measurement
		// history, and one still on the express lane from an earlier
		// spell has nothing to wait for.
		s.sampled = now == 0 || s.placed > 0 || rank >= sc.spec.measured
	case !hot:
		s.hotSince = -1
	}
	if s.next != nil {
		s.next.Cancel()
	}
	sc.schedule(s)
}

func (sc *scenario) schedule(s *simService) {
	gap := time.Duration(sc.rng.ExpFloat64() / s.rate * float64(time.Second))
	s.next = sc.eng.After(gap, func() { sc.fire(s) })
}

func (sc *scenario) fire(s *simService) {
	if sc.eng.Now() >= sc.spec.horizon {
		s.next = nil
		return
	}
	src, dst := sc.vms[s.src], sc.vms[s.dst]
	src.Send(dst.Key.IP, s.srcPort, s.dstPort, sc.spec.reqSize, host.SendOptions{}, nil)
	sc.schedule(s)
}

// onPlacement observes express-lane redirects installed at the local
// controllers: the moment a barrier-confirmed TCAM pattern is announced
// and the source's flow placer steers onto it.
func (sc *scenario) onPlacement(p rules.Pattern, installed bool) {
	i, ok := sc.byPat[p]
	if !ok {
		i = -1
		for j, s := range sc.svcs {
			if p.Match(sc.key(s, false)) || (sc.spec.respSize > 0 && p.Match(sc.key(s, true))) {
				i = j
				break
			}
		}
		sc.byPat[p] = i
	}
	if i < 0 {
		return
	}
	s := sc.svcs[i]
	if !installed {
		s.placed--
		return
	}
	s.placed++
	if s.hotSince >= 0 && !s.sampled {
		s.sampled = true
		sc.offloads = append(sc.offloads, sc.eng.Now()-s.hotSince)
	}
}

// key is the flow key of a service's requests (or responses).
func (sc *scenario) key(s *simService, reverse bool) packet.FlowKey {
	src, dst := sc.vms[s.src].Key.IP, sc.vms[s.dst].Key.IP
	k := packet.FlowKey{Tenant: packet.TenantID(s.tenant), Src: src, Dst: dst, SrcPort: s.srcPort, DstPort: s.dstPort, Proto: packet.ProtoTCP}
	if reverse {
		k.Src, k.Dst, k.SrcPort, k.DstPort = dst, src, s.dstPort, s.srcPort
	}
	return k
}

// migrate moves the server VM of the currently hottest service to a third
// server through the rule manager's pull-back / re-offload protocol.
func (sc *scenario) migrate() {
	var hottest *simService
	for _, s := range sc.svcs {
		if hottest == nil || s.rate > hottest.rate {
			hottest = s
		}
	}
	id := hottest.dst
	from := sc.vmServer[id]
	to := (from + 1) % sc.spec.servers
	if to == sc.vmServer[hottest.src] {
		to = (to + 1) % sc.spec.servers
	}
	old := sc.vms[id]
	ip := old.Key.IP.String()
	if err := sc.d.MigrateVM(from, to, uint32(old.Key.Tenant), ip); err != nil {
		return
	}
	vm, ok := sc.d.VM(uint32(old.Key.Tenant), ip)
	if !ok {
		return
	}
	sc.cutoverFrom = from
	sc.cutoverUnrouted = sc.d.Cluster.Servers[from].VSwitch.Counters().Unrouted
	_, _, _, _, sc.cutoverMiss = sc.d.Cluster.Servers[from].NIC.Counters()
	sc.retired = append(sc.retired, old)
	sc.vms[id], sc.vmServer[id] = vm, to
	sc.bindApps(id)
	sc.migrated = true
}

// finish runs the output checks and gathers the public counters.
func (sc *scenario) finish(rep *simRep) {
	c := sc.d.Cluster
	l := &rep.ledger
	for _, vm := range append(append([]*host.VM(nil), sc.vms...), sc.retired...) {
		tx, rx, _, _ := vm.Counters()
		l.sent += tx
		l.delivered += rx
	}
	for i := range c.Servers {
		for _, link := range []interface {
			Stats() (uint64, uint64, uint64)
			FaultDrops() (uint64, uint64)
		}{c.Uplink(i), c.Downlink(i)} {
			_, _, q := link.Stats()
			down, loss := link.FaultDrops()
			l.linkDrops += q + down + loss
		}
	}
	l.torACL, l.rateDrops, l.torNoVRF, l.torUnrouted, _, _ = c.TOR.Counters()
	cnt := &rep.counters
	for _, srv := range c.Servers {
		t := srv.VSwitch.Counters()
		l.swDenied += t.Denied
		l.swUnrouted += t.Unrouted
		l.swDrops += t.Drops.Shape + t.Drops.UpcallQueue + t.Drops.Clamp
		_, _, _, _, sm := srv.NIC.Counters()
		l.steerMiss += sm
		cnt.upcalls += t.Upcalls
		cnt.megaHits += t.Megaflow.Hits
		cnt.megaMisses += t.Megaflow.Misses
		cnt.vswitchPkts += t.Tx + t.Rx
		cnt.classified += t.Tx + t.Denied + t.Unrouted
	}
	if sc.migrated {
		old := c.Servers[sc.cutoverFrom]
		unrouted := old.VSwitch.Counters().Unrouted - sc.cutoverUnrouted
		_, _, _, _, miss := old.NIC.Counters()
		miss -= sc.cutoverMiss
		l.swUnrouted -= unrouted
		l.steerMiss -= miss
		l.cutover = unrouted + miss
	}

	m := sc.d.Manager
	for i, tr := range m.Transports() {
		// Transports lists each local controller's upward and downward
		// channel first; the upward ones carry the demand reports.
		if i < 2*len(m.Locals) && i%2 == 0 {
			cnt.reports += tr.Sent
		}
	}
	for _, tc := range m.TORCtls {
		cnt.decisions += tc.Decisions
		cnt.retries += tc.Retries
		cnt.giveups += tc.GiveUps
		cnt.installs += tc.Installs
	}
	for _, t := range c.TORs {
		cnt.rejects += t.InstallRejects()
	}
	msgs, bytes, _ := m.ControlStats()
	swMsgs, swBytes := m.SwitchStats()
	cnt.ofMessages, cnt.ofBytes = msgs+swMsgs, bytes+swBytes

	rep.events = sc.eng.Processed()
	rep.offloads = sc.offloads
	rep.migrated = sc.migrated
	final := sc.d.Offloaded()
	rep.finalOffloaded = len(final)
	h := sha256.New()
	for _, d := range sc.offloads {
		fmt.Fprintf(h, "offload %d\n", d)
	}
	for _, p := range final {
		fmt.Fprintf(h, "lane %s\n", p)
	}
	fmt.Fprintf(h, "sent %d delivered %d events %d\n", l.sent, l.delivered, rep.events)
	rep.digest = hex.EncodeToString(h.Sum(nil))[:16]
}
