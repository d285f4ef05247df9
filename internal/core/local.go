package core

import (
	"sort"
	"time"

	"repro/internal/decision"
	"repro/internal/fabric"
	"repro/internal/fps"
	"repro/internal/host"
	"repro/internal/measure"
	"repro/internal/openflow"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/vswitch"
)

// LocalController runs on each physical server (§4.3): its ME polls the
// vswitch datapath for active-flow statistics; its DE programs co-resident
// VMs' flow placers with redirection rules and computes the FPS rate-limit
// split for each VM's interface pair.
type LocalController struct {
	mgr    *Manager
	server *host.Server
	me     *measure.Engine
	// toTOR/fromTOR is the control connection to the rack's primary TOR
	// controller (replica 0); toTORs/fromTORs cover the whole replica
	// group — reports and acks are broadcast so hot standbys stay warm,
	// and the fenced term decides whose decisions are obeyed. With HA
	// disabled the slices hold exactly the primary pair.
	toTOR    *openflow.Transport
	fromTOR  *openflow.Transport
	toTORs   []*openflow.Transport
	fromTORs []*openflow.Transport
	// rack is this server's rack index (for fault registration).
	rack int

	// limiters holds per-VM FPS state.
	limiters map[vswitch.VMKey]*decision.Limiter
	// lastHW caches the TOR's latest hardware-rate observations.
	lastHW map[vswitch.VMKey]openflow.VMRate
	// pendingSplits carries computed hardware limits to the TOR in the
	// next demand report.
	pendingSplits []openflow.RateSplit
	// installed tracks placer rules this controller installed, per
	// pattern, so demotions delete exactly what was added.
	installed map[rules.Pattern]bool
	// lastSyncSeq is the highest RuleSync sequence applied; stale
	// (reordered) syncs are not re-applied but are re-acked.
	lastSyncSeq uint32
	// termSeen is the newest leadership term witnessed; decisions and
	// syncs from older terms are dropped (a deposed leader must not
	// reprogram placers) and a newer term resets the RuleSync sequence
	// space — each leader numbers its syncs independently.
	termSeen uint32
	// lastLeaderContact and leaseTicker drive the placer-side lease
	// fail-safe: half a LeaseTTL without a current-term leader message
	// expires every placement back to the software path — strictly
	// before the TCAM rules expire at a full TTL, so an orphaned express
	// lane degrades instead of blackholing.
	lastLeaderContact sim.Time
	leaseTicker       *sim.Ticker
	// ackPending is set while a SyncAck is deferred behind a non-empty
	// uplink queue; see scheduleAck.
	ackPending bool

	// FlowMods counts placer programming operations (controller cost).
	FlowMods uint64
	// NICMods counts SmartNIC table programming operations.
	NICMods uint64
	// Hints counts overload-signal transitions forwarded to the TOR DE.
	Hints uint64
	// FencedMsgs counts stale-term control messages dropped.
	FencedMsgs uint64
	// PlacerExpiries counts placements expired by the lease fail-safe.
	PlacerExpiries uint64

	// acct is the streaming heavy-hitter accountant; non-nil only in
	// sketch accounting mode (Config.SketchAccounting), where it replaces
	// the exact datapath walk as the ME's statistics feed.
	acct *sketch.Accountant

	// OnPlacement, when set, fires after a placer redirect is installed
	// (installed=true) or removed (installed=false). The split
	// AgentService (internal/service daemons) uses it to mirror the
	// express-lane ACL into the host-side data-path model, which stands in
	// for the physical ToR the remote decision engine programs. Nil in
	// single-process deployments.
	OnPlacement func(p rules.Pattern, installed bool)
	// AugmentReport, when set, may extend an outgoing demand report
	// before it is chunked. The split AgentService appends express-lane
	// counter entries measured host-side, which a remote TOR controller
	// cannot read from its own TCAM. Nil in single-process deployments.
	AugmentReport func(rep *openflow.DemandReport)

	// rec is the flight-recorder scope; nil when telemetry is disabled.
	rec *telemetry.Scoped
}

func newLocalController(m *Manager, srv *host.Server) *LocalController {
	lc := &LocalController{
		mgr:       m,
		server:    srv,
		limiters:  make(map[vswitch.VMKey]*decision.Limiter),
		lastHW:    make(map[vswitch.VMKey]openflow.VMRate),
		installed: make(map[rules.Pattern]bool),
	}
	lc.me = measure.New(m.Cluster.Eng, m.Cfg.Measure, lc.readDatapath)
	lc.me.ServerID = uint32(srv.ID)
	lc.me.OnReport = lc.sendReport
	if m.Cfg.SketchAccounting {
		scfg := m.Cfg.Sketch
		scfg.Aggregate = m.Cfg.Measure.Aggregate
		lc.acct = sketch.New(scfg, 1)
		srv.VSwitch.EnableSketch(lc.acct.Shard(0))
		lc.me.SetPatternSource(lc.readSketch)
	}
	// Degradation signal path: the vswitch's slow-path overload detector
	// reports state transitions; the local controller forwards them to
	// the TOR DE as OverloadHints so the emergency offload does not wait
	// for the next demand-report cycle.
	srv.VSwitch.OnOverload = lc.onOverload
	return lc
}

// onOverload forwards a slow-path overload transition out of band. The
// hint names the dominant tenant so the DE can boost exactly the
// aggregates whose misses are burning the host CPUs (§4.2 motivates
// offload as the relief valve for vswitch overload).
func (lc *LocalController) onOverload(sig vswitch.OverloadSignal) {
	lc.Hints++
	if lc.rec != nil {
		cause := "recovered"
		if sig.Overloaded {
			cause = "overloaded"
		}
		lc.rec.Record(telemetry.Event{Kind: telemetry.KindHint, Cause: cause,
			Tenant: sig.Offender, V1: sig.Utilization, V2: sig.MissPPS})
	}
	hint := &openflow.OverloadHint{
		ServerID:   uint32(lc.server.ID),
		Tenant:     sig.Offender,
		Overloaded: sig.Overloaded,
		MissPPS:    sig.MissPPS,
	}
	for _, tr := range lc.toTORs {
		tr.Send(hint)
	}
}

// MEFaultStats reports how many demand reports the stats fault surface
// dropped or delayed on this server's measurement path.
func (lc *LocalController) MEFaultStats() (lost, delayed uint64) {
	return lc.me.ReportsLost, lc.me.ReportsDelayed
}

func (lc *LocalController) start() {
	lc.me.Start()
	if ttl := lc.mgr.Cfg.HA.LeaseTTL; ttl > 0 {
		lc.lastLeaderContact = lc.mgr.Cluster.Eng.Now()
		lc.leaseTicker = lc.mgr.Cluster.Eng.Every(ttl/8, lc.checkLease)
	}
}

func (lc *LocalController) stop() {
	lc.me.Stop()
	if lc.leaseTicker != nil {
		lc.leaseTicker.Stop()
		lc.leaseTicker = nil
	}
}

// checkLease is the placer-side lease fail-safe. The SmartNIC's own lease
// sweeper expires the device rules on the same silence independently.
func (lc *LocalController) checkLease() {
	ttl := lc.mgr.Cfg.HA.LeaseTTL
	if len(lc.installed) == 0 ||
		lc.mgr.Cluster.Eng.Now()-lc.lastLeaderContact <= sim.Time(ttl)/2 {
		return
	}
	ps := make([]rules.Pattern, 0, len(lc.installed))
	for p := range lc.installed {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
	for _, p := range ps {
		lc.removePlacement(p)
	}
	lc.PlacerExpiries += uint64(len(ps))
	if lc.rec != nil {
		lc.rec.Record(telemetry.Event{Kind: telemetry.KindLeaseExpire, Cause: "placer",
			V1: float64(len(ps)), V2: float64(lc.termSeen)})
	}
}

// admitTerm fences a TOR-controller message carrying leadership term
// `term`: stale terms are dropped, newer ones adopted. Any current-term
// leader message is proof of leader liveness — it refreshes the placer
// lease and the host SmartNIC's rule leases.
func (lc *LocalController) admitTerm(term uint32, cause string) bool {
	if term < lc.termSeen {
		lc.FencedMsgs++
		if lc.rec != nil {
			lc.rec.Record(telemetry.Event{Kind: telemetry.KindFenceReject, Cause: cause,
				V1: float64(term), V2: float64(lc.termSeen)})
		}
		return false
	}
	if term > lc.termSeen {
		lc.termSeen = term
		lc.lastSyncSeq = 0
	}
	lc.lastLeaderContact = lc.mgr.Cluster.Eng.Now()
	if n := lc.server.SmartNIC; n != nil {
		n.RefreshAllLeases()
	}
	return true
}

// readDatapath snapshots the vswitch's per-flow counters (§5.2: "queries
// the OVS datapath for active flow statistics").
func (lc *LocalController) readDatapath() []measure.Reading {
	snap := lc.server.VSwitch.Snapshot()
	out := make([]measure.Reading, 0, len(snap))
	for _, s := range snap {
		out = append(out, measure.Reading{Key: s.Key, Packets: s.Packets, Bytes: s.Bytes})
	}
	// Flows forwarded by the SmartNIC tier bypass the vswitch datapath;
	// the NIC keeps its own per-flow counters, merged here (the ME sums
	// readings per aggregate) so placement keeps seeing full demand.
	if n := lc.server.SmartNIC; n != nil {
		for _, s := range n.Snapshot() {
			out = append(out, measure.Reading{Key: s.Key, Packets: s.Packets, Bytes: s.Bytes})
		}
	}
	return out
}

// readSketch is the ME's statistics feed in sketch accounting mode: the
// accountant's top-k pattern report instead of a walk over every exact-
// cache entry. Counters are cumulative, exactly like datapath snapshots,
// so the ME's two-sample delta logic applies unchanged. NIC-forwarded
// flows bypass the vswitch (and therefore the sketch); their exact NIC
// counters are keyed through the same aggregation and appended.
func (lc *LocalController) readSketch() []measure.PatternReading {
	rep := lc.acct.Report()
	out := make([]measure.PatternReading, 0, len(rep))
	for _, pc := range rep {
		out = append(out, measure.PatternReading{Pattern: pc.Pattern, Packets: pc.Pkts, Bytes: pc.Bytes})
	}
	if n := lc.server.SmartNIC; n != nil {
		aggregate := lc.acct.Config().Aggregate
		for _, s := range n.Snapshot() {
			if aggregate {
				out = append(out,
					measure.PatternReading{Pattern: rules.AggregatePattern(s.Key.EgressAggregate()), Packets: s.Packets, Bytes: s.Bytes},
					measure.PatternReading{Pattern: rules.AggregatePattern(s.Key.IngressAggregate()), Packets: s.Packets, Bytes: s.Bytes})
			} else {
				out = append(out, measure.PatternReading{Pattern: rules.ExactPattern(s.Key), Packets: s.Packets, Bytes: s.Bytes})
			}
		}
	}
	return out
}

// sendReport forwards the ME's demand report, attaching the FPS splits
// computed since the last interval. Large reports are chunked below the
// protocol's frame limit; the TOR controller merges chunks per interval.
func (lc *LocalController) sendReport(rep openflow.DemandReport) {
	rep.Splits = lc.pendingSplits
	lc.pendingSplits = nil
	// The NIC table section: what the SmartNIC actually holds and how
	// much room it has. The TOR controller's NIC tier decides and
	// reconciles against exactly this view.
	if n := lc.server.SmartNIC; n != nil {
		rep.NICFree = uint32(n.Free())
		rep.NICPatterns = n.Patterns()
	}
	if lc.acct != nil {
		cfg := lc.acct.Config()
		ctr := lc.acct.Counters()
		rep.Sketch = &openflow.SketchMeta{
			TopK:  uint32(cfg.TopK),
			Width: uint32(cfg.Width), Depth: uint32(cfg.Depth),
			Floor: lc.acct.Floor(), Evictions: ctr.Evictions,
		}
		if lc.rec != nil {
			lc.rec.Record(telemetry.Event{Kind: telemetry.KindSketchReport,
				V1: float64(len(rep.Entries)), V2: float64(rep.Sketch.Floor)})
		}
	}
	if lc.AugmentReport != nil {
		lc.AugmentReport(&rep)
	}
	if lc.rec != nil {
		lc.rec.Record(telemetry.Event{Kind: telemetry.KindReportSent,
			V1: float64(len(rep.Entries)), V2: float64(rep.Interval)})
	}
	for _, chunk := range openflow.ChunkDemandReport(rep) {
		chunk := chunk
		// Broadcast to the whole replica group: hot standbys rebuild the
		// demand view passively from the same reports the leader acts on.
		for _, tr := range lc.toTORs {
			tr.Send(&chunk)
		}
	}
}

// HandleMessage implements openflow.Handler for TOR → local messages.
func (lc *LocalController) HandleMessage(msg openflow.Message, xid uint32, reply openflow.ReplyFunc) {
	switch m := msg.(type) {
	case *openflow.OffloadDecision:
		lc.applyDecision(m)
	case *openflow.RuleSync:
		lc.applySync(m)
	case openflow.EchoRequest:
		reply(openflow.EchoReply{}, xid)
	}
}

// applySync reconciles the placer programming against the TOR's full
// desired offload set and acknowledges it. The ack is what un-gates ACL
// removal at the TOR: by acking, this server asserts none of its placers
// still steer flows excluded from the set through the express lane.
func (lc *LocalController) applySync(m *openflow.RuleSync) {
	if !lc.admitTerm(m.Term, "sync") {
		return // deposed leader's sync; no ack, let it fence on the switch
	}
	if m.Seq >= lc.lastSyncSeq {
		desired := make(map[rules.Pattern]bool, len(m.Patterns))
		for _, p := range m.Patterns {
			desired[p] = true
			if !lc.installed[p] {
				lc.installPlacement(p)
			}
		}
		// Deterministic sweep of placements no longer desired.
		extra := make([]rules.Pattern, 0)
		for p := range lc.installed {
			if !desired[p] {
				extra = append(extra, p)
			}
		}
		sort.Slice(extra, func(i, j int) bool { return extra[i].Compare(extra[j]) < 0 })
		for _, p := range extra {
			lc.removePlacement(p)
		}
		lc.lastSyncSeq = m.Seq
	}
	lc.scheduleAck()
}

// ackRecheck paces the deferred-ack poll while the access link holds
// undelivered packets.
const ackRecheck = time.Millisecond

// scheduleAck sends the SyncAck once this server can honestly make the
// ack's assertion. Re-routing the placers is not enough: packets this
// host steered into the express lane while steering was still lawful may
// sit in the access-link queue behind a down or congested uplink, and an
// ack sent before they drain would let the TOR delete the ACL from under
// them. The ack is therefore deferred until the uplink queue is empty; it
// always carries the newest seq/term at send time, so deferred acks
// collapse into one.
func (lc *LocalController) scheduleAck() {
	if lc.ackPending {
		return
	}
	if up := lc.uplink(); up != nil && up.QueueLen() > 0 {
		lc.ackPending = true
		lc.mgr.Cluster.Eng.After(ackRecheck, lc.retryAck)
		return
	}
	lc.sendAck()
}

// uplink resolves this server's access uplink by position in the
// cluster. Server.ID is the wire identity, not an index: a split
// deployment (core split services) numbers the single local server with
// its rack-wide ServerID, so indexing links by ID would come up empty.
func (lc *LocalController) uplink() *fabric.Link {
	c := lc.mgr.Cluster
	for i, s := range c.Servers {
		if s == lc.server {
			return c.Uplink(i)
		}
	}
	return nil
}

func (lc *LocalController) retryAck() {
	if up := lc.uplink(); up != nil && up.QueueLen() > 0 {
		lc.mgr.Cluster.Eng.After(ackRecheck, lc.retryAck)
		return
	}
	lc.ackPending = false
	lc.sendAck()
}

// sendAck broadcasts the SyncAck — the acting leader recognizes its own
// term, anyone else ignores it.
func (lc *LocalController) sendAck() {
	ack := &openflow.SyncAck{ServerID: uint32(lc.server.ID), Seq: lc.lastSyncSeq, Term: lc.termSeen}
	for _, tr := range lc.toTORs {
		tr.Send(ack)
	}
}

// applyDecision programs flow placers and recomputes rate splits.
func (lc *LocalController) applyDecision(d *openflow.OffloadDecision) {
	if !lc.admitTerm(d.Term, "decision") {
		return
	}
	for _, r := range d.HWRates {
		lc.lastHW[vswitch.VMKey{Tenant: r.Tenant, IP: r.VMIP}] = r
	}
	for _, a := range d.Actions {
		if a.Tier == openflow.TierNIC {
			lc.applyNICAction(a)
			continue
		}
		if a.Offload {
			lc.installPlacement(a.Pattern)
		} else {
			lc.removePlacement(a.Pattern)
		}
	}
	lc.adjustRateLimits()
}

// applyNICAction programs the host SmartNIC's rule table. Install
// failures (tenant quota, a full table, injected faults) are not retried
// here: the rule's absence from the next report's NIC section makes the
// TOR controller re-assert or re-place it, and in the meantime the flow
// rides the vswitch — the NIC tier's miss path is the software path, so
// nothing is ever blackholed by a failed or missing NIC rule.
func (lc *LocalController) applyNICAction(a openflow.OffloadAction) {
	n := lc.server.SmartNIC
	if n == nil {
		return
	}
	lc.NICMods++
	if a.Offload {
		_ = n.Install(a.Pattern, 0)
	} else {
		n.Remove(a.Pattern)
	}
}

// installPlacement adds the VF redirection rule to every co-resident VM
// of the pattern's tenant whose traffic the pattern could cover. The
// vswitch fast path is invalidated for covered flows so demand for them
// stops being double-counted.
func (lc *LocalController) installPlacement(p rules.Pattern) {
	if lc.installed[p] {
		return
	}
	mod := &openflow.FlowMod{Command: openflow.FlowAdd, Pattern: p, Out: openflow.PathVF, Priority: 10}
	if lc.sendToPlacers(p, mod) {
		lc.installed[p] = true
		lc.server.VSwitch.Invalidate(p)
		if lc.OnPlacement != nil {
			lc.OnPlacement(p, true)
		}
	}
}

func (lc *LocalController) removePlacement(p rules.Pattern) {
	if !lc.installed[p] {
		return
	}
	mod := &openflow.FlowMod{Command: openflow.FlowDelete, Pattern: p}
	lc.sendToPlacers(p, mod)
	delete(lc.installed, p)
	if lc.OnPlacement != nil {
		lc.OnPlacement(p, false)
	}
}

// sendToPlacers delivers a FlowMod to matching VMs' placers after the
// control delay (the placer lives in the VM kernel; programming it is an
// OpenFlow exchange, §4.1.1). VMs are visited in address order so event
// scheduling — and therefore the whole simulation — is reproducible.
// Reports whether any placer was programmed.
func (lc *LocalController) sendToPlacers(p rules.Pattern, mod *openflow.FlowMod) bool {
	any := false
	for _, vm := range sortedVMs(lc.server) {
		if vm.Key.Tenant != p.Tenant && !p.AnyTenant {
			continue
		}
		vm := vm
		wire := openflow.Encode(mod, 0)
		lc.FlowMods++
		lc.mgr.Cluster.Eng.After(lc.mgr.Cfg.ControlDelay, func() {
			decoded, xid, _, err := openflow.Decode(wire)
			if err != nil {
				panic("core: flowmod decode: " + err.Error())
			}
			vm.Placer.HandleMessage(decoded, xid, func(openflow.Message, uint32) {})
		})
		any = true
	}
	return any
}

// installInitialSplit installs a 50/50 split before the first FPS
// adjustment.
func (lc *LocalController) installInitialSplit(key vswitch.VMKey, egressBps, ingressBps float64) {
	lc.limiters[key] = decision.NewLimiter(egressBps, ingressBps)
	half := func(v float64) float64 { return v / 2 }
	_ = lc.server.VSwitch.SetVIFLimits(key, half(egressBps), half(ingressBps))
	lc.pendingSplits = append(lc.pendingSplits, openflow.RateSplit{
		Tenant: key.Tenant, VMIP: key.IP,
		EgressHardBps:  half(egressBps),
		IngressHardBps: half(ingressBps),
	})
}

// Placements returns the placer redirect rules this controller currently
// has installed, sorted — exposed for the service admin API.
func (lc *LocalController) Placements() []rules.Pattern {
	out := make([]rules.Pattern, 0, len(lc.installed))
	for p := range lc.installed {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// sortedVMs returns the server's VMs in deterministic (tenant, IP) order.
func sortedVMs(srv *host.Server) []*host.VM {
	out := make([]*host.VM, 0, len(srv.VMs))
	for _, vm := range srv.VMs {
		out = append(out, vm)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Tenant != out[j].Key.Tenant {
			return out[i].Key.Tenant < out[j].Key.Tenant
		}
		return out[i].Key.IP < out[j].Key.IP
	})
	return out
}

// adjustRateLimits runs FPS for each limited co-resident VM: software
// demand from the vswitch meters, hardware demand from the TOR's
// observations, then installs Rs locally and queues Rh for the TOR
// (§4.3.2).
func (lc *LocalController) adjustRateLimits() {
	// In sketch mode the accountant's monitored set doubles as a heavy-
	// flow census per VM and direction: FPS uses the counts to split
	// headroom by flow population when neither path shows demand yet.
	var egFlows, inFlows map[vswitch.VMKey]int
	if lc.acct != nil {
		egFlows = make(map[vswitch.VMKey]int)
		inFlows = make(map[vswitch.VMKey]int)
		for _, pc := range lc.acct.Report() {
			if pc.Pattern.SrcPrefix == 32 {
				egFlows[vswitch.VMKey{Tenant: pc.Pattern.Tenant, IP: pc.Pattern.Src}]++
			}
			if pc.Pattern.DstPrefix == 32 {
				inFlows[vswitch.VMKey{Tenant: pc.Pattern.Tenant, IP: pc.Pattern.Dst}]++
			}
		}
	}
	keys := make([]vswitch.VMKey, 0, len(lc.mgr.limits))
	for key := range lc.mgr.limits {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Tenant != keys[j].Tenant {
			return keys[i].Tenant < keys[j].Tenant
		}
		return keys[i].IP < keys[j].IP
	})
	for _, key := range keys {
		if _, ok := lc.server.VMs[key]; !ok {
			continue
		}
		lim, ok := lc.limiters[key]
		if !ok {
			agg := lc.mgr.limits[key]
			lim = decision.NewLimiter(agg.egressBps, agg.ingressBps)
			lc.limiters[key] = lim
		}
		egSoft, inSoft, _ := lc.server.VSwitch.VIFRates(key)
		hw := lc.lastHW[key]
		split := lim.Adjust(
			fps.Demand{RateBps: egSoft, Flows: egFlows[key]},
			fps.Demand{RateBps: hw.EgressBps, MaxedOut: hw.EgressMaxed},
			fps.Demand{RateBps: inSoft, Flows: inFlows[key]},
			fps.Demand{RateBps: hw.IngressBps, MaxedOut: hw.IngressMaxed},
		)
		split.Tenant = key.Tenant
		split.VMIP = key.IP
		_ = lc.server.VSwitch.SetVIFLimits(key, split.EgressSoftBps, split.IngressSoftBps)
		lc.pendingSplits = append(lc.pendingSplits, split)
	}
}
