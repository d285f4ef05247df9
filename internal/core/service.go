// Split-service constructors: the halves of the rule manager that
// internal/service promotes to separate long-lived processes.
//
// Attach wires every controller over one cluster with in-simulation
// transports. A split deployment instead builds
//
//   - a TORService (fastrak-tord): one TOR decision engine plus its
//     switch agent over a host-less cluster standing in for the physical
//     ToR. Local controllers attach over the network as their demand
//     reports arrive and detach when their connection drops;
//   - an AgentService (fastrak-agentd): one local controller plus the
//     full host data plane (vswitch, placers, optional SmartNIC) over a
//     single-server cluster, talking to the ToR through a remote-mode
//     openflow.Transport.
//
// Both reuse the exact controller implementations — the only new code is
// topology assembly and the host-side stand-ins for state that lives on
// the other side of the wire (the express-lane ACL mirror and the
// hardware-counter report augmentation below).
package core

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/openflow"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/tor"
	"repro/internal/vswitch"
)

// TORService is the ToR half of a split rule manager: the decision
// engine, its switch agent, and the TCAM model they program. All methods
// must run on the goroutine (or service runtime loop) that owns the
// cluster's engine.
type TORService struct {
	M  *Manager
	TC *TORController

	agent *switchAgent
}

// NewTORService builds the ToR decision engine over c's first ToR. The
// cluster is typically host-light (its TCAM model stands in for the
// physical switch); local controllers are not built here — they attach
// remotely via AttachLocal.
func NewTORService(c *cluster.Cluster, cfg Config) *TORService {
	cfg = normalizeConfig(cfg)
	m := &Manager{
		Cluster: c,
		Cfg:     cfg,
		limits:  make(map[vswitch.VMKey]aggregateLimit),
	}
	t := c.TORs[0]
	if cfg.HA.LeaseTTL > 0 {
		t.SetLeaseTTL(cfg.HA.LeaseTTL)
	}
	agent := newSwitchAgent(t)
	tc := newTORController(m, t)
	tc.agent = agent
	if m.haEnabled() {
		tc.term = 1
	}
	tc.isLeader = true
	// The controller ↔ switch-agent connection stays in-process (in a
	// real rack they share the switch's management plane): installs keep
	// round-tripping real wire encoding and stay barrier-confirmed.
	tc.toSwitch, tc.fromSwitch = openflow.Pair(c.Eng, cfg.ControlDelay, tc, agent)
	m.RackCtls = [][]*TORController{{tc}}
	m.TORCtls = []*TORController{tc}
	m.TORCtl = tc
	m.agents = []*switchAgent{agent}
	return &TORService{M: m, TC: tc, agent: agent}
}

// AttachLocal registers a connected local controller: decisions and
// RuleSyncs start flowing to tr, and the server's acks gate removals.
// Reattaching an already-known server (an agent reconnect) just swaps the
// transport. A full RuleSync goes out immediately so the newcomer
// converges without waiting for the anti-entropy cadence.
func (s *TORService) AttachLocal(serverID uint32, tr *openflow.Transport) {
	tc := s.TC
	if _, ok := tc.toLocalByID[serverID]; ok {
		for i, id := range tc.localIDs {
			if id == serverID {
				tc.toLocals[i] = tr
			}
		}
		tc.toLocalByID[serverID] = tr
		tc.publish()
		return
	}
	tc.localIDs = append(tc.localIDs, serverID)
	tc.toLocals = append(tc.toLocals, tr)
	tc.toLocalByID[serverID] = tr
	tc.publish()
}

// DetachLocal removes a departed local controller. Its cached demand
// report and ack state go too: a dead server must neither feed stale
// demand into decisions nor gate ACL removals forever (minAckedSeq runs
// over exactly the attached set). Removals waiting on its ack are
// re-evaluated right away.
func (s *TORService) DetachLocal(serverID uint32) {
	tc := s.TC
	if _, ok := tc.toLocalByID[serverID]; !ok {
		return
	}
	ids := tc.localIDs[:0]
	trs := tc.toLocals[:0]
	for i, id := range tc.localIDs {
		if id == serverID {
			continue
		}
		ids = append(ids, id)
		trs = append(trs, tc.toLocals[i])
	}
	tc.localIDs = ids
	tc.toLocals = trs
	delete(tc.toLocalByID, serverID)
	delete(tc.ackedSeq, serverID)
	delete(tc.reports, serverID)
	delete(tc.lastInterval, serverID)
	delete(tc.lastReportAt, serverID)
	delete(tc.nicReported, serverID)
	delete(tc.nicFree, serverID)
	delete(tc.nicSeen, serverID)
	tc.tryRemovals()
}

// AgentIDs returns the currently attached servers, sorted.
func (s *TORService) AgentIDs() []uint32 {
	out := append([]uint32(nil), s.TC.localIDs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Start begins the decision cadence; Stop halts it.
func (s *TORService) Start() { s.M.Start() }
func (s *TORService) Stop()  { s.M.Stop() }

// PlacementView is one pattern's position in the install/remove machinery
// — the admin API's placement inspection payload.
type PlacementView struct {
	Pattern rules.Pattern
	// State is "offloaded" (barrier-confirmed, announced to placers),
	// "installing" (FlowMod sent, barrier pending) or "removing" (demoted,
	// ACL removal gated on acks and grace).
	State string
	// Attempts counts install sends so far (installing only).
	Attempts int
}

// Placements reports every pattern the DE currently tracks in hardware
// or on its way in/out, sorted by state then pattern.
func (s *TORService) Placements() []PlacementView {
	tc := s.TC
	out := make([]PlacementView, 0, len(tc.offloaded)+len(tc.installing)+len(tc.removing))
	for p := range tc.offloaded {
		out = append(out, PlacementView{Pattern: p, State: "offloaded"})
	}
	for p, st := range tc.installing {
		out = append(out, PlacementView{Pattern: p, State: "installing", Attempts: st.attempts})
	}
	for p := range tc.removing {
		out = append(out, PlacementView{Pattern: p, State: "removing"})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].State != out[j].State {
			return out[i].State < out[j].State
		}
		return out[i].Pattern.Compare(out[j].Pattern) < 0
	})
	return out
}

// HardwareRuleView is one installed TCAM entry with its counters.
type HardwareRuleView struct {
	Pattern  rules.Pattern
	Priority int
	Queue    int
	Packets  uint64
	Bytes    uint64
}

// HardwareRules snapshots the TCAM in deterministic order, merging the
// per-rule hit counters.
func (s *TORService) HardwareRules() []HardwareRuleView {
	stats := make(map[rules.Pattern]tor.ACLStats)
	for _, st := range s.TC.tor.Stats() {
		stats[st.Pattern] = st
	}
	ris := s.TC.tor.Rules()
	out := make([]HardwareRuleView, 0, len(ris))
	for _, ri := range ris {
		st := stats[ri.Pattern]
		out = append(out, HardwareRuleView{
			Pattern: ri.Pattern, Priority: ri.Priority, Queue: ri.Queue,
			Packets: st.Packets, Bytes: st.Bytes,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority > out[j].Priority
		}
		return out[i].Pattern.Compare(out[j].Pattern) < 0
	})
	return out
}

// TCAMUsage reports used and total TCAM capacity.
func (s *TORService) TCAMUsage() (used, capacity int) {
	return s.TC.tor.TCAMUsed(), s.TC.tor.TCAMUsed() + s.TC.tor.TCAMFree()
}

// Pin force-starts the confirm-then-announce install sequence for a
// pattern (admin rule CRUD). The rule enters the normal machinery, so a
// later DE tick may demote it again if it carries no demand.
func (s *TORService) Pin(p rules.Pattern) {
	tc := s.TC
	if tc.offloaded[p] || tc.installing[p] != nil {
		return
	}
	tc.startInstall(p)
}

// Unpin demotes a pattern through the gated removal path (admin rule
// CRUD) — placers are redirected first, the ACL goes only after acks and
// the in-flight grace, exactly like a DE-decided demotion.
func (s *TORService) Unpin(p rules.Pattern) {
	tc := s.TC
	now := tc.mgr.Cluster.Eng.Now()
	switch {
	case tc.offloaded[p]:
		tc.beginRemove(p)
		tc.announce(openflow.OffloadAction{Pattern: p, Offload: false})
		tc.damper.ForceState(p, false, now)
		tc.publish()
	case tc.installing[p] != nil:
		tc.abortInstall(p)
		tc.damper.ForceState(p, false, now)
	}
}

// AgentService is the per-host half of a split rule manager: one local
// controller over a single-server cluster carrying the real data plane.
// All methods must run on the goroutine (or service runtime loop) that
// owns the cluster's engine.
type AgentService struct {
	M  *Manager
	LC *LocalController

	// prevHW/prevHWBytes/prevHWAt hold the last report's express-lane
	// counter snapshot for the pps/bps deltas fed back to the ToR.
	prevHW      map[rules.Pattern]uint64
	prevHWBytes map[rules.Pattern]uint64
	prevHWAt    sim.Time
}

// NewAgentService builds the local controller for c's single server,
// reporting to the ToR over toTOR (a remote-mode transport in daemons, an
// in-sim one in tests).
//
// Two host-side stand-ins close the loop the single-process manager gets
// for free from its shared TOR model:
//
//   - the express-lane ACL mirror: when a placer starts steering a
//     pattern to the VF, the matching Allow ACL is installed in the local
//     cluster's ToR model (which carries this host's data path), so
//     redirected packets are forwarded instead of hitting default-deny;
//   - report augmentation: offloaded flows bypass the vswitch, so their
//     demand would vanish from reports and the remote DE — which cannot
//     read this host's ToR counters — would demote them. The mirror ToR's
//     per-pattern counters are appended to each demand report instead,
//     playing the role of the TOR ME's hardware counter poll.
func NewAgentService(c *cluster.Cluster, cfg Config, toTOR *openflow.Transport) *AgentService {
	cfg = normalizeConfig(cfg)
	m := &Manager{
		Cluster: c,
		Cfg:     cfg,
		limits:  make(map[vswitch.VMKey]aggregateLimit),
	}
	srv := c.Servers[0]
	lc := newLocalController(m, srv)
	lc.rack = 0
	lc.toTORs = []*openflow.Transport{toTOR}
	lc.toTOR = toTOR
	m.Locals = []*LocalController{lc}
	s := &AgentService{
		M: m, LC: lc,
		prevHW:      make(map[rules.Pattern]uint64),
		prevHWBytes: make(map[rules.Pattern]uint64),
	}
	lc.OnPlacement = s.mirrorPlacement
	lc.AugmentReport = s.augmentReport
	return s
}

// Start begins measurement and placer programming; Stop halts them.
func (s *AgentService) Start() { s.M.Start() }
func (s *AgentService) Stop()  { s.M.Stop() }

// mirrorPlacement keeps the host-side ToR model's ACLs in lockstep with
// the placer redirects, standing in for the physical switch the remote
// controller programs (see NewAgentService).
func (s *AgentService) mirrorPlacement(p rules.Pattern, installed bool) {
	t := s.M.Cluster.TOR
	t.RemoveACL(p)
	if installed {
		_ = t.InstallACL(&rules.TCAMEntry{Pattern: p, Action: rules.Allow, Priority: hwPriority})
	} else {
		delete(s.prevHW, p)
		delete(s.prevHWBytes, p)
	}
}

// augmentReport appends express-lane counter deltas to an outgoing
// demand report and applies the FPS hardware-side splits to the local ToR
// model (the physical enforcement point on this host's path).
func (s *AgentService) augmentReport(rep *openflow.DemandReport) {
	t := s.M.Cluster.TOR
	for _, sp := range rep.Splits {
		t.SetVFLimit(sp.Tenant, sp.VMIP, tor.Egress, sp.EgressHardBps)
		t.SetVFLimit(sp.Tenant, sp.VMIP, tor.Ingress, sp.IngressHardBps)
	}
	now := s.M.Cluster.Eng.Now()
	elapsed := now - s.prevHWAt
	if s.prevHWAt > 0 && elapsed > 0 {
		epochs := uint32(s.M.Cfg.Measure.EpochsPerInterval)
		if epochs == 0 {
			epochs = 1
		}
		stats := t.Stats()
		sort.Slice(stats, func(i, j int) bool {
			return stats[i].Pattern.Compare(stats[j].Pattern) < 0
		})
		for _, st := range stats {
			if !s.LC.installed[st.Pattern] {
				continue // not our mirror rule
			}
			prevP, prevB := s.prevHW[st.Pattern], s.prevHWBytes[st.Pattern]
			if st.Packets > prevP {
				// Express-lane traffic passes the ToR ACL twice (VF
				// ingress and tunnel termination); halve for wire rate —
				// the same convention as the TOR ME's counter poll.
				secs := elapsed.Seconds()
				pps := float64(st.Packets-prevP) / 2 / secs
				bps := float64(st.Bytes-prevB) / 2 / secs * 8
				rep.Entries = append(rep.Entries, openflow.DemandEntry{
					Pattern: st.Pattern, PPS: pps, BPS: bps,
					Epoch: rep.Interval, MedianPPS: pps, MedianBPS: bps,
					ActiveEpochs: epochs,
				})
			}
			s.prevHW[st.Pattern] = st.Packets
			s.prevHWBytes[st.Pattern] = st.Bytes
		}
	} else {
		for _, st := range t.Stats() {
			s.prevHW[st.Pattern] = st.Packets
			s.prevHWBytes[st.Pattern] = st.Bytes
		}
	}
	s.prevHWAt = now
}

// SetVMLimit registers a VM's purchased aggregate rates (see
// Manager.SetVMLimit).
func (s *AgentService) SetVMLimit(tenant vswitch.VMKey, egressBps, ingressBps float64) {
	s.M.SetVMLimit(tenant.Tenant, tenant.IP, egressBps, ingressBps)
}

// RemoveVM tears down a tenant VM and every piece of controller state
// keyed on it. Placer rules covering the VM are cleaned up by the next
// RuleSync sweep; in-flight packets drain through the normal paths.
func (s *AgentService) RemoveVM(key vswitch.VMKey) error {
	if err := s.M.Cluster.RemoveVM(0, key.Tenant, key.IP); err != nil {
		return err
	}
	delete(s.LC.limiters, key)
	delete(s.LC.lastHW, key)
	delete(s.M.limits, key)
	return nil
}
