package core

import (
	"sort"
	"time"

	"repro/internal/decision"
	"repro/internal/host"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tor"
	"repro/internal/vswitch"
)

// hwPriority is the TCAM priority of controller-installed offload ACLs.
// Reconciliation and restart-time adoption recognise the controller's own
// rules by it.
const hwPriority = 100

// syncRefreshTicks and reconcileTicks pace the anti-entropy machinery:
// a full RuleSync goes to every local, and a TableRequest to the switch
// agent, at least once per this many decision intervals (more often when
// state changes). Keeping them off the per-tick hot path preserves the
// paper's "negligible" controller overhead (§6.2.2).
const (
	syncRefreshTicks = 4
	reconcileTicks   = 4
)

// urgentBoost multiplies the tenant preference c of a tenant flagged by an
// OverloadHint: its aggregates jump the score ordering so the miss storm
// moves to hardware ahead of merely-busy flows. The boost expires after
// urgentTTLIntervals control intervals without a refreshed hint — hints
// are advisory and must not pin priority forever if the recovery signal
// is lost.
const (
	urgentBoost        = 8.0
	urgentTTLIntervals = 4
)

// staleIntervals is how many control intervals a server's stats path may
// stay silent before its cached demand report is excluded from decisions.
// Excluded candidates are not dropped to zero: the decision smoother
// carries them on a decaying estimate (see internal/decision/damper.go),
// so one lost report cannot demote a hot flow, while a genuinely dead
// reporter fades out within a few intervals.
const staleIntervals = 2

// installState tracks one in-flight hardware install: the FlowMod has
// been sent to the switch agent but the barrier confirming it has not
// come back. Placers are NOT redirected until confirmation — an express
// lane is announced only once the hardware acknowledged the ACL, so a
// rejected or lost install can never blackhole packets.
type installState struct {
	attempts int
	queue    int
	failed   bool
	flowXID  uint32
	barXID   uint32
	timer    *sim.Event
}

// removeState tracks one demoted pattern whose ACL is still installed.
// The ACL is removed only after (a) every local controller has acked a
// RuleSync that excludes the pattern — so all placers have redirected the
// flow back to the software path — and (b) a grace period has passed for
// express-lane packets already in flight.
type removeState struct {
	// needSeq is the first RuleSync sequence excluding the pattern;
	// every local must ack ≥ needSeq before the ACL may go.
	needSeq uint32
	// readyAt is the in-flight grace deadline.
	readyAt sim.Time
	// orphan marks rules found in hardware but owned by nobody
	// (remnants of a crash or a lost delete); they skip announcement.
	orphan     bool
	deleteSent bool
	timer      *sim.Event
}

// TORController manages one ToR switch (§4.3): its ME polls offloaded-
// flow counters in hardware, its DE merges them with the local
// controllers' demand reports, picks the offload set within the TCAM
// budget, installs/removes the hardware rules, and distributes decisions.
//
// Hardware state is managed asynchronously through the switch agent's
// control connection (internal/faults can drop, delay or sever it, and
// the hardware can reject installs):
//
//   - installs are barrier-confirmed and retried with exponential backoff
//     before the controller degrades the flow to the software path;
//   - removals are gated on every local controller acknowledging a
//     RuleSync that excludes the pattern, plus an in-flight grace;
//   - a per-interval TableRequest reconciles desired against reported
//     hardware state, repairing divergence in both directions;
//   - Crash/Restart model controller failure: all volatile state is lost
//     and the restarted controller adopts the hardware's installed rules
//     as its desired set (removing them blind would blackhole flows whose
//     placers still steer to the express lane).
type TORController struct {
	mgr      *Manager
	tor      *tor.TOR
	toLocals []*openflow.Transport
	// localIDs are the rack's server IDs, for counting RuleSync acks.
	localIDs []uint32
	// toSwitch/fromSwitch is the control connection to the switch agent.
	toSwitch   *openflow.Transport
	fromSwitch *openflow.Transport

	reports map[uint32]openflow.DemandReport
	// lastInterval and lastReportAt track each server's report stream
	// for gap and staleness detection: skipped interval sequence numbers
	// are counted in StatsGaps, and a server silent for staleIntervals
	// control intervals has its cached report excluded from decisions.
	lastInterval map[uint32]uint32
	lastReportAt map[uint32]sim.Time

	// smoother carries per-candidate EWMA estimates across intervals and
	// synthesizes decaying candidates for patterns whose stats went
	// missing; damper vetoes offload/demote flapping with BGP-style
	// penalty decay. Both are volatile (reset on Crash).
	smoother *decision.Smoother
	damper   *decision.FlapDamper

	// urgent maps tenants flagged by OverloadHints to the sim time their
	// priority boost expires.
	urgent map[packet.TenantID]sim.Time

	// offloaded holds barrier-confirmed hardware patterns — the set
	// announced to placers.
	offloaded map[rules.Pattern]bool
	// installing holds patterns sent to hardware but not yet confirmed.
	installing map[rules.Pattern]*installState
	// removing holds demoted patterns whose ACL removal is still gated.
	removing map[rules.Pattern]*removeState

	// nicDesired maps each NIC-tier pattern to the server whose SmartNIC
	// should carry it (NIC rules are per-host; the middle rung of the
	// software → SmartNIC → TCAM ladder). nicReported and nicFree cache
	// each server's latest NIC report section; nicSeen marks servers that
	// ever reported a SmartNIC. nicDamper is the NIC tier's own flap
	// damper — transitions on one tier must not penalize the other. All
	// volatile (reset on Crash): a restarted controller does not adopt NIC
	// rules the way it adopts TCAM rules, because a swept NIC rule costs
	// only a software spell (the NIC tier structurally falls back to the
	// vswitch), never a blackhole.
	nicDesired  map[rules.Pattern]uint32
	nicReported map[uint32]map[rules.Pattern]bool
	nicFree     map[uint32]uint32
	nicSeen     map[uint32]bool
	nicDamper   *decision.FlapDamper
	// toLocalByID routes per-server NIC actions (TCAM actions broadcast).
	toLocalByID map[uint32]*openflow.Transport

	// pendingBarrier maps a BarrierRequest xid to its continuation.
	pendingBarrier map[uint32]func()
	// pendingInstall maps a FlowMod xid to its pattern so an ErrorMsg
	// (echoing that xid) marks the attempt failed.
	pendingInstall map[uint32]rules.Pattern

	// syncSeq numbers RuleSyncs; ackedSeq records each server's latest
	// ack. syncSeq survives Crash (a restarted controller must not
	// reuse sequence numbers locals already acked).
	syncSeq  uint32
	ackedSeq map[uint32]uint32
	// lastPublished is the desired set of the latest RuleSync;
	// sincePublish counts ticks since. Syncs go out on change or every
	// syncRefreshTicks as anti-entropy (§6.2.2 keeps steady-state
	// control traffic to a few messages per interval).
	lastPublished []rules.Pattern
	sincePublish  int

	// prevHW holds last interval's TCAM counters for pps computation.
	prevHW   map[rules.Pattern]uint64
	prevHWAt sim.Time

	// installedHW tracks hardware rate limits currently installed, for
	// maxed-out detection.
	installedHW map[vswitch.VMKey]openflow.RateSplit

	// pendingAnnounce batches offload/demote announcements accumulated
	// within one event window (e.g. many installs confirmed by barriers
	// carried on the same control RTT) into a single OffloadDecision
	// per local, keeping controller chatter at "a handful of messages
	// per interval" (§6.2.2).
	pendingAnnounce []openflow.OffloadAction
	announceQueued  bool

	ticker  *sim.Ticker
	stopped bool
	crashed bool

	// ---- control-plane HA state ----

	// replicaID identifies this replica within its rack's controller
	// group (0 is the bootstrap leader); toPeers carries election
	// heartbeats and term gossip to the other replicas; agent is the
	// rack's shared switch agent (fencing counters live there).
	replicaID int
	toPeers   map[int]*openflow.Transport
	agent     *switchAgent
	// term is the current leadership epoch. 0 means HA is disabled and
	// the controller behaves exactly like the original single-instance
	// manager. Terms are partitioned across replicas — replica i only
	// claims terms with (term-1) mod Replicas == i — so two replicas can
	// never lead under the same term; the switch agent fences stale
	// terms, leaving election a pure liveness mechanism.
	term     uint32
	isLeader bool
	// leaderID is the replica this follower believes leads; with
	// followingHigherSince (-1 when not following a higher id) it drives
	// the lowest-id-alive preemption after partitions heal.
	leaderID             int
	followingHigherSince sim.Time
	lastHeartbeatAt      sim.Time
	// justElected forces a full refresh+publish+reconcile on the first
	// DE tick after a takeover.
	justElected bool
	// lastTableReplyAt is the last proof the switch hardware was
	// reachable. With leases enabled, a leader silent of TableReplies for
	// half a TTL enters degraded mode: every offload is pulled back to
	// software *before* the unrefreshable TCAM rules expire under
	// still-steering placers.
	lastTableReplyAt sim.Time
	degraded         bool
	// paused models a frozen (SIGSTOP) process: state survives, but the
	// process misses heartbeats and drops arriving messages.
	paused      bool
	electTicker *sim.Ticker

	// rec is the flight-recorder scope; nil when telemetry is disabled.
	rec *telemetry.Scoped

	// Decisions counts DE runs (controller-cost experiment). The
	// remaining counters instrument the recovery machinery.
	Decisions uint64
	// Installs counts barrier-confirmed hardware installs.
	Installs uint64
	// Retries counts install re-sends after a rejection or timeout.
	Retries uint64
	// GiveUps counts installs abandoned after MaxInstallAttempts — the
	// flow stays on the software path (graceful degradation).
	GiveUps uint64
	// Repairs counts desired rules reconciliation found missing from
	// hardware and re-asserted.
	Repairs uint64
	// Orphans counts hardware rules reconciliation found unowned and
	// removed.
	Orphans uint64
	// Crashes counts Crash() invocations.
	Crashes uint64
	// Demotes counts confirmed patterns entering the removal path.
	Demotes uint64
	// StatsGaps counts skipped demand-report interval sequence numbers —
	// reports the stats fault surface (or a congested control path) ate.
	StatsGaps uint64
	// Hints counts OverloadHints received from local controllers.
	Hints uint64
	// NICPlacements and NICDemotes count NIC-tier rule placements and
	// retirements; NICReasserts counts desired NIC rules re-asserted after
	// dropping out of a server's report (reset/corruption faults, lost
	// installs); NICOrphans counts reported NIC rules nobody owned.
	NICPlacements uint64
	NICDemotes    uint64
	NICReasserts  uint64
	NICOrphans    uint64
	// Elections counts leadership takeovers by this replica; StepDowns
	// counts leaderships abandoned (superseded, fenced, paused).
	Elections uint64
	StepDowns uint64
	// FencedOut counts ErrCodeStaleTerm rejections received from the
	// switch agent — each one is a deposed leader caught acting.
	FencedOut uint64
	// Pauses counts Pause() invocations (faults.ControllerPause).
	Pauses uint64
	// LeaseRefreshes counts re-asserted FlowAdds sent to extend rule
	// leases; DegradedDemotes counts offloads pulled back by the
	// hardware-staleness guard.
	LeaseRefreshes  uint64
	DegradedDemotes uint64
}

func newTORController(m *Manager, t *tor.TOR) *TORController {
	return &TORController{
		mgr:            m,
		tor:            t,
		reports:        make(map[uint32]openflow.DemandReport),
		lastInterval:   make(map[uint32]uint32),
		lastReportAt:   make(map[uint32]sim.Time),
		smoother:       decision.NewSmoother(m.Cfg.Smoother),
		damper:         decision.NewFlapDamper(m.Cfg.Damper),
		nicDesired:     make(map[rules.Pattern]uint32),
		nicReported:    make(map[uint32]map[rules.Pattern]bool),
		nicFree:        make(map[uint32]uint32),
		nicSeen:        make(map[uint32]bool),
		nicDamper:      decision.NewFlapDamper(m.Cfg.Damper),
		toLocalByID:    make(map[uint32]*openflow.Transport),
		urgent:         make(map[packet.TenantID]sim.Time),
		offloaded:      make(map[rules.Pattern]bool),
		installing:     make(map[rules.Pattern]*installState),
		removing:       make(map[rules.Pattern]*removeState),
		pendingBarrier: make(map[uint32]func()),
		pendingInstall: make(map[uint32]rules.Pattern),
		ackedSeq:       make(map[uint32]uint32),
		prevHW:         make(map[rules.Pattern]uint64),
		installedHW:    make(map[vswitch.VMKey]openflow.RateSplit),

		toPeers:              make(map[int]*openflow.Transport),
		isLeader:             true,
		followingHigherSince: -1,
	}
}

// controlInterval is C = T × N (§4.3.1).
func (tc *TORController) controlInterval() time.Duration {
	return tc.mgr.Cfg.Measure.Epoch * time.Duration(tc.mgr.Cfg.Measure.EpochsPerInterval)
}

// ---- HA parameters ----

func (tc *TORController) replicas() int {
	if n := tc.mgr.Cfg.HA.Replicas; n > 1 {
		return n
	}
	return 1
}

// haReplicated reports whether this controller has standby peers.
func (tc *TORController) haReplicated() bool { return tc.replicas() > 1 }

func (tc *TORController) heartbeatEvery() time.Duration {
	if d := tc.mgr.Cfg.HA.HeartbeatEvery; d > 0 {
		return d
	}
	return tc.controlInterval() / 2
}

// electionTimeout staggers by replica id so the lowest-id alive replica
// claims first (its claim's heartbeats reset everyone else's timers well
// before their own timeouts fire).
func (tc *TORController) electionTimeout() time.Duration {
	base := tc.mgr.Cfg.HA.ElectionTimeout
	if base <= 0 {
		base = 2 * tc.controlInterval()
	}
	return base + time.Duration(tc.replicaID)*tc.heartbeatEvery()
}

// nextTerm is the smallest term above the current one in this replica's
// residue class — the structural guarantee that no two replicas ever
// share a term.
func (tc *TORController) nextTerm() uint32 {
	n := uint32(tc.replicas())
	t := tc.term + 1
	for (t-1)%n != uint32(tc.replicaID) {
		t++
	}
	return t
}

func (tc *TORController) start() {
	tc.stopped = false
	eng := tc.mgr.Cluster.Eng
	tc.lastHeartbeatAt = eng.Now()
	tc.lastTableReplyAt = eng.Now()
	// Offset the DE ticks so each interval's demand reports (epoch
	// boundary + sample gap + control delay) have arrived.
	offset := tc.mgr.Cfg.Measure.SampleGap + 4*tc.mgr.Cfg.ControlDelay + time.Millisecond
	eng.After(offset, func() {
		if tc.stopped || tc.crashed {
			return
		}
		tc.ticker = eng.Every(tc.controlInterval(), tc.tick)
	})
	if tc.haReplicated() {
		tc.electTicker = eng.Every(tc.heartbeatEvery(), tc.electionTick)
	}
}

func (tc *TORController) stop() {
	tc.stopped = true
	if tc.ticker != nil {
		tc.ticker.Stop()
	}
	if tc.electTicker != nil {
		tc.electTicker.Stop()
		tc.electTicker = nil
	}
}

// Crash models the controller process dying (faults.ControllerCrash):
// the decision ticker stops, every piece of volatile state — demand
// reports, in-flight installs and removals, pending confirmations, the
// desired offload set itself — is lost, and control messages arriving
// while down are dropped. Hardware keeps forwarding with the rules it
// has; placers keep their last programming. Implements faults.Controller.
func (tc *TORController) Crash() {
	if tc.crashed {
		return
	}
	tc.crashed = true
	tc.Crashes++
	if tc.rec != nil {
		tc.rec.Record(telemetry.Event{Kind: telemetry.KindCrash,
			V1: float64(len(tc.offloaded)), V2: float64(len(tc.installing))})
	}
	if tc.ticker != nil {
		tc.ticker.Stop()
		tc.ticker = nil
	}
	if tc.electTicker != nil {
		tc.electTicker.Stop()
		tc.electTicker = nil
	}
	// A crashed replica is no leader; its term dies with it and the
	// standbys elect a successor. (Single-instance deployments keep the
	// legacy behavior: the restarted process resumes directly.)
	if tc.haReplicated() {
		tc.isLeader = false
	}
	tc.degraded = false
	tc.justElected = false
	for _, st := range tc.installing {
		if st.timer != nil {
			st.timer.Cancel()
		}
	}
	for _, st := range tc.removing {
		if st.timer != nil {
			st.timer.Cancel()
		}
	}
	tc.reports = make(map[uint32]openflow.DemandReport)
	tc.lastInterval = make(map[uint32]uint32)
	tc.lastReportAt = make(map[uint32]sim.Time)
	tc.smoother = decision.NewSmoother(tc.mgr.Cfg.Smoother)
	tc.damper = decision.NewFlapDamper(tc.mgr.Cfg.Damper)
	tc.urgent = make(map[packet.TenantID]sim.Time)
	tc.offloaded = make(map[rules.Pattern]bool)
	tc.installing = make(map[rules.Pattern]*installState)
	tc.removing = make(map[rules.Pattern]*removeState)
	// NIC-tier desired state dies with the process. After Restart the
	// locals' reports re-surface the installed rules; with no owner they
	// are swept as orphans and re-placed by the DE — a transient software
	// spell for the affected flows, never a blackhole (NIC misses fall
	// back to the vswitch by construction).
	tc.nicDesired = make(map[rules.Pattern]uint32)
	tc.nicReported = make(map[uint32]map[rules.Pattern]bool)
	tc.nicFree = make(map[uint32]uint32)
	tc.nicSeen = make(map[uint32]bool)
	tc.nicDamper = decision.NewFlapDamper(tc.mgr.Cfg.Damper)
	tc.pendingBarrier = make(map[uint32]func())
	tc.pendingInstall = make(map[uint32]rules.Pattern)
	tc.ackedSeq = make(map[uint32]uint32)
	tc.prevHW = make(map[rules.Pattern]uint64)
	tc.installedHW = make(map[vswitch.VMKey]openflow.RateSplit)
	tc.pendingAnnounce = nil
	tc.lastPublished = nil
	tc.sincePublish = 0
}

// Restart brings a crashed controller back. It adopts the hardware's
// installed offload rules (the boot-time table dump) as its desired set:
// placers may still be steering those flows through the express lane, so
// starting from an empty desired set — and reconciling the "extra"
// hardware rules away — would blackhole them. Adopted rules re-enter the
// normal decision process and are demoted cleanly if no longer worth a
// TCAM slot. Implements faults.Controller.
func (tc *TORController) Restart() {
	if !tc.crashed {
		return
	}
	tc.crashed = false
	// A replicated controller restarts as a follower and adopts nothing:
	// the acting leader owns the hardware state, and this replica would
	// only claim (and adopt at that point) if the whole group went quiet.
	if !tc.haReplicated() {
		tc.adoptHardware()
	}
	if tc.rec != nil {
		// V1 is the number of hardware rules adopted as the desired set.
		tc.rec.Record(telemetry.Event{Kind: telemetry.KindRestart,
			V1: float64(len(tc.offloaded))})
	}
	if tc.mgr.started && !tc.stopped {
		tc.start()
	}
}

// adoptHardware imports the switch's installed offload rules as the
// desired set and re-seeds counter baselines so the first interval after
// a restart/takeover does not see the whole uptime's packets as one
// delta. Placers may still steer through those rules, so starting from an
// empty desired set — and reconciling the "extra" hardware rules away —
// would blackhole them.
func (tc *TORController) adoptHardware() {
	for _, ri := range tc.tor.Rules() {
		if ri.Priority == hwPriority {
			tc.offloaded[ri.Pattern] = true
		}
	}
	for _, st := range tc.tor.Stats() {
		tc.prevHW[st.Pattern] = st.Packets
	}
	tc.prevHWAt = tc.mgr.Cluster.Eng.Now()
}

// ---- leader election (hot-standby HA) ----

// electionTick runs every heartbeat period on every live replica: leaders
// heartbeat their peers; followers claim the rack when the leader goes
// silent past the (id-staggered) election timeout, or preempt a
// higher-id leader once they have been healthy followers long enough —
// restoring lowest-id-alive leadership after partitions heal.
func (tc *TORController) electionTick() {
	if tc.stopped || tc.crashed || tc.paused {
		return
	}
	now := tc.mgr.Cluster.Eng.Now()
	if tc.isLeader {
		tc.sendHeartbeats()
		return
	}
	if now-tc.lastHeartbeatAt > tc.electionTimeout() {
		tc.becomeLeader("timeout")
		return
	}
	if tc.leaderID > tc.replicaID && tc.followingHigherSince >= 0 &&
		now-tc.followingHigherSince > tc.electionTimeout() {
		tc.becomeLeader("preempt")
	}
}

func (tc *TORController) sendHeartbeats() {
	hb := &openflow.LeaderHeartbeat{Term: tc.term, LeaderID: uint32(tc.replicaID)}
	ids := make([]int, 0, len(tc.toPeers))
	for id := range tc.toPeers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		tc.toPeers[id].Send(hb)
	}
}

// handleHeartbeat processes a peer's view of leadership. Heartbeats only
// carry liveness and term ordering — safety never depends on them (the
// switch agent fences stale terms regardless of what replicas believe).
func (tc *TORController) handleHeartbeat(m *openflow.LeaderHeartbeat) {
	now := tc.mgr.Cluster.Eng.Now()
	switch {
	case m.Term < tc.term:
		// A stale leader still announcing itself (asymmetric partition,
		// or one healing): gossip the newer term back so it steps down
		// even before the switch agent fences its next install.
		if tr, ok := tc.toPeers[int(m.LeaderID)]; ok {
			tr.Send(&openflow.LeaderHeartbeat{Term: tc.term, LeaderID: uint32(tc.leaderID)})
		}
	case m.Term == tc.term:
		if !tc.isLeader && int(m.LeaderID) == tc.leaderID {
			tc.lastHeartbeatAt = now
		}
	default: // m.Term > tc.term
		if tc.isLeader {
			tc.stepDown("superseded")
		}
		tc.term = m.Term
		tc.setFollowing(int(m.LeaderID), now)
		tc.lastHeartbeatAt = now
	}
}

func (tc *TORController) setFollowing(id int, now sim.Time) {
	tc.leaderID = id
	if id > tc.replicaID {
		if tc.followingHigherSince < 0 {
			tc.followingHigherSince = now
		}
	} else {
		tc.followingHigherSince = -1
	}
}

// becomeLeader claims the rack under a fresh term from this replica's
// residue class. The claim does not need to be "right": if a healthier
// leader exists under a higher term, this replica's first hardware
// mutation is fenced and it steps straight back down — election provides
// liveness, fencing provides safety.
func (tc *TORController) becomeLeader(cause string) {
	tc.term = tc.nextTerm()
	tc.isLeader = true
	tc.leaderID = tc.replicaID
	tc.followingHigherSince = -1
	tc.Elections++
	// Adopt the hardware's installed rules as the desired set: placers
	// may still steer through them (same reasoning as Restart).
	tc.adoptHardware()
	// Fresh term, fresh ack space: each leadership numbers RuleSyncs
	// independently and trusts only same-term acks.
	tc.ackedSeq = make(map[uint32]uint32)
	tc.lastTableReplyAt = tc.mgr.Cluster.Eng.Now()
	tc.degraded = false
	tc.justElected = true
	tc.lastPublished = nil
	if tc.rec != nil {
		tc.rec.Record(telemetry.Event{Kind: telemetry.KindElection, Cause: cause,
			V1: float64(tc.term), V2: float64(tc.replicaID)})
	}
	// Immediate heartbeats: standbys with later timeouts stand down now.
	tc.sendHeartbeats()
}

// stepDown abandons leadership: all in-flight install/remove machinery is
// cancelled and the desired set dropped — the next leader adopts hardware
// state directly, so carrying a view here would only invite split-brain
// writes. Demand reports, the smoother and the dampers stay warm; that is
// what makes the standby "hot".
func (tc *TORController) stepDown(cause string) {
	if !tc.isLeader {
		return
	}
	tc.isLeader = false
	tc.StepDowns++
	tc.followingHigherSince = -1
	tc.lastHeartbeatAt = tc.mgr.Cluster.Eng.Now()
	for _, st := range tc.installing {
		if st.timer != nil {
			st.timer.Cancel()
		}
	}
	for _, st := range tc.removing {
		if st.timer != nil {
			st.timer.Cancel()
		}
	}
	tc.installing = make(map[rules.Pattern]*installState)
	tc.removing = make(map[rules.Pattern]*removeState)
	tc.offloaded = make(map[rules.Pattern]bool)
	tc.prevHW = make(map[rules.Pattern]uint64)
	tc.pendingBarrier = make(map[uint32]func())
	tc.pendingInstall = make(map[uint32]rules.Pattern)
	tc.pendingAnnounce = nil
	tc.lastPublished = nil
	tc.sincePublish = 0
	tc.nicDesired = make(map[rules.Pattern]uint32)
	tc.degraded = false
	tc.justElected = false
	if tc.rec != nil {
		tc.rec.Record(telemetry.Event{Kind: telemetry.KindElection, Cause: "step-down-" + cause,
			V1: float64(tc.term), V2: float64(tc.replicaID)})
	}
}

// Pause freezes the controller process (faults.ControllerPause). Unlike a
// crash, in-memory state survives — which is exactly why it is a distinct
// fault surface: the process resumes believing its pre-pause term, and
// only fencing stops it from acting on that stale belief. A paused leader
// steps down internally (its in-flight machinery is dead on arrival by
// resume time); messages arriving while frozen are dropped. Implements
// faults.Pausable.
func (tc *TORController) Pause() {
	if tc.paused || tc.crashed {
		return
	}
	tc.paused = true
	tc.Pauses++
	tc.stepDown("pause")
}

// Resume unfreezes the process. A single-instance deployment resumes
// leadership directly, re-adopting hardware state like a restart; a
// replicated one resumes as a follower — if no successor emerged while it
// was frozen, its election timeout re-elects it. Implements
// faults.Pausable.
func (tc *TORController) Resume() {
	if !tc.paused {
		return
	}
	tc.paused = false
	now := tc.mgr.Cluster.Eng.Now()
	tc.lastHeartbeatAt = now
	tc.lastTableReplyAt = now
	if !tc.haReplicated() {
		tc.isLeader = true
		tc.adoptHardware()
	}
	if tc.rec != nil {
		tc.rec.Record(telemetry.Event{Kind: telemetry.KindElection, Cause: "resume",
			V1: float64(tc.term), V2: float64(tc.replicaID)})
	}
}

// ---- lease refresh and degraded mode ----

// refreshLeases re-asserts every confirmed offload rule on the reconcile
// cadence. The switch agent treats an identical FlowAdd as an idempotent
// no-op that extends the rule's lease, and the TableRequest that follows
// on the same FIFO channel refreshes whatever an individual lost FlowAdd
// missed — so with a healthy path a desired rule can never expire
// (HAConfig.LeaseTTL must exceed two reconcile periods). A rule that went
// missing from hardware is reinstalled as a side effect, making the
// refresh double as fast repair.
func (tc *TORController) refreshLeases() {
	if tc.mgr.Cfg.HA.LeaseTTL <= 0 {
		return
	}
	for _, p := range tc.offloadedList() {
		action, queue := tc.policyFor(p)
		if action != rules.Allow {
			continue // policy changed; let the lease lapse
		}
		tc.toSwitch.Send(&openflow.FlowMod{
			Command: openflow.FlowAdd, Pattern: p, Priority: hwPriority,
			Cookie: uint64(queue), Term: tc.term, Origin: uint32(tc.replicaID),
		})
		tc.LeaseRefreshes++
	}
}

// enterDegraded is the leader-side anti-blackhole guard for the lease
// fail-safe: no TableReply for half a LeaseTTL means the switch agent is
// unreachable, the TCAM leases cannot be refreshed, and the hardware
// rules will expire under placers this leader also cannot re-route
// afterwards. Pull every express lane back to software NOW — demotions
// announced to placers, ACL removal gated as usual (and covered by lease
// expiry if the deletes cannot be delivered either) — and stop offloading
// until the hardware answers again.
func (tc *TORController) enterDegraded() {
	tc.degraded = true
	var aborts []rules.Pattern
	for p := range tc.installing {
		aborts = append(aborts, p)
	}
	sort.Slice(aborts, func(i, j int) bool { return aborts[i].Compare(aborts[j]) < 0 })
	for _, p := range aborts {
		tc.abortInstall(p)
	}
	ps := tc.offloadedList()
	now := tc.mgr.Cluster.Eng.Now()
	for _, p := range ps {
		tc.beginRemove(p)
		tc.announce(openflow.OffloadAction{Pattern: p, Offload: false})
		tc.damper.ForceState(p, false, now)
		tc.DegradedDemotes++
	}
	if tc.rec != nil {
		tc.rec.Record(telemetry.Event{Kind: telemetry.KindLeaseExpire, Cause: "hw-stale",
			V1: float64(len(ps)), V2: float64(tc.term)})
	}
	if len(ps) > 0 {
		tc.publish()
	}
}

// HandleMessage implements openflow.Handler for messages from local
// controllers (DemandReport, SyncAck) and from the switch agent
// (BarrierReply, ErrorMsg, TableReply).
func (tc *TORController) HandleMessage(msg openflow.Message, xid uint32, reply openflow.ReplyFunc) {
	if tc.crashed || tc.paused {
		// Process down or frozen; messages are lost (a paused process's
		// socket overflows — anti-entropy re-delivers state on resume).
		return
	}
	switch m := msg.(type) {
	case *openflow.DemandReport:
		if cur, ok := tc.reports[m.ServerID]; ok && cur.Interval == m.Interval {
			// A continuation chunk of this interval's report.
			cur.Entries = append(cur.Entries, m.Entries...)
			tc.reports[m.ServerID] = cur
		} else {
			// Gap detection: interval sequence numbers that never arrived
			// mean lost (or badly delayed) reports on this server's stats
			// path. The count is diagnostic; the smoother handles the
			// estimation side.
			if last, ok := tc.lastInterval[m.ServerID]; ok && m.Interval > last+1 {
				tc.StatsGaps += uint64(m.Interval - last - 1)
			}
			tc.reports[m.ServerID] = *m
			// The NIC table section rides the first chunk only; a server
			// without a SmartNIC reports zero free entries and no patterns
			// and never trips nicSeen.
			nicSet := make(map[rules.Pattern]bool, len(m.NICPatterns))
			for _, p := range m.NICPatterns {
				nicSet[p] = true
			}
			tc.nicReported[m.ServerID] = nicSet
			tc.nicFree[m.ServerID] = m.NICFree
			if m.NICFree > 0 || len(m.NICPatterns) > 0 {
				tc.nicSeen[m.ServerID] = true
			}
		}
		if m.Interval > tc.lastInterval[m.ServerID] {
			tc.lastInterval[m.ServerID] = m.Interval
		}
		tc.lastReportAt[m.ServerID] = tc.mgr.Cluster.Eng.Now()
		// Standbys keep their demand view warm but must not touch the
		// (shared) hardware limiters — only the acting leader applies.
		if tc.isLeader {
			tc.applySplits(m.Splits)
		}
	case *openflow.OverloadHint:
		tc.Hints++
		if tc.rec != nil {
			cause := "recovered"
			if m.Overloaded {
				cause = "overloaded"
			}
			tc.rec.Record(telemetry.Event{Kind: telemetry.KindHint, Cause: cause,
				Tenant: m.Tenant, V1: float64(m.ServerID), V2: m.MissPPS})
		}
		if m.Overloaded && m.Tenant != 0 {
			// Boost the offending tenant for a bounded spell; a lost
			// recovery hint must not pin the boost forever.
			tc.urgent[m.Tenant] = tc.mgr.Cluster.Eng.Now() +
				sim.Time(urgentTTLIntervals)*tc.controlInterval()
		} else if !m.Overloaded && m.Tenant != 0 {
			delete(tc.urgent, m.Tenant)
		}
	case *openflow.SyncAck:
		if m.Term != tc.term {
			// Each leadership term numbers its RuleSyncs independently;
			// an ack scoped to another epoch must not un-gate removals.
			return
		}
		if m.Seq > tc.ackedSeq[m.ServerID] {
			tc.ackedSeq[m.ServerID] = m.Seq
		}
		tc.tryRemovals()
	case *openflow.LeaderHeartbeat:
		tc.handleHeartbeat(m)
	case *openflow.BarrierReply:
		if fn, ok := tc.pendingBarrier[xid]; ok {
			delete(tc.pendingBarrier, xid)
			fn()
		}
	case *openflow.ErrorMsg:
		if m.Code == openflow.ErrCodeStaleTerm {
			// The switch fenced us: a higher term exists, so another
			// replica took over while we still thought we led.
			tc.FencedOut++
			tc.stepDown("fenced")
			return
		}
		if p, ok := tc.pendingInstall[xid]; ok {
			delete(tc.pendingInstall, xid)
			if st := tc.installing[p]; st != nil && st.flowXID == xid {
				st.failed = true
			}
		}
	case *openflow.TableReply:
		tc.lastTableReplyAt = tc.mgr.Cluster.Eng.Now()
		tc.degraded = false
		if tc.isLeader {
			tc.reconcile(m)
		}
	case openflow.EchoRequest:
		reply(openflow.EchoReply{}, xid)
	}
}

// applySplits installs the hardware-side limits local DEs computed
// ("rate limits on the SR-IOV VF are applied at the TOR", §4.1.4).
func (tc *TORController) applySplits(splits []openflow.RateSplit) {
	for _, s := range splits {
		tc.tor.SetVFLimit(s.Tenant, s.VMIP, tor.Egress, s.EgressHardBps)
		tc.tor.SetVFLimit(s.Tenant, s.VMIP, tor.Ingress, s.IngressHardBps)
		tc.installedHW[vswitch.VMKey{Tenant: s.Tenant, IP: s.VMIP}] = s
	}
}

// tick is one DE run: measure hardware flows, decide, apply, distribute,
// reconcile.
func (tc *TORController) tick() {
	if tc.stopped || tc.crashed || tc.paused {
		return
	}
	if !tc.isLeader {
		return // hot standby: demand view stays warm, DE stays quiet
	}
	tc.Decisions++
	eng := tc.mgr.Cluster.Eng

	// Hardware-staleness guard (leases only): if the switch agent has
	// been unreachable for half a TTL, degrade before the TCAM rules
	// expire under still-steering placers.
	if ttl := tc.mgr.Cfg.HA.LeaseTTL; ttl > 0 && !tc.degraded &&
		eng.Now()-tc.lastTableReplyAt > sim.Time(ttl)/2 {
		tc.enterDegraded()
	}

	// TOR ME: pps of offloaded entries from TCAM counter deltas.
	hwPPS := make(map[rules.Pattern]float64)
	elapsed := eng.Now() - tc.prevHWAt
	if elapsed > 0 {
		for _, st := range tc.tor.Stats() {
			prev := tc.prevHW[st.Pattern]
			if st.Packets > prev {
				// Offloaded traffic passes the ACL twice (VF
				// ingress and GRE termination); halve to get
				// wire pps.
				hwPPS[st.Pattern] = float64(st.Packets-prev) / 2 / elapsed.Seconds()
			}
			tc.prevHW[st.Pattern] = st.Packets
		}
	}
	tc.prevHWAt = eng.Now()

	// Budget: free TCAM space plus what confirmed offloads would free.
	// In-flight installs hold their slot conservatively.
	budget := tc.tor.TCAMFree() + len(tc.offloaded)
	if tc.mgr.Cfg.MaxOffloads > 0 && budget > tc.mgr.Cfg.MaxOffloads {
		budget = tc.mgr.Cfg.MaxOffloads
	}

	reports := make([]openflow.DemandReport, 0, len(tc.reports))
	ids := make([]uint32, 0, len(tc.reports))
	for id := range tc.reports {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	staleAfter := sim.Time(staleIntervals) * tc.controlInterval()
	for _, id := range ids {
		// A server silent past the staleness bound has a dead or
		// partitioned stats path; acting on its frozen report would make
		// decisions from arbitrarily old data. Excluding it here hands
		// its candidates to the smoother, which decays them gracefully.
		if at, ok := tc.lastReportAt[id]; ok && eng.Now()-at > staleAfter {
			continue
		}
		reports = append(reports, tc.reports[id])
	}

	// Decisions are made against the union of confirmed and in-flight
	// installs so an install awaiting its barrier is neither re-proposed
	// nor silently double-counted.
	current := make(map[rules.Pattern]bool, len(tc.offloaded)+len(tc.installing))
	for p := range tc.offloaded {
		current[p] = true
	}
	for p := range tc.installing {
		current[p] = true
	}

	cands := decision.CandidatesFromReports(reports, hwPPS, tc.priorityOf)
	cands = tc.smoother.Advance(cands, current)
	// N-level placement: the TCAM tier inside DecideTiered is the
	// unchanged 2-level Decide over the same inputs, so with no SmartNICs
	// reporting (nicStates nil) this tick is byte-identical to the 2-level
	// controller. The NIC tier then places the candidates the TCAM did
	// not take onto each sourcing host's SmartNIC.
	nicStates, hostOf := tc.nicInputs()
	tcfg := decision.TieredConfig{
		TCAM: decision.Config{
			Budget:          budget,
			MinScore:        tc.mgr.Cfg.MinScore,
			HysteresisRatio: tc.mgr.Cfg.HysteresisRatio,
			Groups:          tc.mgr.Cfg.Groups,
		},
		NICMinScore:        tc.mgr.Cfg.NICMinScore,
		NICHysteresisRatio: tc.mgr.Cfg.NICHysteresisRatio,
		NICTenantQuota:     tc.mgr.Cfg.NICTenantQuota,
	}
	td := decision.DecideTiered(tcfg, cands, current, nicStates, hostOf)
	// Flap damping on top of score hysteresis: a pattern whose offload
	// state flipped repeatedly in quick succession is pinned to its
	// current state until the penalty decays (internal/decision/damper.go).
	d := tc.damper.Apply(td.TCAM, current, eng.Now())

	// The decision events carry the score inputs: V1 is the candidate's
	// score, V2 the TCAM budget the DE worked against.
	var scores map[rules.Pattern]float64
	if tc.rec != nil {
		scores = make(map[rules.Pattern]float64, len(cands))
		for _, c := range cands {
			scores[c.Pattern] = c.Score()
		}
	}

	var actions []openflow.OffloadAction
	for _, p := range d.Demote {
		if tc.offloaded[p] {
			if tc.rec != nil {
				tc.rec.EmitPattern(telemetry.KindDemoteDecision, p.Tenant, p, "score", scores[p], float64(budget))
			}
			tc.beginRemove(p)
			actions = append(actions, openflow.OffloadAction{Pattern: p, Offload: false})
		} else if tc.installing[p] != nil {
			if tc.rec != nil {
				tc.rec.EmitPattern(telemetry.KindDemoteDecision, p.Tenant, p, "abort-install", scores[p], float64(budget))
			}
			tc.abortInstall(p)
		}
	}
	for _, p := range d.Offload {
		if tc.degraded {
			break // hardware unreachable; no new express lanes
		}
		if tc.offloaded[p] || tc.installing[p] != nil {
			continue // already in hardware or on its way
		}
		if tc.rec != nil {
			tc.rec.EmitPattern(telemetry.KindOffloadDecision, p.Tenant, p, "score", scores[p], float64(budget))
		}
		// No action is announced here: placers redirect to the express
		// lane only after the hardware confirms the install.
		tc.startInstall(p)
	}

	// The middle tier: runs after beginRemove so a TCAM→NIC demotion is
	// recognizable (the pattern is in `removing` now), and before the
	// broadcast so NIC actions ride their own per-server decisions.
	tc.applyNICTier(td, scores)

	dec := &openflow.OffloadDecision{
		Interval: uint32(tc.Decisions),
		Actions:  actions,
		HWRates:  tc.hwRates(),
		Term:     tc.term,
		Origin:   uint32(tc.replicaID),
	}
	for _, tr := range tc.toLocals {
		tr.Send(dec)
	}
	if tc.justElected {
		// Full sync under the new term right away: locals adopt the term
		// (resetting their ack space) and reconcile placements against
		// the adopted desired set.
		tc.publish()
	} else {
		tc.maybePublish()
	}

	// Anti-entropy: periodically read back the hardware table and
	// reconcile on reply; the NIC tier reconciles against the cached
	// report sections on the same cadence. Lease refreshes ride the same
	// cadence, strictly before the TableRequest on the FIFO channel (the
	// read-back doubles as a bulk refresh at the agent).
	if tc.Decisions%reconcileTicks == 0 || tc.justElected {
		tc.justElected = false
		tc.refreshLeases()
		tc.toSwitch.Send(&openflow.TableRequest{Term: tc.term, Origin: uint32(tc.replicaID)})
		tc.nicReconcile()
	}
}

// priorityOf is the tenant preference c fed to the DE: the configured
// multiplier, further boosted while an OverloadHint for the tenant is in
// force. Expired boosts are dropped lazily on lookup.
func (tc *TORController) priorityOf(t packet.TenantID) float64 {
	p := 1.0
	if f := tc.mgr.Cfg.PriorityOf; f != nil {
		p = f(t)
	}
	if exp, ok := tc.urgent[t]; ok {
		if tc.mgr.Cluster.Eng.Now() < exp {
			p *= urgentBoost
		} else {
			delete(tc.urgent, t)
		}
	}
	return p
}

// FlapStats exposes the damper's counters: penalized offload-state
// transitions and vetoed ones.
func (tc *TORController) FlapStats() (transitions, suppressions uint64) {
	return tc.damper.Transitions, tc.damper.Suppressions
}

// maybePublish sends a RuleSync when the desired set changed since the
// last one, or as a periodic refresh (covering lost syncs and acks).
func (tc *TORController) maybePublish() {
	tc.sincePublish++
	desired := tc.offloadedList()
	if tc.sincePublish < syncRefreshTicks && patternsEqual(desired, tc.lastPublished) &&
		!tc.removalsNeedSync() {
		return
	}
	tc.publishSet(desired)
}

// removalsNeedSync reports whether a gated removal is waiting on a
// RuleSync sequence that has not been published yet. Content-deduping
// alone would miss this case: a pattern installed and demoted entirely
// between two publishes leaves the desired set equal to the last
// published one, yet its placers were steering per announcements the
// published sync never covered — the removal must not wait for the
// periodic refresh to learn they have stopped.
func (tc *TORController) removalsNeedSync() bool {
	for _, st := range tc.removing {
		if st.needSeq > tc.syncSeq {
			return true
		}
	}
	return false
}

// publish sends the full desired offload set (confirmed patterns only) to
// every local controller. Locals ack with the sequence number; removals
// gate on those acks.
func (tc *TORController) publish() { tc.publishSet(tc.offloadedList()) }

func (tc *TORController) publishSet(desired []rules.Pattern) {
	tc.syncSeq++
	tc.lastPublished = desired
	tc.sincePublish = 0
	sync := &openflow.RuleSync{Seq: tc.syncSeq, Patterns: desired,
		Term: tc.term, Origin: uint32(tc.replicaID)}
	for _, tr := range tc.toLocals {
		tr.Send(sync)
	}
}

func patternsEqual(a, b []rules.Pattern) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- install path ----

func (tc *TORController) retryBase() time.Duration      { return tc.mgr.Cfg.RetryBase }
func (tc *TORController) installTimeout() time.Duration { return tc.mgr.Cfg.InstallTimeout }
func (tc *TORController) demoteGrace() time.Duration    { return tc.mgr.Cfg.DemoteGrace }

// backoff returns the delay before attempt n+1: exponential in the number
// of attempts already made, capped, with seeded jitter so many
// controllers retrying after one fault don't synchronise.
func (tc *TORController) backoff(attempts int) time.Duration {
	base := tc.retryBase()
	d := base << uint(attempts-1)
	if max := 32 * base; d > max {
		d = max
	}
	jitter := time.Duration(tc.mgr.Cluster.Eng.Rand().Int63n(int64(base)))
	return d + jitter
}

// startInstall begins the confirm-then-announce install sequence for a
// pattern the DE selected.
func (tc *TORController) startInstall(p rules.Pattern) {
	action, queue := tc.policyFor(p)
	if action != rules.Allow {
		// Denied traffic gains nothing from hardware offload; the
		// vswitch (or ToR default rule) already drops it.
		return
	}
	if st, ok := tc.removing[p]; ok {
		// Re-offloaded while a demotion was still draining: supersede
		// the removal. If its FlowDelete is already on the wire the
		// FIFO channel guarantees the fresh FlowAdd lands after it.
		if st.timer != nil {
			st.timer.Cancel()
		}
		delete(tc.removing, p)
	}
	st := &installState{queue: queue}
	tc.installing[p] = st
	tc.sendInstall(p, st)
}

// sendInstall (re)issues the FlowMod + barrier for one attempt.
func (tc *TORController) sendInstall(p rules.Pattern, st *installState) {
	st.attempts++
	st.failed = false
	delete(tc.pendingInstall, st.flowXID)
	delete(tc.pendingBarrier, st.barXID)
	if st.timer != nil {
		st.timer.Cancel()
	}
	// The QoS queue rides in the cookie (controller bookkeeping field).
	mod := &openflow.FlowMod{Command: openflow.FlowAdd, Pattern: p, Priority: hwPriority,
		Cookie: uint64(st.queue), Term: tc.term, Origin: uint32(tc.replicaID)}
	st.flowXID = tc.toSwitch.Send(mod)
	tc.pendingInstall[st.flowXID] = p
	if tc.rec != nil {
		tc.rec.EmitPattern(telemetry.KindFlowModSend, p.Tenant, p, "flow-add",
			float64(st.flowXID), float64(st.attempts))
	}
	st.barXID = tc.toSwitch.Send(&openflow.BarrierRequest{})
	tc.pendingBarrier[st.barXID] = func() { tc.installConfirmed(p, st) }
	st.timer = tc.mgr.Cluster.Eng.After(tc.installTimeout(), func() {
		// Barrier reply lost or very late: retry (the agent's upsert is
		// idempotent, so a duplicate FlowAdd is harmless).
		if tc.installing[p] == st && !tc.crashed {
			tc.installRetry(p, st)
		}
	})
}

// installConfirmed runs when the install's barrier comes back: either the
// hardware accepted the rule (announce the express lane) or an ErrorMsg
// preceded the barrier (retry or degrade).
func (tc *TORController) installConfirmed(p rules.Pattern, st *installState) {
	if tc.installing[p] != st {
		return // superseded
	}
	if st.failed {
		tc.installRetry(p, st)
		return
	}
	if st.timer != nil {
		st.timer.Cancel()
	}
	delete(tc.pendingInstall, st.flowXID)
	delete(tc.installing, p)
	tc.offloaded[p] = true
	tc.Installs++
	if tc.rec != nil {
		tc.rec.EmitPattern(telemetry.KindBarrierConfirm, p.Tenant, p, "",
			float64(st.barXID), float64(st.attempts))
	}
	// Hardware state acknowledged — now, and only now, redirect placers.
	tc.announce(openflow.OffloadAction{Pattern: p, Offload: true})
	// NIC→TCAM promotion completes here: the SmartNIC rule is held until
	// the TCAM install is barrier-confirmed so the flow graduates without
	// a software spell in between (and can never blackhole — a NIC miss
	// after the removal lands on the vswitch, a hit before it reaches the
	// now-installed TCAM ACL either way).
	if s, ok := tc.nicDesired[p]; ok {
		tc.nicRemove(p, s, "nic->tcam", 0)
		tc.sendNICActions(s, []openflow.OffloadAction{{Pattern: p, Offload: false, Tier: openflow.TierNIC}})
		tc.nicDamper.ForceState(p, false, tc.mgr.Cluster.Eng.Now())
	}
}

// announce queues one action and flushes the batch at the end of the
// current event window (CallSoon runs after every already-scheduled event
// at this instant, so all barriers confirmed on one RTT coalesce).
func (tc *TORController) announce(a openflow.OffloadAction) {
	tc.pendingAnnounce = append(tc.pendingAnnounce, a)
	if tc.announceQueued {
		return
	}
	tc.announceQueued = true
	tc.mgr.Cluster.Eng.CallSoon(func() {
		tc.announceQueued = false
		acts := tc.pendingAnnounce
		tc.pendingAnnounce = nil
		if tc.crashed || tc.paused || !tc.isLeader || len(acts) == 0 {
			return
		}
		sort.Slice(acts, func(i, j int) bool {
			return acts[i].Pattern.Compare(acts[j].Pattern) < 0
		})
		dec := &openflow.OffloadDecision{Actions: acts,
			Term: tc.term, Origin: uint32(tc.replicaID)}
		for _, tr := range tc.toLocals {
			tr.Send(dec)
		}
	})
}

// installRetry backs off and re-sends, or gives up after the attempt
// budget: the flow simply stays on the software path (no blackhole, rate
// caps still enforced by the VIF limiter) and the DE may try again in a
// later interval.
func (tc *TORController) installRetry(p rules.Pattern, st *installState) {
	delete(tc.pendingInstall, st.flowXID)
	delete(tc.pendingBarrier, st.barXID)
	if st.timer != nil {
		st.timer.Cancel()
	}
	if st.attempts >= tc.mgr.Cfg.MaxInstallAttempts {
		delete(tc.installing, p)
		tc.GiveUps++
		if tc.rec != nil {
			tc.rec.EmitPattern(telemetry.KindInstallGiveUp, p.Tenant, p, "attempt-budget",
				float64(st.attempts), 0)
		}
		return
	}
	tc.Retries++
	if tc.rec != nil {
		cause := "timeout"
		if st.failed {
			cause = "rejected"
		}
		tc.rec.EmitPattern(telemetry.KindInstallRetry, p.Tenant, p, cause,
			float64(st.attempts), 0)
	}
	st.timer = tc.mgr.Cluster.Eng.After(tc.backoff(st.attempts), func() {
		if tc.installing[p] == st && !tc.crashed {
			tc.sendInstall(p, st)
		}
	})
}

// abortInstall cancels an unconfirmed install (decision changed before
// the barrier returned). Nothing was announced, so no placer redirects
// exist; the best-effort delete below cleans hardware, and reconciliation
// sweeps the rule as an orphan if the delete is lost.
func (tc *TORController) abortInstall(p rules.Pattern) {
	st := tc.installing[p]
	if st == nil {
		return
	}
	if st.timer != nil {
		st.timer.Cancel()
	}
	delete(tc.pendingInstall, st.flowXID)
	delete(tc.pendingBarrier, st.barXID)
	delete(tc.installing, p)
	tc.toSwitch.Send(&openflow.FlowMod{Command: openflow.FlowDelete, Pattern: p,
		Term: tc.term, Origin: uint32(tc.replicaID)})
}

// ---- remove path ----

// beginRemove demotes a confirmed pattern: it leaves the unified set's
// hardware side immediately (budgets and decisions see the slot as free,
// placers are told to fall back to software) but the ACL itself is
// removed only once every local acks a RuleSync excluding the pattern and
// the in-flight grace passes — §4.1.2 orders pull-backs the same way:
// software first, then hardware.
func (tc *TORController) beginRemove(p rules.Pattern) {
	delete(tc.offloaded, p)
	delete(tc.prevHW, p)
	if _, ok := tc.removing[p]; ok {
		return
	}
	tc.Demotes++
	eng := tc.mgr.Cluster.Eng
	st := &removeState{
		// The caller publishes a RuleSync (excluding p) in this same
		// event; it will carry syncSeq+1.
		needSeq: tc.syncSeq + 1,
		readyAt: eng.Now() + tc.demoteGrace(),
	}
	tc.removing[p] = st
	eng.After(tc.demoteGrace(), tc.tryRemovals)
}

// beginOrphanRemove schedules removal of a hardware rule nobody owns.
// Orphans are excluded from every RuleSync by construction, so gating on
// the current sequence plus grace guarantees placers (which only steer
// per announced state) are off the rule before it goes.
func (tc *TORController) beginOrphanRemove(p rules.Pattern) {
	if _, ok := tc.removing[p]; ok {
		return
	}
	eng := tc.mgr.Cluster.Eng
	st := &removeState{
		needSeq: tc.syncSeq,
		readyAt: eng.Now() + tc.demoteGrace(),
		orphan:  true,
	}
	tc.removing[p] = st
	tc.Orphans++
	if tc.rec != nil {
		tc.rec.EmitPattern(telemetry.KindOrphanSweep, p.Tenant, p, "", 0, 0)
	}
	eng.After(tc.demoteGrace(), tc.tryRemovals)
}

// minAckedSeq is the lowest RuleSync sequence any local has confirmed.
func (tc *TORController) minAckedSeq() uint32 {
	min := ^uint32(0)
	for _, id := range tc.localIDs {
		if a := tc.ackedSeq[id]; a < min {
			min = a
		}
	}
	if len(tc.localIDs) == 0 {
		return ^uint32(0)
	}
	return min
}

// tryRemovals issues FlowDeletes for every gated removal whose conditions
// are now met. Called on ack receipt and on grace expiry.
func (tc *TORController) tryRemovals() {
	if tc.crashed || len(tc.removing) == 0 {
		return
	}
	ps := make([]rules.Pattern, 0, len(tc.removing))
	for p := range tc.removing {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
	min := tc.minAckedSeq()
	now := tc.mgr.Cluster.Eng.Now()
	for _, p := range ps {
		st := tc.removing[p]
		if st.deleteSent || now < st.readyAt || min < st.needSeq {
			continue
		}
		tc.sendDelete(p, st)
	}
}

// sendDelete issues the barrier-confirmed ACL removal; a lost
// confirmation re-arms the removal after a timeout.
func (tc *TORController) sendDelete(p rules.Pattern, st *removeState) {
	st.deleteSent = true
	tc.toSwitch.Send(&openflow.FlowMod{Command: openflow.FlowDelete, Pattern: p,
		Term: tc.term, Origin: uint32(tc.replicaID)})
	bx := tc.toSwitch.Send(&openflow.BarrierRequest{})
	tc.pendingBarrier[bx] = func() {
		if tc.removing[p] == st {
			if st.timer != nil {
				st.timer.Cancel()
			}
			delete(tc.removing, p)
		}
	}
	st.timer = tc.mgr.Cluster.Eng.After(tc.installTimeout(), func() {
		if tc.removing[p] == st && st.deleteSent && !tc.crashed {
			st.deleteSent = false
			delete(tc.pendingBarrier, bx)
			tc.tryRemovals()
		}
	})
}

// ---- reconciliation ----

// reconcile compares the agent's reported hardware table against the
// controller's desired state and repairs divergence in both directions:
//
//   - a desired pattern missing from hardware is immediately degraded to
//     the software path (placers redirected — express-lane packets would
//     otherwise hit the default-deny TCAM) and re-installed through the
//     normal confirm-then-announce sequence;
//   - a reported rule nobody owns (crash remnant, lost delete) is swept
//     through the gated removal path.
//
// The snapshot is one control delay old; a pattern confirmed after the
// snapshot was taken is in `installing` or was just announced, and both
// sets are excluded from the orphan sweep, so a healthy FIFO channel
// never yields a false repair. Under injected delay faults reordering can
// produce a false positive — the cost is a spell on the software path,
// never a blackhole.
func (tc *TORController) reconcile(rep *openflow.TableReply) {
	reported := make(map[rules.Pattern]bool, len(rep.Rules))
	for _, r := range rep.Rules {
		if int(r.Priority) == hwPriority {
			reported[r.Pattern] = true
		}
	}

	var lost []rules.Pattern
	for p := range tc.offloaded {
		if !reported[p] {
			lost = append(lost, p)
		}
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i].Compare(lost[j]) < 0 })
	for _, p := range lost {
		delete(tc.offloaded, p)
		delete(tc.prevHW, p)
		tc.Repairs++
		if tc.rec != nil {
			tc.rec.EmitPattern(telemetry.KindRepair, p.Tenant, p, "missing-from-hw", 0, 0)
		}
		tc.announce(openflow.OffloadAction{Pattern: p, Offload: false})
		tc.startInstall(p)
	}
	if len(lost) > 0 {
		tc.publish()
	}

	var orphans []rules.Pattern
	for p := range reported {
		if !tc.offloaded[p] && tc.installing[p] == nil {
			if _, rem := tc.removing[p]; !rem {
				orphans = append(orphans, p)
			}
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].Compare(orphans[j]) < 0 })
	for _, p := range orphans {
		tc.beginOrphanRemove(p)
	}
}

// ---- policy ----

// policyFor evaluates the tenant policy covering the pattern against
// every rule-bearing VM the pattern's flows could touch: the pinned
// endpoints, plus — when an endpoint is wildcarded — every tenant VM with
// security rules, since any of them could be the far end. The offloaded
// rule is Allow only if all of them allow the representative flow; this
// keeps the hardware rule compliant with configured policy (§4.3: "The
// offloaded flow rules must comply with configured policy") and closes
// the bypass a blanket hardware Allow would open for VF traffic, which
// never revisits the destination vswitch's ACLs.
func (tc *TORController) policyFor(p rules.Pattern) (rules.Action, int) {
	k := representativeKey(p)
	queue := 0
	srcPinned, dstPinned := p.SrcPrefix == 32, p.DstPrefix == 32

	check := func(vm *host.VM) rules.Action {
		if vm == nil || len(vm.Rules.Security) == 0 {
			return rules.Allow
		}
		if q := vm.Rules.QueueFor(k); q > queue {
			queue = q
		}
		return vm.Rules.Evaluate(k)
	}

	if srcPinned {
		if vm, ok := tc.mgr.Cluster.FindVM(p.Tenant, p.Src); ok {
			if check(vm) != rules.Allow {
				return rules.Deny, 0
			}
		}
	}
	if dstPinned {
		if vm, ok := tc.mgr.Cluster.FindVM(p.Tenant, p.Dst); ok {
			if check(vm) != rules.Allow {
				return rules.Deny, 0
			}
		}
	}
	if !srcPinned || !dstPinned {
		// A wildcarded endpoint: any tenant VM with rules could be
		// covered; all of them must allow the representative flow.
		for _, srv := range tc.mgr.Cluster.Servers {
			for _, vm := range srv.VMs {
				if vm.Key.Tenant != p.Tenant || len(vm.Rules.Security) == 0 {
					continue
				}
				if check(vm) != rules.Allow {
					return rules.Deny, 0
				}
			}
		}
	}
	return rules.Allow, queue
}

func representativeKey(p rules.Pattern) packet.FlowKey {
	return packet.FlowKey{
		Src: p.Src, Dst: p.Dst,
		SrcPort: p.SrcPort, DstPort: p.DstPort,
		Proto: p.Proto, Tenant: p.Tenant,
	}
}

// hwRates builds the per-VM hardware-path observations for local FPS.
func (tc *TORController) hwRates() []openflow.VMRate {
	keys := make([]vswitch.VMKey, 0, len(tc.installedHW))
	for k := range tc.installedHW {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Tenant != keys[j].Tenant {
			return keys[i].Tenant < keys[j].Tenant
		}
		return keys[i].IP < keys[j].IP
	})
	out := make([]openflow.VMRate, 0, len(keys))
	for _, k := range keys {
		inst := tc.installedHW[k]
		eg := tc.tor.VFRate(k.Tenant, k.IP, tor.Egress)
		in := tc.tor.VFRate(k.Tenant, k.IP, tor.Ingress)
		out = append(out, openflow.VMRate{
			Tenant: k.Tenant, VMIP: k.IP,
			EgressBps: eg, IngressBps: in,
			EgressMaxed:  inst.EgressHardBps > 0 && eg >= inst.EgressHardBps*0.95,
			IngressMaxed: inst.IngressHardBps > 0 && in >= inst.IngressHardBps*0.95,
		})
	}
	return out
}

// demoteVM pulls back every offloaded rule touching a VM — the pre-
// migration step of §4.1.2 ("any offloaded flows must be returned back to
// the VM's hypervisor before the migration can occur").
func (tc *TORController) demoteVM(tenant packet.TenantID, vmIP packet.IP) {
	if tc.crashed || tc.paused || !tc.isLeader {
		return
	}
	touches := func(p rules.Pattern) bool {
		if p.Tenant != tenant {
			return false
		}
		return (p.SrcPrefix == 32 && p.Src == vmIP) || (p.DstPrefix == 32 && p.Dst == vmIP)
	}
	var actions []openflow.OffloadAction
	for p := range tc.offloaded {
		if touches(p) {
			actions = append(actions, openflow.OffloadAction{Pattern: p, Offload: false})
		}
	}
	var aborts []rules.Pattern
	for p := range tc.installing {
		if touches(p) {
			aborts = append(aborts, p)
		}
	}
	// NIC placements touching the VM are pulled back too: the rule lives
	// on the source host's SmartNIC and would be stranded by the move.
	var nicPulls []rules.Pattern
	for p := range tc.nicDesired {
		if touches(p) {
			nicPulls = append(nicPulls, p)
		}
	}
	if len(actions) == 0 && len(aborts) == 0 && len(nicPulls) == 0 {
		return
	}
	sort.Slice(actions, func(i, j int) bool {
		return actions[i].Pattern.Compare(actions[j].Pattern) < 0
	})
	sort.Slice(aborts, func(i, j int) bool { return aborts[i].Compare(aborts[j]) < 0 })
	now := tc.mgr.Cluster.Eng.Now()
	for _, a := range actions {
		tc.beginRemove(a.Pattern)
		// Migration pull-back is a correctness path: the damper must not
		// veto it (ForceState bypasses the penalty machinery) but its view
		// of the pattern's state has to follow, so the re-offload at the
		// destination is recognized as a real transition.
		tc.damper.ForceState(a.Pattern, false, now)
	}
	for _, p := range aborts {
		tc.abortInstall(p)
		tc.damper.ForceState(p, false, now)
	}
	sort.Slice(nicPulls, func(i, j int) bool { return nicPulls[i].Compare(nicPulls[j]) < 0 })
	for _, p := range nicPulls {
		s := tc.nicDesired[p]
		tc.nicRemove(p, s, "nic->software", 0)
		tc.sendNICActions(s, []openflow.OffloadAction{{Pattern: p, Offload: false, Tier: openflow.TierNIC}})
		tc.nicDamper.ForceState(p, false, now)
	}
	if len(actions) > 0 {
		dec := &openflow.OffloadDecision{Actions: actions,
			Term: tc.term, Origin: uint32(tc.replicaID)}
		for _, tr := range tc.toLocals {
			tr.Send(dec)
		}
	}
	tc.publish()
}

// LatestReports returns the most recent demand report from each server —
// exposed for experiment instrumentation.
func (tc *TORController) LatestReports() []openflow.DemandReport {
	ids := make([]uint32, 0, len(tc.reports))
	for id := range tc.reports {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]openflow.DemandReport, 0, len(ids))
	for _, id := range ids {
		out = append(out, tc.reports[id])
	}
	return out
}

// Term returns the replica's current leadership epoch (0 with HA off).
func (tc *TORController) Term() uint32 { return tc.term }

// IsLeader reports whether this replica is currently acting as leader
// (believes it holds the leadership and is neither crashed nor paused).
func (tc *TORController) IsLeader() bool { return tc.isLeader && !tc.crashed && !tc.paused }

// ReplicaID returns this replica's index within its rack's group.
func (tc *TORController) ReplicaID() int { return tc.replicaID }

// offloadedList returns current confirmed hardware patterns, sorted.
func (tc *TORController) offloadedList() []rules.Pattern {
	out := make([]rules.Pattern, 0, len(tc.offloaded))
	for p := range tc.offloaded {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
