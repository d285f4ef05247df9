package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/host"
	"repro/internal/measure"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/rules"
)

// The failover experiment exercises the control-plane high-availability
// machinery: the chaos workload runs under a replicated TOR decision
// engine (three hot standbys, epoch-fenced leader election, lease-based
// fail-safe rules) while internal/faults crashes, pauses and partitions
// controller replicas and severs their election channels — and four
// invariants are checked:
//
//  1. At most one leader acts per term. Leadership terms are partitioned
//     across replicas and the switch agent fences stale terms, so the
//     agent's term-conflict counter must stay zero no matter how the
//     election plane is mangled (a severed election channel manufactures
//     dueling leaders on purpose; fencing must contain them).
//  2. No blackholes: the chaos experiment's conservation equation closes
//     exactly, and every rule-divergence drop counter stays zero, through
//     every leadership gap. Express-lane state either stays owned by a
//     live leader or expires back to the software path — it never strands
//     traffic.
//  3. Tenant rate caps hold through every failover.
//  4. Reconvergence: after the last fault clears, exactly one acting
//     leader remains, the hardware tables equal its desired offload set,
//     every hardware rule holds a live lease, and the desired set equals
//     what a never-faulted run of the same workload converges to.
type FailoverConfig struct {
	// Seed drives the cluster/engine RNG; FaultSeed the injector's.
	Seed      int64
	FaultSeed int64
	// Horizon is the active traffic phase (default 8s); all faults
	// clear comfortably before it ends so reconvergence is observable.
	Horizon time.Duration
	// Drain runs fault-free with senders stopped so in-flight packets
	// settle before conservation accounting (default 2s).
	Drain time.Duration
	// Replicas is the TOR controller group size (default 3).
	Replicas int
	// LeaseTTL is the fail-safe rule lease (default 10 control
	// intervals = 5s with this rig's 500ms interval).
	LeaseTTL time.Duration
	// Plan overrides DefaultFailoverPlan.
	Plan *faults.Plan
	// SnapshotEvery paces the event-log snapshots (default 250ms).
	SnapshotEvery time.Duration
}

// FailoverResult carries the measured invariants and the deterministic
// event log.
type FailoverResult struct {
	// Conservation accounting (after drain) — see ChaosResult.
	Sent             uint64
	Delivered        uint64
	LinkQueueDrops   uint64
	LinkDownDrops    uint64
	LinkLossDrops    uint64
	ShapeDrops       uint64
	UpcallQueueDrops uint64
	ClampDrops       uint64
	RateDrops        uint64
	BlackholeDrops   uint64
	Unaccounted      int64

	// Rate-cap invariant.
	CapLimitBps   float64
	PeakCappedBps float64
	CapViolations int

	// Leadership invariants. TermConflicts is the split-brain detector
	// and must be zero; FencedInstalls counts stale-term messages the
	// switch agent rejected (evidence fencing actually bit when the plan
	// manufactures dueling leaders). Leaders is the number of acting
	// leaders at the reconvergence check and must be exactly one.
	Elections      uint64
	StepDowns      uint64
	FencedInstalls uint64
	TermConflicts  uint64
	FencedOut      uint64 // stale-term errors received by deposed leaders
	FencedSyncs    uint64 // stale-term syncs/decisions dropped by locals
	Leaders        int
	LeaderReplica  int    // replica id of the final leader (-1 if none)
	FinalTerm      uint32 // its leadership term

	// Lease machinery activity and conservation: at the reconvergence
	// check every controller-owned hardware rule must hold a live lease.
	LeaseRefreshes    uint64
	TCAMLeaseExpiries uint64
	PlacerExpiries    uint64
	DegradedDemotes   uint64
	LeaseConserved    bool

	// End-state reconciliation (checked just before Horizon, after every
	// fault has cleared): the leader's desired set equals the hardware
	// tables, and equals the desired set of a never-faulted twin run.
	HardwareMatchesDesired bool
	MatchesBaseline        bool
	Desired                []string
	Hardware               []string
	BaselineDesired        []string

	// Recovery-machinery activity.
	Crashes uint64
	Pauses  uint64

	// FaultLog is the injector's chronological record; Log is the full
	// deterministic event log (faults + periodic state snapshots) used
	// by the determinism harness.
	FaultLog []string
	Log      []string
}

// DefaultFailoverPlan is the seeded scenario of the acceptance criteria.
// With the rig's 500ms control interval and three replicas it walks the
// failover machinery through its distinct regimes, every window clearing
// by 13h/16:
//
//   - both of replica 0's election channels severed while it leads and
//     long enough to cover one of its reconcile points — the isolated
//     leader keeps acting while replica 1 claims the next term, so
//     dueling leaders demonstrably occur and the deposed one (severed
//     from heartbeat and gossip alike) can only learn of its deposition
//     through the switch agent's stale-term fence;
//   - an asymmetric partition, a symmetric partition and a pause of
//     standby replica 2 (an isolated or frozen standby must not disturb
//     the acting leader, and must rejoin as a follower);
//   - a leader crash after the election plane heals (replica 1 must
//     claim, and replica 0 must preempt back after restarting).
func DefaultFailoverPlan(h time.Duration) faults.Plan {
	return faults.Plan{Events: []faults.Event{
		{At: 11 * h / 40, Kind: faults.ChannelDown, Target: "elect0.0-1", Duration: 3 * h / 8},
		{At: 11 * h / 40, Kind: faults.ChannelDown, Target: "elect0.0-2", Duration: 3 * h / 8},
		{At: 3 * h / 8, Kind: faults.PartitionAsym, Target: "torctl0.2", Duration: h / 16},
		{At: 9 * h / 16, Kind: faults.PartitionNode, Target: "torctl0.2", Duration: h / 16},
		{At: 5 * h / 8, Kind: faults.ControllerPause, Target: "torctl0.2", Duration: h / 16},
		{At: 11 * h / 16, Kind: faults.ControllerCrash, Target: "torctl0", Duration: h / 8},
	}}
}

// RunFailover builds the replicated-controller rig, applies the fault
// plan, runs the workload and measures the invariants — then runs a
// never-faulted twin (same seed, same workload, no injector) and checks
// the faulted run reconverged to the twin's desired offload set.
func RunFailover(cfg FailoverConfig) (FailoverResult, error) {
	res, err := runFailover(cfg, true)
	if err != nil {
		return res, err
	}
	base, err := runFailover(cfg, false)
	if err != nil {
		return res, err
	}
	res.BaselineDesired = base.Desired
	res.MatchesBaseline = equalStrings(res.Desired, base.Desired)
	return res, nil
}

func runFailover(cfg FailoverConfig, withFaults bool) (FailoverResult, error) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 8 * time.Second
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 2 * time.Second
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 5 * time.Second
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 250 * time.Millisecond
	}
	plan := DefaultFailoverPlan(cfg.Horizon)
	if cfg.Plan != nil {
		plan = *cfg.Plan
	}

	c := cluster.New(cluster.Config{
		Servers:      3,
		VSwitchCfg:   model.VSwitchConfig{Tunneling: true},
		TCAMCapacity: 32,
		Seed:         cfg.Seed,
	})
	eng := c.Eng

	// The chaos experiment's workload: an uncapped echo service under
	// tenant 3 and a rate-capped one-way stream under tenant 4.
	svcIP := packet.MustParseIP("10.3.0.10")
	cl1IP := packet.MustParseIP("10.3.0.1")
	cl2IP := packet.MustParseIP("10.3.0.2")
	svc, err := c.AddVM(0, 3, svcIP, 4, nil)
	if err != nil {
		return FailoverResult{}, err
	}
	cl1, err := c.AddVM(1, 3, cl1IP, 4, nil)
	if err != nil {
		return FailoverResult{}, err
	}
	cl2, err := c.AddVM(2, 3, cl2IP, 4, nil)
	if err != nil {
		return FailoverResult{}, err
	}
	svc.BindApp(11211, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
		vm.Send(p.IP.Src, 11211, p.TCP.SrcPort, 400, host.SendOptions{Seq: p.Meta.Seq}, nil)
	}))

	capSrcIP := packet.MustParseIP("10.4.0.1")
	capDstIP := packet.MustParseIP("10.4.0.10")
	capSrc, err := c.AddVM(1, 4, capSrcIP, 4, nil)
	if err != nil {
		return FailoverResult{}, err
	}
	capDst, err := c.AddVM(0, 4, capDstIP, 4, nil)
	if err != nil {
		return FailoverResult{}, err
	}

	mcfg := core.DefaultConfig()
	mcfg.Measure = measure.Config{
		SampleGap:         50 * time.Millisecond,
		Epoch:             250 * time.Millisecond,
		EpochsPerInterval: 2,
		HistoryIntervals:  4,
		Aggregate:         true,
	}
	mcfg.MinScore = 100
	mcfg.HA = core.HAConfig{Replicas: cfg.Replicas, LeaseTTL: cfg.LeaseTTL}
	mgr := core.Attach(c, mcfg)

	const capLimitBps = 10e6
	mgr.SetVMLimit(4, capSrcIP, capLimitBps, 1e9)
	mgr.SetVMLimit(4, capDstIP, 1e9, 1e9)

	var inj *faults.Injector
	if withFaults {
		inj = faults.NewInjector(eng, cfg.FaultSeed)
		c.RegisterFaults(inj)
		mgr.RegisterFaults(inj)
		if err := inj.Apply(plan); err != nil {
			return FailoverResult{}, err
		}
	}

	drive := func(vm *host.VM, dst packet.IP, srcPort, dstPort uint16, rate float64, size int) {
		period := time.Duration(float64(time.Second) / rate)
		offset := time.Duration(eng.Rand().Int63n(int64(period)))
		eng.After(offset, func() {
			tk := eng.Every(period, func() {
				vm.Send(dst, srcPort, dstPort, size, host.SendOptions{}, nil)
			})
			eng.At(cfg.Horizon, func() { tk.Stop() })
		})
	}
	drive(cl1, svcIP, 40001, 11211, 2500, 200)
	drive(cl2, svcIP, 40002, 11211, 1500, 200)
	drive(capSrc, capDstIP, 41000, 9000, 2000, 1000)

	mgr.Start()

	var log []string
	logf := func(format string, args ...interface{}) {
		log = append(log, fmt.Sprintf("%12s "+format, append([]interface{}{eng.Now()}, args...)...))
	}

	// Rate-cap sampler: token-bucket shaped like the chaos experiment's
	// (queues downstream of the enforcement point may briefly drain
	// above the cap after a recovery, which is not an enforcement
	// failure).
	res := FailoverResult{CapLimitBps: capLimitBps, LeaderReplica: -1}
	const window = 100 * time.Millisecond
	const burstAllowance = 512 << 10 // bytes
	var lastCapRx uint64
	eng.Every(window, func() {
		_, _, _, rxb := capDst.Counters()
		bps := float64(rxb-lastCapRx) * 8 / window.Seconds()
		lastCapRx = rxb
		if bps > res.PeakCappedBps {
			res.PeakCappedBps = bps
		}
		budget := capLimitBps/8*eng.Now().Seconds() + burstAllowance
		if float64(rxb) > budget {
			res.CapViolations++
			logf("CAP VIOLATION cum=%dB budget=%.0fB window=%.1fMbps", rxb, budget, bps/1e6)
		}
	})

	// Periodic deterministic snapshots: traffic totals plus the
	// leadership picture (who leads under which term, fencing and lease
	// counters) so the determinism harness covers the election machinery.
	eng.Every(cfg.SnapshotEvery, func() {
		var tx, rx uint64
		for _, srv := range c.Servers {
			for _, key := range sortedVMKeys(srv) {
				t, r, _, _ := srv.VMs[key].Counters()
				tx += t
				rx += r
			}
		}
		leader, term := -1, uint32(0)
		if lt := mgr.LeaderOf(0); lt != nil {
			leader, term = lt.ReplicaID(), lt.Term()
		}
		var elections, stepDowns uint64
		for _, tc := range mgr.Replicas(0) {
			elections += tc.Elections
			stepDowns += tc.StepDowns
		}
		fenced, conflicts := mgr.FenceStats()
		logf("snap tx=%d rx=%d tcam=%d off=%d leader=%d term=%d elect=%d stepdown=%d fenced=%d conflict=%d leases=%d expiries=%d",
			tx, rx, c.TOR.TCAMUsed(), len(mgr.OffloadedPatterns()),
			leader, term, elections, stepDowns, fenced, conflicts,
			c.TOR.LeaseCount(), c.TOR.LeaseExpiries())
	})

	// Reconvergence check: just before the horizon — every fault has
	// cleared, traffic still flows, exactly one leader must be acting
	// and hardware must equal its desired set, every rule leased.
	eng.At(cfg.Horizon-10*time.Millisecond, func() {
		for _, tc := range mgr.Replicas(0) {
			if tc.IsLeader() {
				res.Leaders++
				res.LeaderReplica = tc.ReplicaID()
				res.FinalTerm = tc.Term()
			}
		}
		desired := mgr.OffloadedPatterns()
		var hw []rules.Pattern
		for _, ri := range c.TOR.Rules() {
			if ri.Priority == 100 {
				hw = append(hw, ri.Pattern)
			}
		}
		sort.Slice(hw, func(i, j int) bool { return hw[i].Compare(hw[j]) < 0 })
		res.Desired = patternStrings(desired)
		res.Hardware = patternStrings(hw)
		res.HardwareMatchesDesired = equalStrings(res.Desired, res.Hardware)
		res.LeaseConserved = c.TOR.LeaseCount() == len(hw)
		logf("reconcile-check leaders=%d leader=%d term=%d desired=%d hardware=%d match=%v leases=%d",
			res.Leaders, res.LeaderReplica, res.FinalTerm,
			len(desired), len(hw), res.HardwareMatchesDesired, c.TOR.LeaseCount())
	})

	eng.RunUntil(cfg.Horizon + cfg.Drain)
	mgr.Stop()

	// Conservation accounting (the chaos experiment's equation).
	for _, srv := range c.Servers {
		for _, key := range sortedVMKeys(srv) {
			t, r, _, _ := srv.VMs[key].Counters()
			res.Sent += t
			res.Delivered += r
		}
	}
	for i := range c.Servers {
		for _, l := range []interface {
			Stats() (uint64, uint64, uint64)
			FaultDrops() (uint64, uint64)
		}{c.Uplink(i), c.Downlink(i)} {
			_, _, q := l.Stats()
			d, lo := l.FaultDrops()
			res.LinkQueueDrops += q
			res.LinkDownDrops += d
			res.LinkLossDrops += lo
		}
	}
	aclDrops, rateDrops, noVRF, torUnrouted, _, _ := c.TOR.Counters()
	res.RateDrops = rateDrops
	var denied, swUnrouted, steerMiss uint64
	for _, srv := range c.Servers {
		tel := srv.VSwitch.Counters()
		denied += tel.Denied
		swUnrouted += tel.Unrouted
		res.ShapeDrops += tel.Drops.Shape
		res.UpcallQueueDrops += tel.Drops.UpcallQueue
		res.ClampDrops += tel.Drops.Clamp
		_, _, _, _, sm := srv.NIC.Counters()
		steerMiss += sm
	}
	res.BlackholeDrops = aclDrops + noVRF + torUnrouted + denied + swUnrouted + steerMiss
	res.Unaccounted = int64(res.Sent) - int64(res.Delivered) -
		int64(res.LinkQueueDrops+res.LinkDownDrops+res.LinkLossDrops) -
		int64(res.ShapeDrops+res.UpcallQueueDrops+res.ClampDrops+res.RateDrops) -
		int64(res.BlackholeDrops)

	for _, tc := range mgr.Replicas(0) {
		res.Elections += tc.Elections
		res.StepDowns += tc.StepDowns
		res.FencedOut += tc.FencedOut
		res.Pauses += tc.Pauses
		res.LeaseRefreshes += tc.LeaseRefreshes
		res.DegradedDemotes += tc.DegradedDemotes
		res.Crashes += tc.Crashes
	}
	res.FencedInstalls, res.TermConflicts = mgr.FenceStats()
	for _, lc := range mgr.Locals {
		res.FencedSyncs += lc.FencedMsgs
		res.PlacerExpiries += lc.PlacerExpiries
	}
	res.TCAMLeaseExpiries = c.TOR.LeaseExpiries()
	if withFaults {
		res.FaultLog = inj.Log()
		res.Log = append(append([]string{}, inj.Log()...), log...)
	} else {
		res.Log = log
	}
	return res, nil
}
