package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/decision"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sketch"
)

// runSketchScale is the `-sketch -flows N` (N >= sketchScaleFloor) mode:
// instead of simulating a rack, it measures the accounting subsystem
// itself at a flow count no exact per-flow table should be asked to
// carry. A heavy-tailed synthetic stream of N distinct flows is fed
// through per-shard count-min + space-saving sketches on the wall clock,
// the shards merge into one top-k demand report, and the decision engine
// re-ranks it over churning cycles.
func runSketchScale(flows int, seed int64) {
	const (
		shards   = 4
		topK     = 10_000
		services = 10_000
		cycles   = 8
	)
	obsPerShard := flows // 4 shards -> 4 observations per flow on average

	cfg := sketch.Config{TopK: topK, Width: 1 << 15, Depth: 4, Seed: uint64(seed), Aggregate: true}
	acct := sketch.New(cfg, shards)

	fmt.Printf("sketch scale mode: %d flows, %d services, %d shards, top-k=%d, cm=%dx%d\n",
		flows, services, shards, topK, 1<<15, 4)

	// Phase 1: streaming accrual. Each shard owns a private rng and a
	// zipf-distributed flow popularity, so a small set of services
	// dominates — the regime top-k accounting exists for. Shards are
	// single-writer; feeding them concurrently is the deployment shape.
	start := time.Now()
	done := make(chan struct{}, shards)
	for s := 0; s < shards; s++ {
		sh := acct.Shard(s)
		rng := rand.New(rand.NewSource(seed + int64(s)))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(flows-1))
		go func() {
			for i := 0; i < obsPerShard; i++ {
				rank := zipf.Uint64()
				k := packet.FlowKey{
					Tenant:  packet.TenantID(1 + rank%16),
					Src:     packet.IP(0x0a000000 + uint32(rank)),
					Dst:     packet.IP(0x0afe0000 + uint32(rank%services)),
					SrcPort: uint16(32768 + rank%16384),
					DstPort: uint16(8000 + rank%services%64),
					Proto:   packet.ProtoTCP,
				}
				sh.Observe(k, 1, 1500)
			}
			done <- struct{}{}
		}()
	}
	for s := 0; s < shards; s++ {
		<-done
	}
	feed := time.Since(start)
	totalObs := obsPerShard * shards
	fmt.Printf("accrual: %d observations in %v (%.1f M updates/s across %d shards)\n",
		totalObs, feed.Round(time.Millisecond), float64(totalObs)/feed.Seconds()/1e6, shards)

	// Memory: the whole accountant vs what an exact per-flow table would
	// cost (map entry + key + two counters, ~150 B per live flow). The
	// sketch is O(k + width*depth), independent of the flow count.
	exactBytes := flows * 150
	fmt.Printf("memory: sketch=%d KiB vs exact-table est. %d KiB (%.1fx smaller, flow-count independent)\n",
		acct.MemoryBytes()/1024, exactBytes/1024, float64(exactBytes)/float64(acct.MemoryBytes()))

	// Phase 2: merge and report (the quiesced control-plane read).
	start = time.Now()
	report := acct.Report()
	fmt.Printf("merge+report: %d heavy-hitter patterns (floor=%d) in %v\n",
		len(report), acct.Floor(), time.Since(start).Round(time.Microsecond))

	// Phase 3: decision latency over churning cycles. Candidates come
	// straight from the report; each cycle perturbs 1% of scores, the
	// steady-state churn a running rack shows between control intervals.
	cands := make([]decision.Candidate, 0, len(report))
	for _, pc := range report {
		cands = append(cands, decision.Candidate{
			Pattern:      pc.Pattern,
			MedianPPS:    float64(pc.Pkts),
			MedianBPS:    float64(pc.Bytes) * 8,
			ActiveEpochs: 1,
		})
	}
	dcfg := decision.Config{Budget: 1000, MinScore: 1, HysteresisRatio: 1.2}
	offloaded := make(map[rules.Pattern]bool)
	rng := rand.New(rand.NewSource(seed ^ 0x5ce7c4))

	var total time.Duration
	for c := 0; c < cycles; c++ {
		for i := 0; i < len(cands)/100+1; i++ {
			j := rng.Intn(len(cands))
			cands[j].MedianPPS *= 0.8 + 0.4*rng.Float64()
		}
		start = time.Now()
		d := decision.Decide(dcfg, cands, offloaded)
		total += time.Since(start)
		// Feed the decision back so hysteresis has incumbents to guard.
		for k := range offloaded {
			delete(offloaded, k)
		}
		for _, p := range d.Offload {
			offloaded[p] = true
		}
	}
	fmt.Printf("decision over %d candidates, %d cycles at 1%% churn: %v/cycle\n",
		len(cands), cycles, (total / cycles).Round(time.Microsecond))

	// The ranking the TOR would act on.
	top := report
	if len(top) > 5 {
		top = top[:5]
	}
	sort.SliceStable(top, func(i, j int) bool { return top[i].Pkts > top[j].Pkts })
	fmt.Println("\nhottest aggregates (merged top-k):")
	for _, pc := range top {
		fmt.Printf("  %-40s pkts=%-10d bytes=%d (err<=%d)\n", pc.Pattern, pc.Pkts, pc.Bytes, pc.Err)
	}
}
