package decision

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
	"repro/internal/rules"
)

// benchCandidates builds a deterministic candidate pool: n aggregates
// across 8 tenants with log-uniform rates, plus the incumbent set a
// steady-state controller would carry.
func benchCandidates(n int) ([]Candidate, map[rules.Pattern]bool) {
	rng := rand.New(rand.NewSource(7))
	cands := make([]Candidate, n)
	offloaded := make(map[rules.Pattern]bool)
	for i := range cands {
		cands[i] = Candidate{
			Pattern:      patT(packet.TenantID(1+i%8), uint16(1000+i)),
			ActiveEpochs: uint32(1 + rng.Intn(8)),
			MedianPPS:    float64(uint64(1) << uint(rng.Intn(16))),
			Priority:     1,
		}
		if i%4 == 0 {
			offloaded[cands[i].Pattern] = true
		}
	}
	return cands, offloaded
}

// BenchmarkDecide is the 2-level engine on a controller-scale interval:
// 256 candidates against a 64-entry TCAM with incumbents and hysteresis.
func BenchmarkDecide(b *testing.B) {
	cands, offloaded := benchCandidates(256)
	cfg := Config{Budget: 64, MinScore: 10, HysteresisRatio: 1.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Decide(cfg, cands, offloaded)
	}
}

// churn1pct drifts ~1% of candidate scores per cycle — the steady-state
// shape at scale: a million flows collapse into ~10^4 ranked aggregate
// patterns of which only a handful move rank between demand cycles.
func churn1pct(rng *rand.Rand, cands []Candidate) {
	for i := 0; i < len(cands)/100; i++ {
		j := rng.Intn(len(cands))
		cands[j].MedianPPS *= 0.5 + rng.Float64()
	}
}

// applyDecision plays a Decision back onto the offloaded set, like the
// rule manager does between cycles.
func applyDecision(offloaded map[rules.Pattern]bool, d Decision) {
	for _, p := range d.Demote {
		delete(offloaded, p)
	}
	for _, p := range d.Offload {
		offloaded[p] = true
	}
}

// BenchmarkDecideExact10k is Decide at the ROADMAP scale point (10^6
// flows / 10^4 patterns): every cycle re-ranks all 10^4 patterns from
// scratch while ~1% of scores drift between cycles.
func BenchmarkDecideExact10k(b *testing.B) {
	cands, offloaded := benchCandidates(10000)
	cfg := Config{Budget: 1000, MinScore: 10, HysteresisRatio: 1.2}
	rng := rand.New(rand.NewSource(11))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Decide(cfg, cands, offloaded)
		b.StopTimer()
		applyDecision(offloaded, d)
		churn1pct(rng, cands)
		b.StartTimer()
	}
}

// BenchmarkDecideTiered is the N-level ladder on the same interval: the
// TCAM decision plus a per-host NIC-tier Decide across 8 SmartNICs, with
// per-tenant quotas. The delta over BenchmarkDecide is the cost of the
// extra tier.
func BenchmarkDecideTiered(b *testing.B) {
	cands, offloaded := benchCandidates(256)
	cfg := TieredConfig{
		TCAM:               Config{Budget: 64, MinScore: 10, HysteresisRatio: 1.2},
		NICMinScore:        2,
		NICHysteresisRatio: 1.2,
		NICTenantQuota:     8,
	}
	const hosts = 8
	nics := make(map[int]NICState, hosts)
	for s := 0; s < hosts; s++ {
		nics[s] = NICState{Budget: 16, Placed: map[rules.Pattern]bool{}}
	}
	// Seed NIC incumbents the way a running ladder would: low-ranked
	// candidates already placed on their sourcing host.
	hostOf := func(p rules.Pattern) (int, bool) { return int(p.SrcPort) % hosts, true }
	for i, c := range cands {
		if i%3 == 0 && !offloaded[c.Pattern] {
			h, _ := hostOf(c.Pattern)
			nics[h].Placed[c.Pattern] = true
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DecideTiered(cfg, cands, offloaded, nics, hostOf)
	}
}
