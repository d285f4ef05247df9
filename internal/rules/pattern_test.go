package rules

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/packet"
)

// randOrderPattern draws patterns aimed at the places where numeric and
// lexical order disagree (tenant 2 vs 10, port 9 vs 10, prefix 8 vs 16)
// and where distinct patterns render alike (address bits under a /0
// prefix), plus wildcards and every protocol rendering.
func randOrderPattern(rng *rand.Rand) Pattern {
	var p Pattern
	switch rng.Intn(8) {
	case 0:
		p.AnyTenant = true
		p.Tenant = packet.TenantID(rng.Intn(3))
	case 1:
		p.Tenant = packet.TenantID(rng.Uint32())
	default:
		p.Tenant = packet.TenantID([]uint32{0, 1, 2, 9, 10, 11, 20, 100}[rng.Intn(8)])
	}
	prefixes := []int{0, 0, 1, 8, 9, 16, 24, 32}
	ip := func() packet.IP {
		if rng.Intn(2) == 0 {
			return packet.IP(rng.Uint32())
		}
		return packet.MakeIP(byte(rng.Intn(3)*9), byte(rng.Intn(12)), 0, byte(rng.Intn(2)*100))
	}
	port := func() uint16 {
		if rng.Intn(4) == 0 {
			return uint16(rng.Intn(65536))
		}
		return []uint16{0, 0, 1, 9, 10, 80, 100, 8080}[rng.Intn(8)]
	}
	p.Src, p.SrcPrefix, p.SrcPort = ip(), prefixes[rng.Intn(len(prefixes))], port()
	p.Dst, p.DstPrefix, p.DstPort = ip(), prefixes[rng.Intn(len(prefixes))], port()
	switch rng.Intn(5) {
	case 0:
		p.Proto = 0
	case 1:
		p.Proto = packet.ProtoTCP
	case 2:
		p.Proto = packet.ProtoUDP
	default:
		p.Proto = byte(rng.Intn(256))
	}
	return p
}

// mutateOne changes a single field of p, so the pair shares a long
// rendered prefix and the comparison is decided deep in the string.
func mutateOne(rng *rand.Rand, p Pattern) Pattern {
	q := randOrderPattern(rng)
	switch rng.Intn(9) {
	case 0:
		p.Tenant, p.AnyTenant = q.Tenant, q.AnyTenant
	case 1:
		p.Src = q.Src
	case 2:
		p.SrcPrefix = q.SrcPrefix
	case 3:
		p.SrcPort = q.SrcPort
	case 4:
		p.Dst = q.Dst
	case 5:
		p.DstPrefix = q.DstPrefix
	case 6:
		p.DstPort = q.DstPort
	case 7:
		p.Proto = q.Proto
	default:
		p.Src, p.Dst = q.Src, q.Dst
	}
	return p
}

// TestPatternCompareMatchesStringOrder pins Compare to the order every
// sort site used before it existed: strings.Compare of the rendered forms.
func TestPatternCompareMatchesStringOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const pairs = 200_000
	for i := 0; i < pairs; i++ {
		p := randOrderPattern(rng)
		q := randOrderPattern(rng)
		if i%2 == 1 {
			q = mutateOne(rng, p)
		}
		if got, want := p.Compare(q), strings.Compare(p.String(), q.String()); got != want {
			t.Fatalf("(%q).Compare(%q) = %d, want %d", p, q, got, want)
		}
		if got := p.Compare(p); got != 0 {
			t.Fatalf("(%q).Compare(itself) = %d, want 0", p, got)
		}
	}
}
