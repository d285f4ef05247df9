package vswitch

import (
	"testing"

	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
)

// benchSwitch builds a switch whose vport carries n security rules from a
// few templates, none of which examine ports — so one megaflow covers the
// whole port space and a warm cache serves any new flow key in one probe.
func benchSwitch(n int) (*Switch, *rules.VMRules) {
	eng := sim.NewEngine(1)
	sw, _ := newSwitch(eng, model.VSwitchConfig{}, &capture{})
	r := &rules.VMRules{Tenant: 3, VMIP: vmA.IP}
	for i := 0; i < n; i++ {
		var p rules.Pattern
		p.Tenant = 3
		switch i % 3 {
		case 0:
			p.Dst = packet.IP(0x0a000000 | uint32(i)<<8)
			p.DstPrefix = 24
		case 1:
			p.Src = packet.IP(0x0a000000 | uint32(i))
			p.SrcPrefix = 32
		case 2:
			p.Proto = packet.ProtoUDP
		}
		r.Security = append(r.Security, rules.SecurityRule{Pattern: p, Action: rules.Action(i % 2), Priority: i % 8})
	}
	// Terminal allow so the benchmarked keys get a verdict.
	r.Security = append(r.Security, rules.SecurityRule{
		Pattern: rules.Pattern{Tenant: 3, Proto: packet.ProtoTCP}, Action: rules.Allow, Priority: 9,
	})
	attach(sw, vmA, r)
	return sw, r
}

// BenchmarkSlowPathClassify1k is the cost of classifying a previously
// unseen flow at a 1000-rule table through a warm megaflow cache (the new
// flow differs from cached traffic only in fields the rules never
// consult). The seed linear scan's cost is benchmarked in internal/rules.
func BenchmarkSlowPathClassify1k(b *testing.B) {
	sw, _ := benchSwitch(1000)
	dst := packet.MustParseIP("10.0.9.9")
	key := func(i int) packet.FlowKey {
		return packet.FlowKey{
			Tenant: 3, Src: vmA.IP, Dst: dst,
			SrcPort: uint16(40000 + i%1000),
			DstPort: uint16(1024 + i%40000),
			Proto:   packet.ProtoTCP,
		}
	}

	b.Run("megaflow", func(b *testing.B) {
		// Warm: one upcall-equivalent classification installs the
		// wildcard entry covering the whole port space.
		v, mask := sw.evaluate(key(0))
		sw.mega.install(key(0), mask, v, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := sw.mega.lookup(key(i), 0); !ok {
				b.Fatal("megaflow miss on warmed region")
			}
		}
	})
}

// BenchmarkUpcallEvaluate1k measures the full slow-path verdict
// computation (both endpoints, security + QoS, mask union) that runs per
// megaflow miss — now tuple-space backed.
func BenchmarkUpcallEvaluate1k(b *testing.B) {
	sw, _ := benchSwitch(1000)
	dst := packet.MustParseIP("10.0.9.9")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := packet.FlowKey{
			Tenant: 3, Src: vmA.IP, Dst: dst,
			SrcPort: 40000, DstPort: uint16(1024 + i%40000), Proto: packet.ProtoTCP,
		}
		sw.evaluate(k)
	}
}
