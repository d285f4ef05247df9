// Package rules implements the network-virtualization rule model FasTrak
// manages as a unified set (§4): tenant security ACLs, QoS rules, tunnel
// mappings and rate limits, plus the three table structures that hold them
// on the data path — an ordered priority table (vswitch slow path), an O(1)
// exact-match hash table (vswitch/flow-placer fast path), and a
// capacity-limited TCAM model (ToR hardware VRF).
package rules

import (
	"bytes"
	"strconv"

	"repro/internal/packet"
)

// Pattern is a wildcardable match over the 6-tuple flow key. IPs match by
// prefix; ports and protocol match exactly or any; tenant may be wildcarded
// only for provider-level rules.
type Pattern struct {
	Tenant    packet.TenantID
	AnyTenant bool

	Src       packet.IP
	SrcPrefix int // 0 = any
	Dst       packet.IP
	DstPrefix int // 0 = any

	SrcPort uint16 // 0 = any
	DstPort uint16 // 0 = any
	Proto   byte   // 0 = any
}

// ExactPattern returns the fully specified pattern matching exactly one
// flow — the "rule that most specifically defines the policy for the flow
// being offloaded" (§4.3) is built from this.
func ExactPattern(k packet.FlowKey) Pattern {
	return Pattern{
		Tenant: k.Tenant,
		Src:    k.Src, SrcPrefix: 32,
		Dst: k.Dst, DstPrefix: 32,
		SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: k.Proto,
	}
}

// AggregatePattern returns the pattern covering a per-VM/application flow
// aggregate (§4.3.1): one endpoint pinned to <VM IP, port, tenant>, the
// other wildcarded.
func AggregatePattern(a packet.AggregateKey) Pattern {
	p := Pattern{Tenant: a.Tenant}
	switch a.Dir {
	case packet.Egress:
		p.Src, p.SrcPrefix, p.SrcPort = a.VMIP, 32, a.Port
	default:
		p.Dst, p.DstPrefix, p.DstPort = a.VMIP, 32, a.Port
	}
	return p
}

// TenantPattern matches all traffic of one tenant.
func TenantPattern(t packet.TenantID) Pattern { return Pattern{Tenant: t} }

// Match reports whether the key falls within the pattern.
func (p Pattern) Match(k packet.FlowKey) bool {
	if !p.AnyTenant && p.Tenant != k.Tenant {
		return false
	}
	if p.SrcPrefix > 0 && k.Src.Mask(p.SrcPrefix) != p.Src.Mask(p.SrcPrefix) {
		return false
	}
	if p.DstPrefix > 0 && k.Dst.Mask(p.DstPrefix) != p.Dst.Mask(p.DstPrefix) {
		return false
	}
	if p.SrcPort != 0 && p.SrcPort != k.SrcPort {
		return false
	}
	if p.DstPort != 0 && p.DstPort != k.DstPort {
		return false
	}
	if p.Proto != 0 && p.Proto != k.Proto {
		return false
	}
	return true
}

// Specificity scores how narrowly the pattern matches; higher is more
// specific. Used to order equal-priority rules and to pick the most
// specific covering rule when constructing hardware rules for offload.
func (p Pattern) Specificity() int {
	s := p.SrcPrefix + p.DstPrefix
	if p.SrcPort != 0 {
		s += 16
	}
	if p.DstPort != 0 {
		s += 16
	}
	if p.Proto != 0 {
		s += 8
	}
	if !p.AnyTenant {
		s += 32
	}
	return s
}

// IsExact reports whether the pattern matches exactly one flow key.
func (p Pattern) IsExact() bool {
	return !p.AnyTenant && p.SrcPrefix == 32 && p.DstPrefix == 32 &&
		p.SrcPort != 0 && p.DstPort != 0 && p.Proto != 0
}

// String renders the pattern compactly, e.g.
// "t3 10.0.0.1/32:* > *:11211 tcp".
func (p Pattern) String() string {
	var buf [maxPatternText]byte
	return string(p.appendText(buf[:0]))
}

// Compare orders patterns canonically: it returns -1, 0 or +1 exactly as
// strings.Compare(p.String(), q.String()) would, without allocating. Every
// deterministic ordering of patterns (decision ranking tie-breaks, demote
// lists, report entries, resync sweeps) sorts by it.
func (p Pattern) Compare(q Pattern) int {
	var pb, qb [maxPatternText]byte
	return bytes.Compare(p.appendText(pb[:0]), q.appendText(qb[:0]))
}

// maxPatternText bounds the rendered pattern: two 20-digit ints for the
// prefixes plus the fixed-width fields, so the stack buffers in String and
// Compare never grow.
const maxPatternText = 128

// appendText appends the String form of the pattern to b.
func (p Pattern) appendText(b []byte) []byte {
	if p.AnyTenant {
		b = append(b, "t* "...)
	} else {
		b = append(b, 't')
		b = strconv.AppendUint(b, uint64(p.Tenant), 10)
		b = append(b, ' ')
	}
	b = appendEndpoint(b, p.Src, p.SrcPrefix, p.SrcPort)
	b = append(b, " > "...)
	b = appendEndpoint(b, p.Dst, p.DstPrefix, p.DstPort)
	switch p.Proto {
	case 0:
		b = append(b, " *"...)
	case packet.ProtoTCP:
		b = append(b, " tcp"...)
	case packet.ProtoUDP:
		b = append(b, " udp"...)
	default:
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(p.Proto), 10)
	}
	return b
}

// appendEndpoint renders one side of a pattern: "*" or "ip/prefix", then
// ":*" or ":port".
func appendEndpoint(b []byte, ip packet.IP, prefix int, port uint16) []byte {
	if prefix == 0 {
		b = append(b, '*')
	} else {
		b = ip.AppendTo(b)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(prefix), 10)
	}
	if port == 0 {
		return append(b, ":*"...)
	}
	b = append(b, ':')
	return strconv.AppendUint(b, uint64(port), 10)
}
