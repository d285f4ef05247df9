// Package packet implements the wire formats the FasTrak data plane speaks:
// Ethernet, 802.1Q VLAN, IPv4, TCP, UDP, GRE (with the key extension that
// carries the tenant ID, §4.1.3) and VXLAN. It also defines the FlowKey —
// the 6-tuple (source/destination IP, L4 ports, protocol, tenant ID) that
// identifies a flow throughout the system (§4.3.1) — with a fast
// non-cryptographic hash for O(1) exact-match tables.
//
// Packets carry structured headers for efficient simulation, and marshal
// to / unmarshal from real wire bytes; tunneling encap/decap in
// internal/tunnel round-trips through the byte format.
package packet

import (
	"fmt"
	"net/netip"
	"strconv"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the address in the usual colon-separated hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is ff:ff:ff:ff:ff:ff.
func (m MAC) IsBroadcast() bool {
	return m == MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
}

// IP is an IPv4 address stored as a big-endian uint32, cheap to hash and
// compare. Tenant address spaces overlap (requirement C1), so an IP alone
// never identifies a VM — it must be paired with a tenant ID.
type IP uint32

// MakeIP assembles an IP from its dotted-quad octets.
func MakeIP(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseIP parses dotted-quad notation, e.g. "10.0.0.1".
func ParseIP(s string) (IP, error) {
	a, err := netip.ParseAddr(s)
	if err != nil {
		return 0, fmt.Errorf("packet: parse ip %q: %w", s, err)
	}
	if !a.Is4() {
		return 0, fmt.Errorf("packet: ip %q is not IPv4", s)
	}
	b := a.As4()
	return MakeIP(b[0], b[1], b[2], b[3]), nil
}

// MustParseIP is ParseIP that panics on error, for tests and literals.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// String formats the address in dotted-quad notation.
func (ip IP) String() string {
	var buf [15]byte
	return string(ip.AppendTo(buf[:0]))
}

// AppendTo appends the dotted-quad form of the address to b.
func (ip IP) AppendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(byte(ip>>24)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(ip>>16)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(ip>>8)), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, uint64(byte(ip)), 10)
}

// Mask applies a prefix mask of the given length (0–32).
func (ip IP) Mask(prefixLen int) IP {
	if prefixLen <= 0 {
		return 0
	}
	if prefixLen >= 32 {
		return ip
	}
	return ip & IP(^uint32(0)<<(32-prefixLen))
}

// TenantID identifies a tenant. It is carried in the 32-bit GRE key field
// across the fabric (§4.1.3: "The GRE key field is 32 bits in size and can
// accommodate 2^32 tenants").
type TenantID uint32

// VLANID is a 12-bit 802.1Q VLAN identifier used on the server↔ToR hop to
// tell the ToR which tenant VRF a VF packet belongs to (§4.2.1).
type VLANID uint16

// MaxVLANID is the largest valid 802.1Q VLAN ID.
const MaxVLANID VLANID = 4094

// Protocol numbers used by the testbed.
const (
	ProtoTCP byte = 6
	ProtoUDP byte = 17
	ProtoGRE byte = 47
)

// EtherTypes used by the testbed.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeVLAN uint16 = 0x8100
)

// VXLANPort is the IANA-assigned UDP destination port for VXLAN.
const VXLANPort uint16 = 4789
