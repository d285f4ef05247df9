package rules

import (
	"strconv"

	"repro/internal/packet"
)

// Action is the verdict of a security rule.
type Action byte

// Security rule actions.
const (
	Deny Action = iota
	Allow
)

func (a Action) String() string {
	if a == Allow {
		return "allow"
	}
	return "deny"
}

// Placement records where a rule is currently enforced. FasTrak manages
// hardware and hypervisor rules as a unified set and moves them back and
// forth (§1); placement is an attribute of the rule, not a copy of it.
type Placement byte

// Rule placements.
const (
	// InSoftware means the vswitch enforces the rule (default).
	InSoftware Placement = iota
	// InHardware means the rule has been offloaded to the ToR VRF.
	InHardware
)

func (p Placement) String() string {
	if p == InHardware {
		return "hw"
	}
	return "sw"
}

// SecurityRule is a tenant ACL entry (requirement C2). Amazon VPC allows up
// to 250 per VM; the testbed installs comparable counts.
type SecurityRule struct {
	Pattern  Pattern
	Action   Action
	Priority int // higher wins
}

func (r SecurityRule) String() string {
	return r.Action.String() + " " + r.Pattern.String() + " prio=" + strconv.Itoa(r.Priority)
}

// QoSRule directs matching traffic to a queue/class (§4.1.3: "Rules in the
// VRF can direct VM traffic to use these specific queues").
type QoSRule struct {
	Pattern  Pattern
	Queue    int  // ToR egress queue index
	DSCP     byte // marking applied in software
	Priority int
}

// TunnelMapping records where to tunnel traffic for a destination VM
// (requirement C1). Software (VXLAN) tunnels terminate at the destination
// *server*; hardware (GRE) tunnels terminate at the destination *ToR*
// (§4.1.3).
type TunnelMapping struct {
	Tenant packet.TenantID
	// VMIP is the tenant-assigned (overlapping) address of the remote VM.
	VMIP packet.IP
	// Remote is the provider address of the tunnel endpoint: destination
	// server IP for VXLAN, destination ToR IP for GRE.
	Remote packet.IP
	// RemoteMAC is the inner destination used when decapsulating toward
	// the VM on the final hop.
	RemoteMAC packet.MAC
}

// RateLimit is a transmit or receive cap on a VM interface, in bits per
// second (requirement I3).
type RateLimit struct {
	IngressBps float64
	EgressBps  float64
}

// VMRules is the complete rule state for one VM — everything that must
// migrate with it (requirement S4).
//
// Evaluate/QueueFor are served by lazily built tuple-space indexes. The
// exported rule slices stay the source of truth: the indexes detect
// append/replace mutations by slice identity (length plus backing-array
// head) and rebuild transparently, so existing callers that mutate
// Security/QoS directly keep exact seed semantics.
type VMRules struct {
	Tenant   packet.TenantID
	VMIP     packet.IP
	Security []SecurityRule
	QoS      []QoSRule
	// Limit is the tenant-purchased aggregate rate for the VM; FasTrak
	// splits it across the VIF and VF paths with FPS (§4.1.4).
	Limit RateLimit

	sec *secIndex
	qos *qosIndex
}

// secIndex is the lazily built security-rule classifier, tagged with the
// identity of the slice it was built from.
type secIndex struct {
	ts   *TupleSpace[Action]
	n    int
	head *SecurityRule
}

// qosIndex is the lazily built QoS classifier (priority-only tie-break,
// matching the seed scan).
type qosIndex struct {
	ts   *TupleSpace[int]
	n    int
	head *QoSRule
	// mask is the union of all QoS patterns' masks: the linear seed scan
	// consulted every pattern, so a cached queue decision must pin at
	// least the union when any rule exists.
	mask FieldMask
}

func (v *VMRules) secTS() *TupleSpace[Action] {
	var head *SecurityRule
	if len(v.Security) > 0 {
		head = &v.Security[0]
	}
	if v.sec == nil || v.sec.n != len(v.Security) || v.sec.head != head {
		ts := NewTupleSpace[Action]()
		for i := range v.Security {
			r := &v.Security[i]
			// The linear scan's sentinel is (priority -1, specificity -1):
			// priority -1 rules still win on the specificity tie, only
			// lower priorities are unreachable.
			if r.Priority >= -1 {
				ts.Insert(r.Pattern, r.Priority, r.Action)
			}
		}
		v.sec = &secIndex{ts: ts, n: len(v.Security), head: head}
	}
	return v.sec.ts
}

func (v *VMRules) qosTS() *qosIndex {
	var head *QoSRule
	if len(v.QoS) > 0 {
		head = &v.QoS[0]
	}
	if v.qos == nil || v.qos.n != len(v.QoS) || v.qos.head != head {
		ts := NewTupleSpacePriorityOnly[int]()
		var mask FieldMask
		for i := range v.QoS {
			r := &v.QoS[i]
			mask = mask.Union(r.Pattern.Mask())
			if r.Priority >= 0 {
				ts.Insert(r.Pattern, r.Priority, r.Queue)
			}
		}
		v.qos = &qosIndex{ts: ts, n: len(v.QoS), head: head, mask: mask}
	}
	return v.qos
}

// InvalidateIndex drops the lazily built rule indexes; callers that
// mutate a rule in place (same slice, same length) must call it. Append
// and wholesale replacement are detected automatically.
func (v *VMRules) InvalidateIndex() { v.sec, v.qos = nil, nil }

// Evaluate returns the action of the highest-priority matching security
// rule, breaking priority ties by specificity then order. If nothing
// matches, the default is Deny: multi-tenant ACLs are explicit-allow
// (§4.1.3: "By default, all other traffic is denied").
func (v *VMRules) Evaluate(k packet.FlowKey) Action {
	if a, ok := v.secTS().Lookup(k); ok {
		return a
	}
	return Deny
}

// EvaluateMask is Evaluate plus the union of field masks consulted — the
// megaflow wildcard for caching this verdict.
func (v *VMRules) EvaluateMask(k packet.FlowKey) (Action, FieldMask) {
	a, ok, m := v.secTS().LookupMask(k)
	if !ok {
		return Deny, m
	}
	return a, m
}

// QueueFor returns the QoS queue for the flow, or 0 (best effort) if no
// QoS rule matches.
func (v *VMRules) QueueFor(k packet.FlowKey) int {
	if q, ok := v.qosTS().ts.Lookup(k); ok {
		return q
	}
	return 0
}

// QueueForMask is QueueFor plus the fields the decision depends on. The
// mask is the conservative union over all QoS patterns: narrower would be
// unsound for the 0 (no-match) default.
func (v *VMRules) QueueForMask(k packet.FlowKey) (int, FieldMask) {
	idx := v.qosTS()
	if q, ok := idx.ts.Lookup(k); ok {
		return q, idx.mask
	}
	return 0, idx.mask
}

// SpecializeSecurity constructs the most specific rule defining the policy
// for one flow, to be placed in the ToR when the flow is offloaded (§4.3:
// "a rule that most specifically defines the policy for the flow being
// offloaded is constructed by FasTrak controllers"). The returned rule is
// exact-match and carries the evaluated verdict, so conflicting broader
// rules need not be copied to hardware.
func (v *VMRules) SpecializeSecurity(k packet.FlowKey) SecurityRule {
	return SecurityRule{
		Pattern:  ExactPattern(k),
		Action:   v.Evaluate(k),
		Priority: maxPriority(v.Security) + 1,
	}
}

func maxPriority(rs []SecurityRule) int {
	m := 0
	for i := range rs {
		if rs[i].Priority > m {
			m = rs[i].Priority
		}
	}
	return m
}
