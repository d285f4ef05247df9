package rules

import (
	"errors"
	"sort"
	"strconv"
	"time"

	"repro/internal/packet"
)

// tcamLess orders TCAM entries for lookup: higher priority first,
// specificity breaking ties. Entries equal under this order keep FIFO
// (insertion) order.
func tcamLess(a, b *TCAMEntry) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.Pattern.Specificity() > b.Pattern.Specificity()
}

// FlowStats are the per-entry counters every table keeps, read by the
// measurement engines: packets (p) and bytes (b) observed (§4.3.1).
type FlowStats struct {
	Packets  uint64
	Bytes    uint64
	LastSeen time.Duration
}

// Hit records one packet against the stats.
func (s *FlowStats) Hit(bytes int, now time.Duration) {
	s.Packets++
	s.Bytes += uint64(bytes)
	s.LastSeen = now
}

// ExactEntry is a fast-path entry: an exact flow key mapped to a cached
// verdict, with hit counters.
type ExactEntry[V any] struct {
	Key   packet.FlowKey
	Value V
	Stats FlowStats
}

// ExactTable is the O(1) exact-match hash table used by the OVS kernel
// fast path and by the flow placer's data plane (§2.2, §4.1.1: "maintains
// the rules in an O(1) lookup hash table to speed up per packet
// processing"). V is the cached decision (a verdict, an output interface,
// ...).
type ExactTable[V any] struct {
	entries map[packet.FlowKey]*ExactEntry[V]
}

// NewExactTable returns an empty table.
func NewExactTable[V any]() *ExactTable[V] {
	return &ExactTable[V]{entries: make(map[packet.FlowKey]*ExactEntry[V])}
}

// Lookup returns the entry for the key, or nil on a miss (which sends the
// packet to the slow path).
func (t *ExactTable[V]) Lookup(k packet.FlowKey) *ExactEntry[V] { return t.entries[k] }

// Install adds or replaces the entry for the key, returning it.
func (t *ExactTable[V]) Install(k packet.FlowKey, v V) *ExactEntry[V] {
	e := &ExactEntry[V]{Key: k, Value: v}
	t.entries[k] = e
	return e
}

// Remove deletes the entry for the key, reporting whether it existed.
func (t *ExactTable[V]) Remove(k packet.FlowKey) bool {
	if _, ok := t.entries[k]; !ok {
		return false
	}
	delete(t.entries, k)
	return true
}

// Len returns the number of installed entries.
func (t *ExactTable[V]) Len() int { return len(t.entries) }

// Entries calls fn for every entry; the measurement engine uses this to
// poll active-flow statistics. Iteration order is unspecified.
func (t *ExactTable[V]) Entries(fn func(*ExactEntry[V])) {
	for _, e := range t.entries {
		fn(e)
	}
}

// Expire removes entries idle since before deadline, returning how many
// were evicted. OVS expires idle kernel flows the same way.
func (t *ExactTable[V]) Expire(deadline time.Duration) int {
	n := 0
	for k, e := range t.entries {
		if e.Stats.LastSeen < deadline {
			delete(t.entries, k)
			n++
		}
	}
	return n
}

// ErrTCAMFull is returned when a hardware table has no free entries — the
// fundamental constraint motivating FasTrak's flow selection (§1: "Due to
// hardware space limitations, only a limited number of rules can be
// supported in hardware").
var ErrTCAMFull = errors.New("rules: hardware table full")

// TCAMEntry is one hardware rule: a pattern with priority, verdict, QoS
// queue, and hit counters the TOR measurement engine polls.
type TCAMEntry struct {
	Pattern  Pattern
	Priority int
	Action   Action
	Queue    int
	Stats    FlowStats
}

// TCAM models the ToR's capacity-limited wildcard-matching rule memory.
// Lookup is highest-priority-first, specificity breaking ties — the
// semantics of a priority-encoded TCAM. Capacity is enforced on Insert.
//
// Internally the table keeps two coherent views: a slice in (priority,
// specificity) order maintained by binary-search insertion (Entries
// iterates it, and it is the semantic reference), and a tuple-space index
// (see TupleSpace) that serves Lookup in O(distinct masks) hash probes
// instead of a linear pattern scan.
type TCAM struct {
	capacity int
	entries  []*TCAMEntry // sorted by tcamLess, FIFO within ties
	idx      *TupleSpace[*TCAMEntry]
}

// NewTCAM returns an empty table holding at most capacity entries.
func NewTCAM(capacity int) *TCAM {
	if capacity < 0 {
		capacity = 0
	}
	return &TCAM{capacity: capacity, idx: NewTupleSpace[*TCAMEntry]()}
}

// Capacity returns the total entry budget.
func (t *TCAM) Capacity() int { return t.capacity }

// Free returns the number of entries still available; the TOR ME reports
// this to the decision engine (§4.3.1: "keeps track of the amount of fast
// path memory available in the TOR").
func (t *TCAM) Free() int { return t.capacity - len(t.entries) }

// Len returns the number of installed entries.
func (t *TCAM) Len() int { return len(t.entries) }

// Insert installs a rule, failing with ErrTCAMFull when out of space. The
// entry is spliced into (priority, specificity) position by binary search
// — after any equal-keyed entries, preserving FIFO tie order — so lookups
// never re-sort and interleaved insert/lookup sequences keep a stable
// tie-break.
func (t *TCAM) Insert(e *TCAMEntry) error {
	if len(t.entries) >= t.capacity {
		return ErrTCAMFull
	}
	// First index whose entry sorts strictly after e: equal keys are not
	// "less", so e lands after them.
	i := sort.Search(len(t.entries), func(i int) bool { return tcamLess(e, t.entries[i]) })
	t.entries = append(t.entries, nil)
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = e
	t.idx.Insert(e.Pattern, e.Priority, e)
	return nil
}

// Remove deletes entries whose pattern equals p, reporting how many were
// removed.
func (t *TCAM) Remove(p Pattern) int {
	n := 0
	out := t.entries[:0]
	for _, e := range t.entries {
		if e.Pattern == p {
			n++
			continue
		}
		out = append(out, e)
	}
	for i := len(out); i < len(t.entries); i++ {
		t.entries[i] = nil // release removed tails
	}
	t.entries = out
	if n > 0 {
		t.idx.Remove(p, func(e *TCAMEntry) bool { return e.Pattern == p })
	}
	return n
}

// Lookup returns the winning entry for the key, or nil if nothing matches.
// It is served from the tuple-space index; a first-match scan of the
// sorted slice is the semantic reference (the differential tests assert
// they agree).
func (t *TCAM) Lookup(k packet.FlowKey) *TCAMEntry {
	e, ok := t.idx.Lookup(k)
	if !ok {
		return nil
	}
	return e
}

// Entries calls fn for each installed entry.
func (t *TCAM) Entries(fn func(*TCAMEntry)) {
	for _, e := range t.entries {
		fn(e)
	}
}

// PriorityTable is the vswitch user-space (slow path) rule table. The
// seed implementation was an ordered linear scan; it now fronts the same
// semantics with a tuple-space index, so Evaluate costs O(distinct masks)
// hash probes instead of O(rules) pattern matches. The seed scan remains
// in the tests as the semantic reference.
type PriorityTable struct {
	rules []SecurityRule
	idx   *TupleSpace[Action]
}

// Add appends a rule.
func (t *PriorityTable) Add(r SecurityRule) {
	t.rules = append(t.rules, r)
	if t.idx == nil {
		t.idx = NewTupleSpace[Action]()
	}
	if r.Priority >= -1 {
		// Rules below priority -1 can never win: the linear scan's best
		// starts at (-1, spec -1), which only priority ≥ 0 beats outright
		// and priority exactly -1 beats on the specificity tie. They are
		// not indexed.
		t.idx.Insert(r.Pattern, r.Priority, r.Action)
	}
}

// Len returns the number of rules.
func (t *PriorityTable) Len() int { return len(t.rules) }

// Evaluate returns the verdict for the key: the highest-priority match
// (specificity breaks ties), or Deny when nothing matches.
func (t *PriorityTable) Evaluate(k packet.FlowKey) Action {
	if t.idx == nil {
		return Deny
	}
	if a, ok := t.idx.Lookup(k); ok {
		return a
	}
	return Deny
}

// EvaluateMask is Evaluate plus the union of field masks the search
// consulted — the wildcard under which the verdict may be cached.
func (t *PriorityTable) EvaluateMask(k packet.FlowKey) (Action, FieldMask) {
	if t.idx == nil {
		return Deny, FieldMask{}
	}
	a, ok, m := t.idx.LookupMask(k)
	if !ok {
		return Deny, m
	}
	return a, m
}

// TunnelTable maps (tenant, destination VM IP) to a tunnel endpoint —
// maintained by the vswitch for VXLAN and offloaded into ToR VRFs for GRE.
type TunnelTable struct {
	m map[tunnelKey]TunnelMapping
}

type tunnelKey struct {
	tenant packet.TenantID
	vmIP   packet.IP
}

// NewTunnelTable returns an empty table.
func NewTunnelTable() *TunnelTable {
	return &TunnelTable{m: make(map[tunnelKey]TunnelMapping)}
}

// Set installs or updates the mapping.
func (t *TunnelTable) Set(m TunnelMapping) {
	t.m[tunnelKey{m.Tenant, m.VMIP}] = m
}

// Lookup returns the mapping for a tenant's destination VM.
func (t *TunnelTable) Lookup(tenant packet.TenantID, vmIP packet.IP) (TunnelMapping, bool) {
	m, ok := t.m[tunnelKey{tenant, vmIP}]
	return m, ok
}

// Remove deletes the mapping, reporting whether it existed. Tunnel
// mappings are updated at both source and destination when a VM migrates
// (§2.1 requirement S4).
func (t *TunnelTable) Remove(tenant packet.TenantID, vmIP packet.IP) bool {
	k := tunnelKey{tenant, vmIP}
	if _, ok := t.m[k]; !ok {
		return false
	}
	delete(t.m, k)
	return true
}

// Len returns the number of mappings.
func (t *TunnelTable) Len() int { return len(t.m) }

// String summarizes table occupancy for logs.
func (t *TCAM) String() string {
	return "tcam " + strconv.Itoa(len(t.entries)) + "/" + strconv.Itoa(t.capacity)
}
