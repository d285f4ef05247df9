package core

import (
	"errors"
	"sort"

	"repro/internal/openflow"
	"repro/internal/rules"
	"repro/internal/telemetry"
	"repro/internal/tor"
)

// switchAgent is the ToR switch's management endpoint: it terminates the
// TOR controller's OpenFlow-style connection and applies rule operations
// to the hardware tables. Putting a wire protocol between the controller
// and the TCAM is what makes hardware state *asynchronous* — installs can
// be rejected (ErrorMsg), messages can be lost on a faulted channel, and
// the controller only learns the outcome through barrier confirmations
// and table read-back, exactly the failure surface internal/faults
// injects.
//
// With controller replication the agent is shared by the whole replica
// group and is where epoch fencing lives: it remembers the newest
// leadership term it has witnessed and rejects rule operations from older
// terms with ErrCodeStaleTerm, so a deposed leader — however convinced it
// still owns the rack — cannot mutate hardware.
type switchAgent struct {
	tor *tor.TOR

	// highestTerm is the newest leadership term witnessed; term 0 is the
	// HA-disabled legacy protocol and is never fenced.
	highestTerm uint32
	// actedInTerm records which replica issued FlowMods under each term.
	// Terms are partitioned across replicas ((term-1) mod N == replica
	// id), so a second origin inside one term means the fencing invariant
	// broke; TermConflicts counts such cases and must stay zero.
	actedInTerm map[uint32]uint32
	// FencedInstalls counts stale-term messages rejected.
	FencedInstalls uint64
	// TermConflicts counts terms in which two distinct origins acted.
	TermConflicts uint64

	// rec is the flight-recorder scope; nil when telemetry is disabled
	// (and in legacy deployments, which never fence).
	rec *telemetry.Scoped
}

func newSwitchAgent(t *tor.TOR) *switchAgent {
	return &switchAgent{tor: t, actedInTerm: make(map[uint32]uint32)}
}

// admitTerm applies epoch fencing to one controller message. acts marks
// messages that mutate hardware (FlowMods): those additionally record the
// term→origin binding for the split-brain invariant.
func (a *switchAgent) admitTerm(term, origin uint32, acts bool, cause string, reply openflow.ReplyFunc, xid uint32) bool {
	if term < a.highestTerm {
		a.FencedInstalls++
		if a.rec != nil {
			a.rec.Record(telemetry.Event{Kind: telemetry.KindFenceReject, Cause: cause,
				V1: float64(term), V2: float64(a.highestTerm)})
		}
		reply(&openflow.ErrorMsg{Code: openflow.ErrCodeStaleTerm}, xid)
		return false
	}
	if term > a.highestTerm {
		a.highestTerm = term
	}
	if acts && term > 0 {
		if prev, ok := a.actedInTerm[term]; !ok {
			a.actedInTerm[term] = origin
		} else if prev != origin {
			a.TermConflicts++
		}
	}
	return true
}

// HandleMessage implements openflow.Handler.
//
// FlowMod semantics are upsert/delete on the shared TCAM. A FlowAdd for a
// pattern already installed with identical priority and queue is an
// idempotent no-op — deliberately so: retries and reconciliation re-assert
// desired rules without churning the entry (and without a remove+insert
// window in which an injected install rejection could strand the table
// with the rule missing).
func (a *switchAgent) HandleMessage(msg openflow.Message, xid uint32, reply openflow.ReplyFunc) {
	switch m := msg.(type) {
	case *openflow.FlowMod:
		if !a.admitTerm(m.Term, m.Origin, true, "flowmod", reply, xid) {
			return
		}
		switch m.Command {
		case openflow.FlowAdd:
			if err := a.upsert(m); err != nil {
				code := openflow.ErrCodeRejected
				if errors.Is(err, rules.ErrTCAMFull) {
					code = openflow.ErrCodeTableFull
				}
				reply(&openflow.ErrorMsg{Code: code}, xid)
			}
		case openflow.FlowDelete:
			a.tor.RemoveACL(m.Pattern)
		}
	case *openflow.BarrierRequest:
		reply(&openflow.BarrierReply{}, xid)
	case *openflow.TableRequest:
		if !a.admitTerm(m.Term, m.Origin, false, "table-request", reply, xid) {
			return
		}
		// A table read from the live leader doubles as a liveness proof
		// for every installed rule: refresh all leases, so TCAM entries
		// expire only when the leader (or the path to it) is truly gone,
		// not when an individual refresh FlowAdd was lost.
		a.tor.RefreshAllLeases()
		reply(a.tableReply(), xid)
	case openflow.EchoRequest:
		reply(openflow.EchoReply{}, xid)
	}
}

// upsert installs the FlowMod's rule, treating an identical existing
// entry as success. The QoS queue travels in the FlowMod cookie (the
// controller's bookkeeping field) so the wire format is unchanged.
func (a *switchAgent) upsert(m *openflow.FlowMod) error {
	prio, queue := int(m.Priority), int(m.Cookie)
	for _, ri := range a.tor.Rules() {
		if ri.Pattern == m.Pattern && ri.Priority == prio && ri.Queue == queue {
			// An idempotent re-assert is exactly what a lease refresh
			// looks like: extend the entry's lease without churning it.
			a.tor.RefreshLease(m.Pattern)
			return nil
		}
	}
	// Replace any stale variant (different priority/queue) of the
	// pattern before inserting, so the table never holds duplicates.
	a.tor.RemoveACL(m.Pattern)
	return a.tor.InstallACL(&rules.TCAMEntry{
		Pattern:  m.Pattern,
		Action:   rules.Allow,
		Priority: prio,
		Queue:    queue,
	})
}

// tableReply snapshots the installed rules in deterministic order (the
// TCAM iterates in match order, which is priority-lazy and therefore
// unstable across identical runs; sorting here keeps the wire bytes — and
// so the whole simulation — reproducible).
func (a *switchAgent) tableReply() *openflow.TableReply {
	ris := a.tor.Rules()
	sort.Slice(ris, func(i, j int) bool {
		if ris[i].Priority != ris[j].Priority {
			return ris[i].Priority > ris[j].Priority
		}
		return ris[i].Pattern.Compare(ris[j].Pattern) < 0
	})
	out := make([]openflow.TableRule, len(ris))
	for i, ri := range ris {
		out[i] = openflow.TableRule{
			Pattern:  ri.Pattern,
			Priority: uint16(ri.Priority),
			Queue:    uint8(ri.Queue),
		}
	}
	return &openflow.TableReply{Rules: out}
}
