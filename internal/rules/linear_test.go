package rules

import "repro/internal/packet"

// The seed linear scans, kept as the semantic reference the tuple-space
// classifiers are differentially tested (differential_test.go) and
// benchmarked (bench_test.go) against.

// LookupLinear returns the winning entry by first-match scan of the
// sorted entry slice — the seed TCAM semantics.
func (t *TCAM) LookupLinear(k packet.FlowKey) *TCAMEntry {
	for _, e := range t.entries {
		if e.Pattern.Match(k) {
			return e
		}
	}
	return nil
}

// EvaluateLinear is the seed linear-scan implementation of Evaluate.
func (t *PriorityTable) EvaluateLinear(k packet.FlowKey) Action {
	best, bestSpec := -1, -1
	action := Deny
	for i := range t.rules {
		r := &t.rules[i]
		if !r.Pattern.Match(k) {
			continue
		}
		spec := r.Pattern.Specificity()
		if r.Priority > best || (r.Priority == best && spec > bestSpec) {
			best, bestSpec, action = r.Priority, spec, r.Action
		}
	}
	return action
}

// EvaluateLinear is the seed linear-scan implementation of Evaluate.
func (v *VMRules) EvaluateLinear(k packet.FlowKey) Action {
	best := -1
	bestSpec := -1
	action := Deny
	for i := range v.Security {
		r := &v.Security[i]
		if !r.Pattern.Match(k) {
			continue
		}
		spec := r.Pattern.Specificity()
		if r.Priority > best || (r.Priority == best && spec > bestSpec) {
			best, bestSpec, action = r.Priority, spec, r.Action
		}
	}
	return action
}

// QueueForLinear is the seed linear-scan implementation of QueueFor.
func (v *VMRules) QueueForLinear(k packet.FlowKey) int {
	best := -1
	q := 0
	for i := range v.QoS {
		r := &v.QoS[i]
		if r.Pattern.Match(k) && r.Priority > best {
			best, q = r.Priority, r.Queue
		}
	}
	return q
}
