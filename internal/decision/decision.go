// Package decision implements FasTrak's Decision Engine (§4.3.2): rank
// flows/aggregates by the score S = n × m_pps × c (frequency × median pps
// × tenant priority), select the most-frequently-used high-pps set that
// fits the ToR's hardware rule budget, demote offloaded flows that no
// longer qualify, and split each VM's purchased rate limit across its two
// interfaces with FPS.
package decision

import (
	"sort"

	"repro/internal/fps"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
)

// Candidate is one flow/aggregate the DE considers.
type Candidate struct {
	Pattern rules.Pattern
	// ActiveEpochs is n, MedianPPS is m_pps (§4.3.2).
	ActiveEpochs uint32
	MedianPPS    float64
	MedianBPS    float64
	// Priority is c, the tenant preference multiplier (default 1).
	Priority float64
}

// Score computes S = n × m_pps × c.
func (c Candidate) Score() float64 {
	p := c.Priority
	if p <= 0 {
		p = 1
	}
	return float64(c.ActiveEpochs) * c.MedianPPS * p
}

// Config parameterizes the DE.
type Config struct {
	// Budget is the number of hardware rule entries available for
	// offloaded flows (the TOR ME's free fast-path memory reading plus
	// entries currently held by offloaded flows, §4.3.1).
	Budget int
	// MinScore filters noise: candidates scoring below it are never
	// offloaded. Zero admits everything active.
	MinScore float64
	// HysteresisRatio keeps an already-offloaded flow in hardware
	// unless a challenger beats it by this factor, avoiding rule
	// thrashing between near-equal flows. 1.0 disables hysteresis.
	HysteresisRatio float64
	// Groups lists all-or-nothing pattern sets (§4.3.2: "Certain
	// all-to-all or partition-aggregate applications may require that
	// all corresponding flows be handled in hardware, or none at all").
	// A group is offloaded only when every member fits the budget
	// together; displacing any member demotes the whole group.
	Groups [][]rules.Pattern
}

// Decision is one control interval's outcome.
type Decision struct {
	// Offload lists patterns to move (or keep) in hardware.
	Offload []rules.Pattern
	// Demote lists currently offloaded patterns to move back to
	// software.
	Demote []rules.Pattern
}

// unit is one schedulable offload decision: a lone candidate or an
// all-or-nothing group.
type unit struct {
	patterns []rules.Pattern
	score    float64
	eligible bool
}

// normalize clamps out-of-range config fields.
func (cfg Config) normalize() Config {
	if cfg.Budget < 0 {
		cfg.Budget = 0
	}
	if cfg.HysteresisRatio < 1 {
		cfg.HysteresisRatio = 1
	}
	return cfg
}

// Decide selects the hardware set. offloaded is the currently-offloaded
// pattern set.
func Decide(cfg Config, cands []Candidate, offloaded map[rules.Pattern]bool) Decision {
	cfg = cfg.normalize()
	// Deterministic ranking: score desc, canonical pattern order as
	// tie-break.
	ranked := append([]Candidate(nil), cands...)
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := effectiveScore(cfg, ranked[i], offloaded), effectiveScore(cfg, ranked[j], offloaded)
		if si != sj {
			return si > sj
		}
		return ranked[i].Pattern.Compare(ranked[j].Pattern) < 0
	})

	// No groups: every unit is a single candidate, the stable unit sort is
	// the identity on the ranked input, and a full unit never fits once
	// the budget is reached — so the fold below degenerates to a greedy
	// prefix fill. Do that directly; it is the common case.
	if len(cfg.Groups) == 0 {
		var d Decision
		selected := make(map[rules.Pattern]bool, cfg.Budget)
		for _, c := range ranked {
			if len(d.Offload) >= cfg.Budget {
				break
			}
			if !(c.Score() > cfg.MinScore && c.ActiveEpochs > 0 && c.MedianPPS > 0) {
				continue
			}
			if selected[c.Pattern] {
				continue
			}
			selected[c.Pattern] = true
			d.Offload = append(d.Offload, c.Pattern)
		}
		d.Demote = demoteList(offloaded, selected)
		return d
	}

	// Fold candidates into units: group members merge into one
	// all-or-nothing unit whose score is the sum of its members'.
	groupOf := make(map[rules.Pattern]int)
	for gi, g := range cfg.Groups {
		for _, p := range g {
			groupOf[p] = gi
		}
	}
	groupUnits := make(map[int]*unit)
	var units []*unit
	for _, c := range ranked {
		ok := c.Score() > cfg.MinScore && c.ActiveEpochs > 0 && c.MedianPPS > 0
		if gi, grouped := groupOf[c.Pattern]; grouped {
			u, exists := groupUnits[gi]
			if !exists {
				u = &unit{eligible: true}
				groupUnits[gi] = u
				units = append(units, u)
			}
			u.patterns = append(u.patterns, c.Pattern)
			u.score += effectiveScore(cfg, c, offloaded)
			// One ineligible member poisons the whole group: all
			// or nothing.
			u.eligible = u.eligible && ok
			continue
		}
		units = append(units, &unit{
			patterns: []rules.Pattern{c.Pattern},
			score:    effectiveScore(cfg, c, offloaded),
			eligible: ok,
		})
	}
	sort.SliceStable(units, func(i, j int) bool { return units[i].score > units[j].score })

	var d Decision
	selected := make(map[rules.Pattern]bool)
	for _, u := range units {
		if !u.eligible {
			continue
		}
		if len(d.Offload)+len(u.patterns) > cfg.Budget {
			continue // a whole group must fit together
		}
		dup := false
		for _, p := range u.patterns {
			if selected[p] {
				dup = true
			}
		}
		if dup {
			continue
		}
		for _, p := range u.patterns {
			selected[p] = true
			d.Offload = append(d.Offload, p)
		}
	}
	d.Demote = demoteList(offloaded, selected)
	return d
}

// demoteList is the demotion half shared by both selection paths:
// anything offloaded but not selected is demoted ("already offloaded
// flows that have lower scores are demoted back").
func demoteList(offloaded, selected map[rules.Pattern]bool) []rules.Pattern {
	var demote []rules.Pattern
	for p := range offloaded {
		if !selected[p] {
			demote = append(demote, p)
		}
	}
	sort.Slice(demote, func(i, j int) bool { return demote[i].Compare(demote[j]) < 0 })
	return demote
}

// effectiveScore applies hysteresis: incumbents get their score scaled up
// so challengers must beat them by the configured ratio.
func effectiveScore(cfg Config, c Candidate, offloaded map[rules.Pattern]bool) float64 {
	s := c.Score()
	if offloaded[c.Pattern] {
		return s * cfg.HysteresisRatio
	}
	return s
}

// CandidatesFromReports merges demand reports (from local MEs) and
// hardware statistics (from the TOR ME) into the DE's candidate list.
// Flows active in hardware keep their measured rates even though the
// vswitch no longer sees them ("Flows active both in vswitch and hardware
// are scored in this fashion").
func CandidatesFromReports(reports []openflow.DemandReport, hwPPS map[rules.Pattern]float64, priorityOf func(packet.TenantID) float64) []Candidate {
	merged := make(map[rules.Pattern]Candidate)
	for _, rep := range reports {
		for _, e := range rep.Entries {
			c := merged[e.Pattern]
			c.Pattern = e.Pattern
			if e.ActiveEpochs > c.ActiveEpochs {
				c.ActiveEpochs = e.ActiveEpochs
			}
			if e.MedianPPS > c.MedianPPS {
				c.MedianPPS = e.MedianPPS
				c.MedianBPS = e.MedianBPS
			}
			merged[e.Pattern] = c
		}
	}
	for pat, pps := range hwPPS {
		c, ok := merged[pat]
		if !ok {
			c.Pattern = pat
		}
		if pps > c.MedianPPS {
			c.MedianPPS = pps
		}
		if c.ActiveEpochs == 0 {
			c.ActiveEpochs = 1
		}
		merged[pat] = c
	}
	out := make([]Candidate, 0, len(merged))
	for _, c := range merged {
		if priorityOf != nil {
			c.Priority = priorityOf(c.Pattern.Tenant)
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pattern.Compare(out[j].Pattern) < 0 })
	return out
}

// SplitLimits runs FPS for one VM direction pair, producing the installed
// limits Rs/Rh per direction (§4.3.2). splitters persist across intervals
// for smoothing; callers keep one per (VM, direction).
type Limiter struct {
	Egress  *fps.Splitter
	Ingress *fps.Splitter
}

// NewLimiter builds FPS state for a VM with the given purchased aggregate
// rates.
func NewLimiter(egressBps, ingressBps float64) *Limiter {
	return &Limiter{
		Egress:  fps.NewSplitter(egressBps),
		Ingress: fps.NewSplitter(ingressBps),
	}
}

// Adjust computes the four installed limits from per-path demand.
func (l *Limiter) Adjust(egSoft, egHard, inSoft, inHard fps.Demand) openflow.RateSplit {
	eg := l.Egress.Adjust(egSoft, egHard)
	in := l.Ingress.Adjust(inSoft, inHard)
	return openflow.RateSplit{
		EgressSoftBps:  eg.SoftwareWithOverflow,
		EgressHardBps:  eg.HardwareWithOverflow,
		IngressSoftBps: in.SoftwareWithOverflow,
		IngressHardBps: in.HardwareWithOverflow,
	}
}
