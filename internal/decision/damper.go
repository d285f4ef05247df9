// Flap damping and staleness-aware smoothing for the decision engine.
//
// The DE's inputs are measured statistics carried over a lossy control
// network: reports can be dropped, delayed or reordered (internal/faults
// can do all three on purpose). Acting on every wiggle of those inputs
// makes offload/demote decisions oscillate — each flip costs a TCAM
// install plus a placer reprogramming round, and under a storm the
// thrashing itself becomes the overload. Two mechanisms bound it:
//
//   - Smoother: an EWMA over each candidate's reported score inputs that
//     is staleness-aware — when a candidate is missing from this
//     interval's reports (stats lost, ME down), its last estimate is
//     retained and decayed instead of being treated as zero demand, so
//     one lost report cannot demote a hot flow.
//
//   - FlapDamper: penalty-decay suppression in the style of BGP route-
//     flap damping (RFC 2439), layered on the score hysteresis that
//     Decide already applies. Every offload-state transition of a
//     pattern adds a penalty; the penalty decays exponentially with a
//     configured half-life; while it exceeds the suppress threshold,
//     further transitions for that pattern are vetoed until the penalty
//     decays below the reuse threshold.
package decision

import (
	"math"
	"sort"
	"time"

	"repro/internal/rules"
)

// DamperConfig parameterizes the flap damper. The zero value is
// normalized to defaults.
type DamperConfig struct {
	// Penalty added per transition (default 1000, the BGP convention).
	Penalty float64
	// SuppressThreshold starts suppression when exceeded (default 2500:
	// three quick flips suppress, two do not).
	SuppressThreshold float64
	// ReuseThreshold ends suppression when the decayed penalty falls
	// below it (default 750).
	ReuseThreshold float64
	// HalfLife is the penalty decay half-life (default 2s of virtual
	// time — a few control intervals).
	HalfLife time.Duration
	// MaxPenalty caps accumulation so suppression always ends within
	// a bounded number of half-lives (default 4×SuppressThreshold).
	MaxPenalty float64
}

// DefaultDamperConfig returns the defaults.
func DefaultDamperConfig() DamperConfig {
	return DamperConfig{
		Penalty:           1000,
		SuppressThreshold: 2500,
		ReuseThreshold:    750,
		HalfLife:          2 * time.Second,
		MaxPenalty:        10000,
	}
}

func (c DamperConfig) normalized() DamperConfig {
	d := DefaultDamperConfig()
	if c.Penalty <= 0 {
		c.Penalty = d.Penalty
	}
	if c.SuppressThreshold <= 0 {
		c.SuppressThreshold = d.SuppressThreshold
	}
	if c.ReuseThreshold <= 0 || c.ReuseThreshold >= c.SuppressThreshold {
		c.ReuseThreshold = c.SuppressThreshold * 0.3
	}
	if c.HalfLife <= 0 {
		c.HalfLife = d.HalfLife
	}
	if c.MaxPenalty < c.SuppressThreshold {
		c.MaxPenalty = 4 * c.SuppressThreshold
	}
	return c
}

// flapState is one pattern's damping record.
type flapState struct {
	penalty    float64
	lastUpdate time.Duration
	suppressed bool
	// offloaded is the last observed offload state, to detect actual
	// transitions (re-asserting the same state costs no penalty).
	offloaded bool
	known     bool
}

// FlapDamper tracks per-pattern transition penalties. Not safe for
// concurrent use; the simulation is single-threaded.
type FlapDamper struct {
	cfg   DamperConfig
	flaps map[rules.Pattern]*flapState
	// Suppressions counts transitions vetoed; Transitions counts
	// penalized state changes.
	Suppressions uint64
	Transitions  uint64
}

// NewFlapDamper builds a damper.
func NewFlapDamper(cfg DamperConfig) *FlapDamper {
	return &FlapDamper{cfg: cfg.normalized(), flaps: make(map[rules.Pattern]*flapState)}
}

// decayTo brings the state's penalty forward to now.
func (f *FlapDamper) decayTo(st *flapState, now time.Duration) {
	if now <= st.lastUpdate {
		return
	}
	dt := (now - st.lastUpdate).Seconds()
	st.penalty *= math.Pow(0.5, dt/f.cfg.HalfLife.Seconds())
	st.lastUpdate = now
	if st.suppressed && st.penalty < f.cfg.ReuseThreshold {
		st.suppressed = false
	}
}

// Allow reports whether a transition of pattern p to state offloaded may
// proceed at time now, charging the penalty if it does. A vetoed
// transition is counted in Suppressions and the pattern keeps its
// previous state. Re-asserting the current state is always allowed and
// never penalized.
func (f *FlapDamper) Allow(p rules.Pattern, offloaded bool, now time.Duration) bool {
	st, ok := f.flaps[p]
	if !ok {
		st = &flapState{lastUpdate: now}
		f.flaps[p] = st
	}
	f.decayTo(st, now)
	if st.known && st.offloaded == offloaded {
		return true // no transition
	}
	if !st.known {
		// First observation: establish state free of charge (initial
		// offload is not a flap).
		st.known = true
		st.offloaded = offloaded
		return true
	}
	if st.suppressed {
		f.Suppressions++
		return false
	}
	st.penalty += f.cfg.Penalty
	if st.penalty > f.cfg.MaxPenalty {
		st.penalty = f.cfg.MaxPenalty
	}
	f.Transitions++
	st.offloaded = offloaded
	if st.penalty >= f.cfg.SuppressThreshold {
		st.suppressed = true
	}
	return true
}

// ForceState records an externally-imposed state change (migration pull-
// back, reconciliation repair) without charging or consulting the damper:
// correctness paths must never be vetoed, but the damper's view of the
// current state has to follow them.
func (f *FlapDamper) ForceState(p rules.Pattern, offloaded bool, now time.Duration) {
	st, ok := f.flaps[p]
	if !ok {
		st = &flapState{lastUpdate: now}
		f.flaps[p] = st
	}
	f.decayTo(st, now)
	st.known = true
	st.offloaded = offloaded
}

// Suppressed reports whether p is currently suppressed at now.
func (f *FlapDamper) Suppressed(p rules.Pattern, now time.Duration) bool {
	st, ok := f.flaps[p]
	if !ok {
		return false
	}
	f.decayTo(st, now)
	return st.suppressed
}

// Penalty returns p's decayed penalty at now (diagnostics).
func (f *FlapDamper) Penalty(p rules.Pattern, now time.Duration) float64 {
	st, ok := f.flaps[p]
	if !ok {
		return 0
	}
	f.decayTo(st, now)
	return st.penalty
}

// Apply filters a Decision through the damper: suppressed transitions are
// removed (the pattern keeps its current state), allowed ones are charged.
// current is the pre-decision offloaded set.
func (f *FlapDamper) Apply(d Decision, current map[rules.Pattern]bool, now time.Duration) Decision {
	var out Decision
	for _, p := range d.Offload {
		if current[p] {
			// Keeping an offloaded pattern offloaded is not a transition.
			out.Offload = append(out.Offload, p)
			continue
		}
		if f.Allow(p, true, now) {
			out.Offload = append(out.Offload, p)
		}
	}
	for _, p := range d.Demote {
		if f.Allow(p, false, now) {
			out.Demote = append(out.Demote, p)
		}
	}
	return out
}

// SmootherConfig parameterizes the staleness-aware candidate smoother.
type SmootherConfig struct {
	// Alpha is the EWMA weight of the new observation (default 0.5).
	Alpha float64
	// StaleDecay multiplies the retained estimate per interval a
	// candidate is missing from the reports (default 0.75): estimates
	// fade smoothly instead of cliff-dropping to zero on one lost
	// report.
	StaleDecay float64
	// MaxStaleIntervals drops a candidate entirely after this many
	// consecutive missing intervals (default 4) — genuinely dead flows
	// must eventually release their TCAM slots.
	MaxStaleIntervals int
}

// DefaultSmootherConfig returns the defaults.
func DefaultSmootherConfig() SmootherConfig {
	return SmootherConfig{Alpha: 0.5, StaleDecay: 0.75, MaxStaleIntervals: 4}
}

func (c SmootherConfig) normalized() SmootherConfig {
	d := DefaultSmootherConfig()
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = d.Alpha
	}
	if c.StaleDecay <= 0 || c.StaleDecay >= 1 {
		c.StaleDecay = d.StaleDecay
	}
	if c.MaxStaleIntervals <= 0 {
		c.MaxStaleIntervals = d.MaxStaleIntervals
	}
	return c
}

// smoothState is one candidate's smoothed estimate.
type smoothState struct {
	cand  Candidate
	stale int
}

// Smoother maintains per-pattern EWMA estimates across control intervals
// and synthesizes candidates for patterns whose stats went missing.
type Smoother struct {
	cfg   SmootherConfig
	state map[rules.Pattern]*smoothState
	// Synthesized counts candidates carried through a missing interval.
	Synthesized uint64
}

// NewSmoother builds a smoother.
func NewSmoother(cfg SmootherConfig) *Smoother {
	return &Smoother{cfg: cfg.normalized(), state: make(map[rules.Pattern]*smoothState)}
}

// Advance ingests one interval's raw candidates and returns the smoothed
// set: present candidates are EWMA-blended with their history; absent
// ones are synthesized from the decayed estimate until MaxStaleIntervals
// pass. Output is sorted by pattern for determinism.
//
// offloaded marks patterns currently placed in hardware. Their demand is
// observed through the TOR's own TCAM counters — a local read that cannot
// be lost on the stats path — so when an offloaded pattern is absent its
// absence is authoritative and the estimate is dropped immediately
// instead of synthesized. Without this, a demoted-and-gone flow (e.g. a
// migrated VM's aggregates) would be kept alive by its own ghost and
// re-offloaded. Staleness protection is for software-path candidates,
// whose reports cross the lossy control network.
func (s *Smoother) Advance(cands []Candidate, offloaded map[rules.Pattern]bool) []Candidate {
	seen := make(map[rules.Pattern]bool, len(cands))
	for _, c := range cands {
		seen[c.Pattern] = true
		st, ok := s.state[c.Pattern]
		if !ok {
			s.state[c.Pattern] = &smoothState{cand: c}
			continue
		}
		a := s.cfg.Alpha
		st.cand.MedianPPS = a*c.MedianPPS + (1-a)*st.cand.MedianPPS
		st.cand.MedianBPS = a*c.MedianBPS + (1-a)*st.cand.MedianBPS
		// Frequency and priority are structural, not noisy: take them
		// as reported.
		st.cand.ActiveEpochs = c.ActiveEpochs
		st.cand.Priority = c.Priority
		st.stale = 0
	}
	// Age the missing.
	var drop []rules.Pattern
	for p, st := range s.state {
		if seen[p] {
			continue
		}
		if offloaded[p] {
			// Hardware counters are read locally; silence is real.
			drop = append(drop, p)
			continue
		}
		st.stale++
		if st.stale > s.cfg.MaxStaleIntervals {
			drop = append(drop, p)
			continue
		}
		st.cand.MedianPPS *= s.cfg.StaleDecay
		st.cand.MedianBPS *= s.cfg.StaleDecay
		s.Synthesized++
	}
	for _, p := range drop {
		delete(s.state, p)
	}
	// Emit deterministically.
	pats := make([]rules.Pattern, 0, len(s.state))
	for p := range s.state {
		pats = append(pats, p)
	}
	sort.Slice(pats, func(i, j int) bool { return pats[i].Compare(pats[j]) < 0 })
	out := make([]Candidate, 0, len(pats))
	for _, p := range pats {
		out = append(out, s.state[p].cand)
	}
	return out
}
