// Package host assembles one physical server of the testbed: a pool of
// logical CPUs for host network processing, per-VIF serialized qdisc
// stations, guest VMs with their own vCPUs, and the bonded VIF+VF
// interface whose flow placer FasTrak programs (§4.1.1). CPU contention
// and the resulting queueing latency — the effects Section 3 measures —
// emerge from work submitted to these stations.
package host

import (
	"time"

	"repro/internal/fifo"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// CPUStation is an M/G/k service station: k logical CPUs serving a FIFO
// queue of work items. Busy time is accounted, which is how the testbed
// reports "number of logical CPUs used" (Fig. 4).
type CPUStation struct {
	eng   *sim.Engine
	slots int
	queue fifo.Queue[work]
	// serving[i] is the item CPU slot i serves and finish[i] its
	// completion callback, bound the first time the slot is used so that
	// serving an item allocates nothing. idle lists the bound slots that
	// are free.
	serving []work
	finish  []func()
	idle    []int

	// Account accumulates CPU busy time.
	Account metrics.CPUAccount
	// peakQueue records the deepest backlog seen (diagnostics).
	peakQueue int
}

type work struct {
	cost time.Duration
	done func()
}

// NewCPUStation returns a station with the given number of logical CPUs.
func NewCPUStation(eng *sim.Engine, slots int) *CPUStation {
	if slots < 1 {
		slots = 1
	}
	return &CPUStation{eng: eng, slots: slots}
}

// Submit enqueues a work item costing cost CPU time; done runs when the
// item completes service. Zero-cost work still traverses the queue so
// ordering is preserved.
func (s *CPUStation) Submit(cost time.Duration, done func()) {
	if cost < 0 {
		cost = 0
	}
	s.queue.Push(work{cost: cost, done: done})
	if s.queue.Len() > s.peakQueue {
		s.peakQueue = s.queue.Len()
	}
	s.pump()
}

func (s *CPUStation) pump() {
	for s.Busy() < s.slots && s.queue.Len() > 0 {
		w := s.queue.Pop()
		i := s.idleSlot()
		s.serving[i] = w
		s.eng.PostAfter(w.cost, s.finish[i])
	}
}

// idleSlot claims a free CPU slot, binding a new one if every bound slot
// is busy.
func (s *CPUStation) idleSlot() int {
	if n := len(s.idle); n > 0 {
		i := s.idle[n-1]
		s.idle = s.idle[:n-1]
		return i
	}
	i := len(s.finish)
	s.serving = append(s.serving, work{})
	s.finish = append(s.finish, func() { s.complete(i) })
	return i
}

// complete ends the service of slot i's item.
func (s *CPUStation) complete(i int) {
	w := s.serving[i]
	s.serving[i] = work{}
	s.idle = append(s.idle, i)
	s.Account.Charge(w.cost)
	if w.done != nil {
		w.done()
	}
	s.pump()
}

// Exec adapts the station to the Exec hooks of vswitch/nic.
func (s *CPUStation) Exec() func(cost time.Duration, fn func()) {
	return s.Submit
}

// QueueLen returns the current backlog (excluding in-service items).
func (s *CPUStation) QueueLen() int { return s.queue.Len() }

// PeakQueue returns the deepest backlog observed.
func (s *CPUStation) PeakQueue() int { return s.peakQueue }

// Slots returns the number of logical CPUs.
func (s *CPUStation) Slots() int { return s.slots }

// Busy returns the number of in-service items.
func (s *CPUStation) Busy() int { return len(s.finish) - len(s.idle) }
