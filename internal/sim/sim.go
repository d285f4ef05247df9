// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event scheduler backed by a typed 4-ary min-heap,
// and a seedable random source. All timing in the FasTrak testbed
// emulation is driven by this engine, which makes every experiment
// reproducible bit-for-bit from its seed.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start
// of the simulation. Using time.Duration gives nanosecond resolution and
// convenient arithmetic/formatting.
type Time = time.Duration

// Event is the cancellation handle of a callback scheduled with At, After
// or CallSoon. Events with equal times fire in the order they were
// scheduled (FIFO tie-break by sequence number), which keeps simulations
// deterministic. Handles are never reused, so a Cancel that arrives after
// the event fired is harmless.
type Event struct {
	at   Time
	dead bool
}

// Time returns the virtual time at which the event fires (or fired).
func (e *Event) Time() Time { return e.at }

// Cancel prevents a pending event from firing. Canceling an event that has
// already fired or been canceled is a no-op.
func (e *Event) Cancel() { e.dead = true }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.dead }

// entry is one queued callback. ev is nil for callbacks scheduled with
// Post/PostAfter, which cannot be canceled.
type entry struct {
	at  Time
	seq uint64
	fn  func()
	ev  *Event
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a discrete-event scheduler. The zero value is not usable; call
// NewEngine. Engine is not safe for concurrent use: the simulation model is
// single-threaded by design (determinism), and any real goroutines (e.g.
// OpenFlow connections over net.Pipe) must synchronize back onto the engine
// via CallSoon.
type Engine struct {
	now Time
	seq uint64
	// queue is a 4-ary min-heap ordered by (at, seq); the key is unique,
	// so the firing order does not depend on the heap's shape.
	queue   []entry
	rng     *rand.Rand
	stopped bool
	// processed counts events executed, exposed for tests and for the
	// controller-overhead experiment.
	processed uint64
}

// NewEngine returns an engine with virtual time 0 and a deterministic
// random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn to run at the absolute virtual time at and returns a
// handle that can cancel it. Scheduling in the past panics: it always
// indicates a model bug, and silently reordering time would corrupt every
// downstream measurement.
func (e *Engine) At(at Time, fn func()) *Event {
	ev := &Event{at: at}
	e.push(at, fn, ev)
	return ev
}

// After schedules fn to run d after the current time. Negative d is treated
// as zero.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	return e.At(e.now+max(d, 0), fn)
}

// CallSoon schedules fn at the current time, after already-pending events
// at this instant.
func (e *Engine) CallSoon(fn func()) *Event { return e.At(e.now, fn) }

// Post schedules fn like At but returns no handle, so it allocates
// nothing: the way to schedule a callback that is never canceled.
func (e *Engine) Post(at Time, fn func()) { e.push(at, fn, nil) }

// PostAfter schedules fn like After but returns no handle.
func (e *Engine) PostAfter(d time.Duration, fn func()) { e.push(e.now+max(d, 0), fn, nil) }

func (e *Engine) push(at Time, fn func(), ev *Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	x := entry{at: at, seq: e.seq, fn: fn, ev: ev}
	e.seq++
	q := append(e.queue, x)
	// Sift the hole at the end up to x's place.
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
	e.queue = q
}

// pop removes and returns the earliest entry; the queue must be non-empty.
func (e *Engine) pop() entry {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	x := q[n]
	q[n] = entry{} // drop the references for the GC
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top
	}
	// Sift the hole at the root down to x's place.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&x) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = x
	return top
}

// Every schedules fn every period, starting one period from now, until the
// returned Ticker is stopped or the engine finishes.
func (e *Engine) Every(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	t := &Ticker{eng: e, period: period, fn: fn}
	t.arm()
	return t
}

// Ticker repeatedly fires a callback at a fixed virtual-time period.
type Ticker struct {
	eng     *Engine
	period  time.Duration
	fn      func()
	ev      *Event
	stopped bool
}

func (t *Ticker) arm() {
	t.ev = t.eng.After(t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.ev != nil {
		t.ev.Cancel()
	}
}

// Stop halts Run/RunUntil after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// step executes the next pending event. It reports false when the queue is
// empty.
func (e *Engine) step() bool {
	for len(e.queue) > 0 {
		x := e.pop()
		if x.ev != nil {
			if x.ev.dead {
				continue
			}
			x.ev.dead = true
		}
		e.now = x.at
		e.processed++
		x.fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// exactly deadline. Events scheduled later remain queued.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		if len(e.queue) == 0 {
			break
		}
		// Peek: heap root is the earliest event.
		if e.queue[0].at > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Pending returns the number of queued (possibly canceled) events.
func (e *Engine) Pending() int { return len(e.queue) }

// NextAt returns the virtual time of the earliest live pending event and
// whether one exists. Canceled events at the head of the queue are
// discarded on the way — a canceled timer must not make a wall-clock
// driver (internal/service) wake up for nothing. Purely observational
// with respect to the simulation: no event runs and the clock does not
// move.
func (e *Engine) NextAt() (Time, bool) {
	for len(e.queue) > 0 {
		if x := &e.queue[0]; x.ev == nil || !x.ev.dead {
			return x.at, true
		}
		e.pop()
	}
	return 0, false
}
