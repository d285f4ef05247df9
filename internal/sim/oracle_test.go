package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// oracleEngine is the engine's previous queue, a container/heap binary
// heap of *Event, kept as the reference the differential test compares
// the 4-ary value heap against. Only the scheduling core is kept: Post is
// At without the handle.
type oracleEngine struct {
	now       Time
	seq       uint64
	queue     oracleHeap
	stopped   bool
	processed uint64
}

type oracleEvent struct {
	at   Time
	seq  uint64
	fn   func()
	idx  int
	dead bool
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *oracleHeap) Push(x any) {
	e := x.(*oracleEvent)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

func (e *oracleEngine) At(at Time, fn func()) *oracleEvent {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := &oracleEvent{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

func (e *oracleEngine) After(d time.Duration, fn func()) *oracleEvent {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

func (e *oracleEngine) CallSoon(fn func()) *oracleEvent { return e.At(e.now, fn) }

func (e *oracleEngine) step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*oracleEvent)
		if ev.dead {
			continue
		}
		e.now = ev.at
		ev.dead = true
		e.processed++
		ev.fn()
		return true
	}
	return false
}

func (e *oracleEngine) Run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
}

func (e *oracleEngine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		if len(e.queue) == 0 {
			break
		}
		if e.queue[0].at > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

func (e *oracleEngine) NextAt() (Time, bool) {
	for len(e.queue) > 0 {
		if !e.queue[0].dead {
			return e.queue[0].at, true
		}
		heap.Pop(&e.queue)
	}
	return 0, false
}
