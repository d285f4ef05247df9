// Package fifo provides Queue, a growable first-in first-out ring buffer
// for the simulator's packet and work queues. Popping clears the slot, so
// a dequeued item is not kept reachable, and the ring reuses its storage:
// capacity tracks the peak number of live items, not the number pushed.
package fifo

// Queue is a FIFO of T. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// Cap returns the number of items the queue holds before it grows.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Peek returns the head item; the queue must be non-empty.
func (q *Queue[T]) Peek() T { return q.buf[q.head] }

// Pop removes and returns the head item; the queue must be non-empty.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles a full ring, unwrapping it so the head lands at index 0.
func (q *Queue[T]) grow() {
	buf := make([]T, max(2*len(q.buf), 8))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
