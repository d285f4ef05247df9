package fifo

import "testing"

func TestQueueOrderAcrossWrapAndGrowth(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	// Interleave pushes and pops so the ring wraps at every size it grows
	// through.
	for round := 1; round <= 40; round++ {
		for i := 0; i < round; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < round/2; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		if q.Peek() != want {
			t.Fatalf("peek %d, want %d", q.Peek(), want)
		}
		if got := q.Pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d items, pushed %d", want, next)
	}
}

func TestQueueCapacityTracksLiveItems(t *testing.T) {
	var q Queue[*int]
	x := new(int)
	for i := 0; i < 100000; i++ {
		q.Push(x)
		q.Push(x)
		q.Pop()
		if q.Len() > 5 {
			q.Pop()
		}
	}
	if q.Cap() > 8 {
		t.Fatalf("capacity %d after a steady state of at most 6 live items", q.Cap())
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i, v := range q.buf {
		if v != nil {
			t.Fatalf("slot %d still references a popped item", i)
		}
	}
}
