package host

import (
	"container/heap"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

// freeAt is a min-heap of CPU-slot free times for the reference model.
type freeAt []time.Duration

func (h freeAt) Len() int           { return len(h) }
func (h freeAt) Less(i, j int) bool { return h[i] < h[j] }
func (h freeAt) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *freeAt) Push(x any)        { *h = append(*h, x.(time.Duration)) }
func (h *freeAt) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestCPUStationSlotsCompleteInTimeSeqOrder serves unequal costs on a
// 3-slot station and checks every completion against an M/G/k FIFO
// reference: items start in submission order on the earliest free slot,
// and completions fire by (finish time, start order).
func TestCPUStationSlotsCompleteInTimeSeqOrder(t *testing.T) {
	const k = 3
	eng := sim.NewEngine(1)
	s := NewCPUStation(eng, k)
	costs := []time.Duration{7, 2, 5, 1, 1, 4, 9, 3, 3, 2, 6, 1, 8, 2, 5}
	type done struct {
		id int
		at time.Duration
	}
	var got []done
	for i, c := range costs {
		i := i
		s.Submit(c*time.Microsecond, func() { got = append(got, done{i, eng.Now()}) })
	}
	if s.QueueLen() != len(costs)-k || s.PeakQueue() != len(costs)-k || s.Busy() != k {
		t.Fatalf("after submit: queue=%d peak=%d busy=%d", s.QueueLen(), s.PeakQueue(), s.Busy())
	}
	eng.At(10*time.Microsecond, func() {
		// While items are queued, every slot stays busy.
		if s.Busy() != k {
			t.Errorf("busy=%d at 10µs, want %d", s.Busy(), k)
		}
	})
	eng.Run()

	free := &freeAt{0, 0, 0}
	want := make([]done, len(costs))
	for i, c := range costs {
		start := heap.Pop(free).(time.Duration)
		want[i] = done{i, start + c*time.Microsecond}
		heap.Push(free, want[i].at)
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
	if len(got) != len(want) {
		t.Fatalf("%d completions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion %d = %+v, want %+v (all: %v)", i, got[i], want[i], got)
		}
	}
	if s.QueueLen() != 0 || s.Busy() != 0 || s.PeakQueue() != len(costs)-k {
		t.Errorf("after drain: queue=%d busy=%d peak=%d", s.QueueLen(), s.Busy(), s.PeakQueue())
	}
	var total time.Duration
	for _, c := range costs {
		total += c * time.Microsecond
	}
	if s.Account.Busy() != total {
		t.Errorf("busy time %v, want %v", s.Account.Busy(), total)
	}
}

// TestCPUStationSubmitDoesNotAllocate gates the station: one Submit
// through its completion allocates nothing once the slot is bound and the
// engine's queue is warm.
func TestCPUStationSubmitDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewCPUStation(eng, 2)
	n := 0
	done := func() { n++ }
	s.Submit(time.Microsecond, done)
	eng.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Submit(time.Microsecond, done)
		eng.Run()
	})
	if allocs != 0 {
		t.Errorf("CPUStation.Submit → completion: %v allocs/op, want 0", allocs)
	}
	if n != 1002 {
		t.Errorf("completed %d items, want 1002", n)
	}
}
