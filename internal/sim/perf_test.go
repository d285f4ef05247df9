package sim

import (
	"testing"
	"time"
)

// holdDepth is the engine's queue depth in the sim-rack benchmark
// workload (about 130 pending events in steady state).
const holdDepth = 128

// TestPostDoesNotAllocate gates handle-free scheduling: posting a
// pre-bound callback and popping it allocates nothing once the queue is
// warm.
func TestPostDoesNotAllocate(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < holdDepth; i++ {
		e.Post(time.Hour, func() {})
	}
	n := 0
	fn := func() { n++ }
	e.PostAfter(time.Microsecond, fn)
	e.RunUntil(e.Now() + time.Microsecond)
	for name, schedule := range map[string]func(){
		"Post":      func() { e.Post(e.Now()+time.Microsecond, fn) },
		"PostAfter": func() { e.PostAfter(time.Microsecond, fn) },
	} {
		allocs := testing.AllocsPerRun(1000, func() {
			schedule()
			e.RunUntil(e.Now() + time.Microsecond)
		})
		if allocs != 0 {
			t.Errorf("%s + pop: %v allocs/op, want 0", name, allocs)
		}
	}
	if n != 1+2*1001 {
		t.Errorf("fired %d callbacks, want %d", n, 1+2*1001)
	}
}

// BenchmarkEngine is the classic hold model at the sim-rack queue depth:
// every event reschedules one successor an exponential delay ahead, so
// each op is one pop and one push of a pre-bound callback.
func BenchmarkEngine(b *testing.B) {
	e := NewEngine(1)
	rng := e.Rand()
	left := b.N
	var hold func()
	hold = func() {
		if left > 0 {
			left--
			e.PostAfter(time.Duration(rng.ExpFloat64()*float64(time.Microsecond)), hold)
		}
	}
	for i := 0; i < holdDepth; i++ {
		e.PostAfter(time.Duration(rng.ExpFloat64()*float64(time.Microsecond)), hold)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
