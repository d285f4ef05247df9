package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// sched is the surface the differential test drives on the engine and on
// the container/heap oracle.
type sched interface {
	now() Time
	at(Time, func()) (cancel func())
	after(time.Duration, func()) (cancel func())
	callSoon(func()) (cancel func())
	post(Time, func())
	postAfter(time.Duration, func())
	stop()
	run()
	runUntil(Time)
	nextAt() (Time, bool)
	processed() uint64
	pending() int
}

type engineSched struct{ e *Engine }

func (s engineSched) now() Time                               { return s.e.Now() }
func (s engineSched) at(t Time, fn func()) func()             { return s.e.At(t, fn).Cancel }
func (s engineSched) after(d time.Duration, fn func()) func() { return s.e.After(d, fn).Cancel }
func (s engineSched) callSoon(fn func()) func()               { return s.e.CallSoon(fn).Cancel }
func (s engineSched) post(t Time, fn func())                  { s.e.Post(t, fn) }
func (s engineSched) postAfter(d time.Duration, fn func())    { s.e.PostAfter(d, fn) }
func (s engineSched) stop()                                   { s.e.Stop() }
func (s engineSched) run()                                    { s.e.Run() }
func (s engineSched) runUntil(t Time)                         { s.e.RunUntil(t) }
func (s engineSched) nextAt() (Time, bool)                    { return s.e.NextAt() }
func (s engineSched) processed() uint64                       { return s.e.Processed() }
func (s engineSched) pending() int                            { return s.e.Pending() }

type oracleSched struct{ e *oracleEngine }

func (s oracleSched) now() Time { return s.e.now }
func (s oracleSched) at(t Time, fn func()) func() {
	ev := s.e.At(t, fn)
	return func() { ev.dead = true }
}
func (s oracleSched) after(d time.Duration, fn func()) func() {
	ev := s.e.After(d, fn)
	return func() { ev.dead = true }
}
func (s oracleSched) callSoon(fn func()) func() {
	ev := s.e.CallSoon(fn)
	return func() { ev.dead = true }
}
func (s oracleSched) post(t Time, fn func())               { s.e.At(t, fn) }
func (s oracleSched) postAfter(d time.Duration, fn func()) { s.e.After(d, fn) }
func (s oracleSched) stop()                                { s.e.stopped = true }
func (s oracleSched) run()                                 { s.e.Run() }
func (s oracleSched) runUntil(t Time)                      { s.e.RunUntil(t) }
func (s oracleSched) nextAt() (Time, bool)                 { return s.e.NextAt() }
func (s oracleSched) processed() uint64                    { return s.e.processed }
func (s oracleSched) pending() int                         { return s.e.queue.Len() }

// randomSchedule drives s through a seeded random mix of scheduling,
// cancellation, RunUntil, Run-with-Stop and NextAt operations, with
// callbacks that themselves schedule and cancel, and returns the log of
// everything observable. Offsets are drawn from a handful of microseconds
// so that timestamp ties are the rule, not the exception.
func randomSchedule(s sched, seed int64, ops int) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var cancels []func()
	nextID := 0
	budget := 4 * ops // callbacks scheduled from inside callbacks
	offset := func() time.Duration {
		if rng.Intn(4) == 0 {
			return -time.Duration(rng.Intn(3)) * time.Microsecond // clamped to now
		}
		return time.Duration(rng.Intn(6)) * time.Microsecond
	}
	var schedule func()
	callback := func(id int) func() {
		return func() {
			log = append(log, fmt.Sprintf("fire %d at %v n=%d", id, s.now(), s.processed()))
			switch r := rng.Intn(10); {
			case r < 4 && budget > 0:
				budget--
				schedule()
			case r == 4 && len(cancels) > 0:
				cancels[rng.Intn(len(cancels))]()
			case r == 5 && budget > 1:
				budget -= 2
				schedule()
				schedule()
			case r == 6 && rng.Intn(8) == 0:
				s.stop()
			}
		}
	}
	schedule = func() {
		id := nextID
		nextID++
		fn := callback(id)
		switch rng.Intn(5) {
		case 0:
			cancels = append(cancels, s.at(s.now()+offset().Abs(), fn))
		case 1:
			cancels = append(cancels, s.after(offset(), fn))
		case 2:
			cancels = append(cancels, s.callSoon(fn))
		case 3:
			s.post(s.now()+offset().Abs(), fn)
		case 4:
			s.postAfter(offset(), fn)
		}
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(20); {
		case r == 0:
			// A burst deepens the heap by a few levels.
			for j := 0; j < 64; j++ {
				schedule()
			}
		case r < 10:
			schedule()
		case r < 13 && len(cancels) > 0:
			// Cancels land both before and after their event fired.
			cancels[rng.Intn(len(cancels))]()
		case r < 16:
			s.runUntil(s.now() + time.Duration(rng.Intn(4))*time.Microsecond)
			log = append(log, fmt.Sprintf("until now=%v n=%d pending=%d", s.now(), s.processed(), s.pending()))
		case r < 19:
			at, ok := s.nextAt()
			log = append(log, fmt.Sprintf("next %v %v pending=%d", at, ok, s.pending()))
		default:
			s.run()
			log = append(log, fmt.Sprintf("run now=%v n=%d pending=%d", s.now(), s.processed(), s.pending()))
		}
	}
	s.run()
	return append(log, fmt.Sprintf("end now=%v n=%d pending=%d", s.now(), s.processed(), s.pending()))
}

// TestEngineMatchesHeapOracle checks that the 4-ary value heap fires
// exactly the sequence the container/heap queue it replaced fires, with
// the same clock and Processed count at every step.
func TestEngineMatchesHeapOracle(t *testing.T) {
	seeds := int64(100)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= seeds; seed++ {
		got := randomSchedule(engineSched{NewEngine(seed)}, seed, 1000)
		want := randomSchedule(oracleSched{&oracleEngine{}}, seed, 1000)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<missing>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d: step %d: engine %q, oracle %q", seed, i, g, want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine logged %d steps, oracle %d", seed, len(got), len(want))
		}
	}
}
