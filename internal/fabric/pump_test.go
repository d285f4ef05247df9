package fabric

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// tagged returns a 1000-byte-on-the-wire packet (8µs at 1 Gbps) whose
// source port identifies it.
func tagged(id int) *packet.Packet {
	return packet.NewTCP(1, 1, 2, uint16(id), 20, 946)
}

// TestSetDownDropsEachPacketOnWireOnce fails a link with several packets
// propagating and one serializing: each of them is lost and counted
// exactly once, and restoring the link sends the held queue in order.
func TestSetDownDropsEachPacketOnWireOnce(t *testing.T) {
	eng := sim.NewEngine(1)
	var got []uint16
	l := NewLink(eng, 1e9, 100*time.Microsecond, nil, PortFunc(func(p *packet.Packet) {
		got = append(got, p.TCP.SrcPort)
	}))
	for i := 1; i <= 10; i++ {
		l.Send(0, tagged(i))
	}
	// At 50µs packets 1-6 are on the wire, 7 is serializing, 8-10 queued.
	eng.At(50*time.Microsecond, func() { l.SetDown(true) })
	eng.At(300*time.Microsecond, func() { l.SetDown(false) })
	eng.Run()
	down, _ := l.FaultDrops()
	if down != 7 {
		t.Errorf("down drops = %d, want 7 (six on the wire, one serializing)", down)
	}
	if want := []uint16{8, 9, 10}; len(got) != len(want) || got[0] != 8 || got[1] != 9 || got[2] != 10 {
		t.Errorf("delivered %v, want the held queue %v in order", got, want)
	}
	if l.wire.Len() != 0 || l.tx != nil || l.QueueLen() != 0 {
		t.Errorf("link not drained: wire=%d tx=%v queue=%d", l.wire.Len(), l.tx, l.QueueLen())
	}
}

// TestSetDstRedirectsEveryPacketInFlight rewires a link with several
// packets on the wire: all of them reach the new target, in order.
func TestSetDstRedirectsEveryPacketInFlight(t *testing.T) {
	eng := sim.NewEngine(1)
	var old, redirected []uint16
	l := NewLink(eng, 1e9, 100*time.Microsecond, nil, PortFunc(func(p *packet.Packet) {
		old = append(old, p.TCP.SrcPort)
	}))
	for i := 1; i <= 5; i++ {
		l.Send(0, tagged(i))
	}
	eng.At(45*time.Microsecond, func() {
		if l.wire.Len() != 5 {
			t.Fatalf("%d packets on the wire at 45µs, want 5", l.wire.Len())
		}
		l.SetDst(PortFunc(func(p *packet.Packet) { redirected = append(redirected, p.TCP.SrcPort) }))
	})
	eng.Run()
	if len(old) != 0 || len(redirected) != 5 {
		t.Fatalf("old target got %v, new target got %v", old, redirected)
	}
	for i, id := range redirected {
		if id != uint16(i+1) {
			t.Fatalf("new target got %v, want 1..5 in order", redirected)
		}
	}
}

// TestFIFOLimitAndCapacityAfterChurn runs 10k enqueue/dequeue cycles
// through a FIFO, then checks that it still tail-drops at exactly limit
// live packets and that its storage stayed bounded by the live count.
func TestFIFOLimitAndCapacityAfterChurn(t *testing.T) {
	const limit = 48
	f := NewFIFO(limit)
	p := pkt(1)
	for i := 0; i < 10000; i++ {
		f.Enqueue(0, p)
		if i%3 == 0 {
			f.Enqueue(0, p)
		}
		f.Dequeue()
	}
	for f.Len() < limit {
		if !f.Enqueue(0, p) {
			t.Fatalf("drop at %d live packets, limit %d", f.Len(), limit)
		}
	}
	drops := f.Drops()
	if f.Enqueue(0, p) || f.Drops() != drops+1 {
		t.Fatal("enqueue beyond limit was not tail-dropped")
	}
	if c := f.q.Cap(); c > 2*limit {
		t.Errorf("capacity %d after churn, want at most %d", c, 2*limit)
	}
	for f.Len() > 0 {
		f.Dequeue()
	}
	if f.Dequeue() != nil {
		t.Error("empty FIFO returned a packet")
	}
}

// TestLinkSendDoesNotAllocate gates the pump: a Send through delivery
// allocates nothing once the engine's queue and the wire are warm.
func TestLinkSendDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine(1)
	n := 0
	l := NewLink(eng, 1e9, time.Microsecond, nil, PortFunc(func(*packet.Packet) { n++ }))
	p := pkt(100)
	l.Send(0, p)
	eng.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		l.Send(0, p)
		eng.Run()
	})
	if allocs != 0 {
		t.Errorf("Link.Send → delivery: %v allocs/op, want 0", allocs)
	}
	if n != 1002 {
		t.Errorf("delivered %d packets, want 1002", n)
	}
}
