// Package workload implements the traffic generators of the paper's
// evaluation: netperf TCP_STREAM and TCP_RR (closed-loop and burst-
// pipelined, §3.1), a memcached server with a memslap-style client (§6),
// an scp-like disk-bound file transfer, a MapReduce shuffle, and IOzone/
// stress-style background load. Generators are closed-loop where the
// originals are — throughput is determined by the emulated system, not
// the generator — and loss-tolerant the way their real TCP transports
// are: unacknowledged messages are retransmitted after a timeout, with
// duplicate suppression on both sides.
package workload

import (
	"sort"
	"time"

	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
)

// ackSizeBytes is the payload of stream acknowledgments.
const ackSizeBytes = 0

// defaultRetry is the loss-recovery timer for generators (a TCP RTO
// stand-in).
const defaultRetry = 50 * time.Millisecond

// Stream is a netperf TCP_STREAM test: threads send messages of Size
// bytes with TCP_NODELAY semantics (one message per send), with a byte
// window enforcing TCP-like flow control; the receiver acknowledges each
// message, closing the loop. Lost messages or acks are retransmitted
// after RetryTimeout.
type Stream struct {
	Client, Server *host.VM
	// Port is the server port; each thread uses Port and a distinct
	// source port.
	Port uint16
	// Size is the application data size per send (§3.1: 64, 600, 1448,
	// 32000).
	Size int
	// Threads is the sender thread count (3 in the throughput test).
	Threads int
	// WindowBytes bounds unacknowledged data per thread (TCP window).
	WindowBytes int
	// RetryTimeout is the loss-recovery timer (default 50 ms).
	RetryTimeout time.Duration

	// Received counts payload bytes accepted by the receiver
	// (duplicates suppressed).
	Received uint64
	// Messages counts distinct delivered messages.
	Messages uint64
	// Retransmits counts loss-recovery resends.
	Retransmits uint64

	eng        *sim.Engine
	stopped    bool
	seen       map[uint64]bool
	seqCounter uint64
}

// Start begins the stream; it runs until Stop.
func (s *Stream) Start(eng *sim.Engine) {
	s.eng = eng
	if s.Threads <= 0 {
		s.Threads = 1
	}
	if s.WindowBytes <= 0 {
		s.WindowBytes = 256 << 10
	}
	if s.RetryTimeout <= 0 {
		s.RetryTimeout = defaultRetry
	}
	s.seen = make(map[uint64]bool)
	// Receiver: dedup, count, ack.
	s.Server.BindApp(s.Port, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
		if s.stopped {
			return
		}
		if !s.seen[p.Meta.Seq] {
			s.seen[p.Meta.Seq] = true
			s.Received += uint64(p.PayloadLen())
			s.Messages++
		}
		vm.Send(p.IP.Src, s.Port, p.TCP.SrcPort, ackSizeBytes, host.SendOptions{Seq: p.Meta.Seq}, nil)
	}))
	for i := 0; i < s.Threads; i++ {
		st := &streamThread{s: s, srcPort: 41000 + uint16(i), pending: make(map[uint64]time.Duration)}
		st.start()
	}
}

// Stop halts all threads.
func (s *Stream) Stop() { s.stopped = true }

// streamThread is one sender loop with its own window.
type streamThread struct {
	s       *Stream
	srcPort uint16
	// pending maps unacked sequence numbers to first-send time.
	pending map[uint64]time.Duration
	sending bool
}

func (st *streamThread) start() {
	// Acks return to the thread's source port; duplicates are ignored
	// by the pending check.
	st.s.Client.BindApp(st.srcPort, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
		if _, ok := st.pending[p.Meta.Seq]; !ok {
			return
		}
		delete(st.pending, p.Meta.Seq)
		st.fill()
	}))
	st.fill()
	st.armRetry()
}

// fill keeps the window full. Sends chain through the vCPU station, so a
// busy guest naturally slows the thread.
func (st *streamThread) fill() {
	if st.s.stopped || st.sending {
		return
	}
	if (len(st.pending)+1)*st.s.Size > st.s.WindowBytes {
		return
	}
	st.sending = true
	seq := st.s.nextSeq()
	st.pending[seq] = st.s.eng.Now()
	st.s.Client.Send(st.s.Server.Key.IP, st.srcPort, st.s.Port, st.s.Size, host.SendOptions{Seq: seq}, func() {
		st.sending = false
		st.fill()
	})
}

// armRetry retransmits unacked messages past the timeout, oldest (lowest
// sequence) first for deterministic simulations.
func (st *streamThread) armRetry() {
	st.s.eng.PostAfter(st.s.RetryTimeout, func() {
		if st.s.stopped {
			return
		}
		now := st.s.eng.Now()
		seqs := make([]uint64, 0, len(st.pending))
		for seq, sentAt := range st.pending {
			if now-sentAt >= st.s.RetryTimeout {
				seqs = append(seqs, seq)
			}
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			st.s.Retransmits++
			st.pending[seq] = now
			st.s.Client.Send(st.s.Server.Key.IP, st.srcPort, st.s.Port, st.s.Size, host.SendOptions{Seq: seq}, nil)
		}
		st.armRetry()
	})
}

// nextSeq hands out generator-unique sequence numbers.
func (s *Stream) nextSeq() uint64 {
	s.seqCounter++
	return s.seqCounter<<16 | uint64(s.Port)
}

// RR is a netperf TCP_RR test: each thread keeps Burst transactions in
// flight (1 = classic closed-loop request/response, §3.1.1; 32 = the
// pipelined "bursty traffic" configuration). Lost requests or responses
// are retransmitted after RetryTimeout with exactly-once completion.
type RR struct {
	Client, Server *host.VM
	Port           uint16
	// Size is the application data size of both request and response.
	Size int
	// Threads and Burst: 1×1 for closed-loop latency, 3×32 for the
	// pipelined test.
	Threads, Burst int
	// RetryTimeout is the loss-recovery timer (default 50 ms).
	RetryTimeout time.Duration

	// Transactions counts completed request/response pairs.
	Transactions uint64
	// Retransmits counts loss-recovery resends.
	Retransmits uint64
	// Latency observes per-transaction round-trip times (from first
	// transmission).
	Latency *metrics.Histogram

	eng     *sim.Engine
	stopped bool
	nextSeq uint64
	pending map[uint64]rrPending
}

type rrPending struct {
	srcPort uint16
	sentAt  time.Duration
}

// Start begins the test; it runs until Stop.
func (r *RR) Start(eng *sim.Engine) {
	r.eng = eng
	if r.Threads <= 0 {
		r.Threads = 1
	}
	if r.Burst <= 0 {
		r.Burst = 1
	}
	if r.RetryTimeout <= 0 {
		r.RetryTimeout = defaultRetry
	}
	if r.Latency == nil {
		r.Latency = metrics.NewHistogram()
	}
	r.pending = make(map[uint64]rrPending)
	// Server: echo with the same size.
	r.Server.BindApp(r.Port, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
		if r.stopped {
			return
		}
		vm.Send(p.IP.Src, r.Port, p.TCP.SrcPort, r.Size, host.SendOptions{Seq: p.Meta.Seq}, nil)
	}))
	for i := 0; i < r.Threads; i++ {
		srcPort := 42000 + uint16(i)
		// Client: response completes a transaction exactly once and
		// issues the next.
		r.Client.BindApp(srcPort, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
			if r.stopped {
				return
			}
			req, ok := r.pending[p.Meta.Seq]
			if !ok {
				return // duplicate response
			}
			delete(r.pending, p.Meta.Seq)
			r.Latency.Observe(eng.Now() - req.sentAt)
			r.Transactions++
			r.issue(srcPort)
		}))
		for b := 0; b < r.Burst; b++ {
			r.issue(srcPort)
		}
	}
	r.armRetry()
}

func (r *RR) issue(srcPort uint16) {
	if r.stopped {
		return
	}
	r.nextSeq++
	seq := r.nextSeq
	r.pending[seq] = rrPending{srcPort: srcPort, sentAt: r.eng.Now()}
	r.Client.Send(r.Server.Key.IP, srcPort, r.Port, r.Size, host.SendOptions{Seq: seq}, nil)
}

// armRetry retransmits requests whose responses are overdue.
func (r *RR) armRetry() {
	r.eng.PostAfter(r.RetryTimeout, func() {
		if r.stopped {
			return
		}
		now := r.eng.Now()
		seqs := make([]uint64, 0, len(r.pending))
		for seq, req := range r.pending {
			if now-req.sentAt >= r.RetryTimeout {
				seqs = append(seqs, seq)
			}
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			req := r.pending[seq]
			r.Retransmits++
			r.Client.Send(r.Server.Key.IP, req.srcPort, r.Port, r.Size, host.SendOptions{Seq: seq}, nil)
		}
		r.armRetry()
	})
}

// Stop halts the test.
func (r *RR) Stop() { r.stopped = true }

// TPS returns achieved transactions per second over elapsed.
func (r *RR) TPS(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(r.Transactions) / elapsed.Seconds()
}
