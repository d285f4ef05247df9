package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adminapi"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/service"
)

// Daemons workload: an in-process fastrak-tord and two fastrak-agentd on
// TCP loopback, driven by one goroutine with one admin HTTP client. It
// runs offload waves (a fresh stream steps from idle to hot; the DE must
// find and install it) beside a closed loop of admin pins and unpins.
const (
	dmAgents       = 2
	dmVMsPerAgent  = 8
	dmTenant       = 3
	dmPinSlots     = 4
	dmBackground   = 4 // low-rate streams per agent; pins target them
	dmTCAM         = 64
	dmWaveInterval = 200  // µs between packets of a wave stream (5k pps)
	dmBackInterval = 5000 // µs between packets of a background stream (200 pps)
	dmWaveLife     = 1500 * time.Millisecond
	dmTimeout      = 5 * time.Second
	dmPoll         = time.Millisecond
	dmRigs         = 4
	dmWindow       = time.Second
	// dmSupersede is how long a pin may stay unseen before the loop asks
	// the ToR whether it still tracks it (about 1.5 decision intervals).
	dmSupersede = 150 * time.Millisecond
)

// dmController compresses the control cadence so a wave lands in a few
// hundred milliseconds; MinScore keeps the 200 pps background streams
// off the express lane unless pinned.
var dmController = service.ControllerConfig{
	Epoch:             service.Duration(50 * time.Millisecond),
	EpochsPerInterval: 2,
	HistoryIntervals:  2,
	MinScore:          1000,
}

// admin is the benchmark's single admin HTTP client.
type admin struct {
	c  http.Client
	tr *tracer
	// reads are the latencies of GET /v1/rules polls, in ms.
	reads []float64
}

func (a *admin) do(method, addr, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, "http://"+addr+path, rd)
	if err != nil {
		return err
	}
	sp := a.tr.begin("adminapi.request", -1)
	resp, err := a.c.Do(req)
	if err != nil {
		a.tr.end(sp)
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a.tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return nil
}

// rules polls the ToR's TCAM and returns the installed patterns.
func (a *admin) rules(addr string) ([]string, error) {
	t0 := time.Now()
	var rep adminapi.RulesReply
	if err := a.do("GET", addr, "/v1/rules", nil, &rep); err != nil {
		return nil, err
	}
	a.reads = append(a.reads, float64(time.Since(t0))/1e6)
	out := make([]string, 0, len(rep.Rules))
	for _, r := range rep.Rules {
		out = append(out, r.Pattern+" ")
	}
	return out, nil
}

// placements returns the patterns the ToR tracks in any state.
func (a *admin) placements(addr string) ([]string, error) {
	var pl []adminapi.Placement
	if err := a.do("GET", addr, "/v1/placements", nil, &pl); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(pl))
	for _, p := range pl {
		out = append(out, p.Pattern+" ")
	}
	return out, nil
}

// dmStream is one synthetic stream between two VMs of one agent.
type dmStream struct {
	agent    int
	src, dst string
	sport    uint16
	dport    uint16
}

func (s dmStream) pattern() rules.Pattern {
	return rules.ExactPattern(packet.FlowKey{
		Tenant: dmTenant, Src: packet.MustParseIP(s.src), Dst: packet.MustParseIP(s.dst),
		SrcPort: s.sport, DstPort: s.dport, Proto: packet.ProtoTCP,
	})
}

func (s dmStream) spec() adminapi.PatternSpec { return adminapi.SpecOf(s.pattern()) }

// lane is the part of a rule's string form that every pattern the DE or
// a pin can install for this stream contains: its destination VM and
// port. Each stream has a destination port of its own.
func (s dmStream) lane() string { return fmt.Sprintf("> %s/32:%d ", s.dst, s.dport) }

// landed reports whether any installed rule carries the stream.
func landed(visible []string, lane string) bool {
	for _, r := range visible {
		if strings.Contains(r, lane) {
			return true
		}
	}
	return false
}

// dmRig is one running tord + agents set.
type dmRig struct {
	tord      *service.Tord
	agents    []*service.Agentd
	proxy     *ofProxy
	started   time.Time
	bg        []dmStream
	agentVMs  [][]string
	tordAdmin string
}

func startDaemons(seed int64, viaProxy bool, a *admin) (*dmRig, error) {
	rig := &dmRig{}
	rng := rand.New(rand.NewSource(seed))
	rig.started = time.Now()
	tord, err := service.StartTord(service.TordConfig{
		ListenControl: "127.0.0.1:0", ListenAdmin: "127.0.0.1:0",
		TCAMCapacity: dmTCAM, Seed: seed, Controller: dmController,
	}, service.NewWallClock())
	if err != nil {
		return nil, err
	}
	rig.tord, rig.tordAdmin = tord, tord.AdminAddr()
	torAddr := tord.ControlAddr()
	if viaProxy {
		if rig.proxy, err = newOFProxy(torAddr); err != nil {
			rig.close()
			return nil, err
		}
		torAddr = rig.proxy.addr()
	}
	for i := 1; i <= dmAgents; i++ {
		ag, err := service.StartAgentd(service.AgentConfig{
			ServerID: uint32(i), TORAddr: torAddr, ListenAdmin: "127.0.0.1:0",
			TCAMCapacity: dmTCAM, Seed: seed + int64(i), Controller: dmController,
		}, nil)
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.agents = append(rig.agents, ag)
		var vms []string
		for v := 1; v <= dmVMsPerAgent; v++ {
			ip := fmt.Sprintf("10.0.%d.%d", i, v)
			if err := a.do("POST", ag.AdminAddr(), "/v1/vms", adminapi.VMRequest{Tenant: dmTenant, IP: ip}, nil); err != nil {
				rig.close()
				return nil, err
			}
			vms = append(vms, ip)
		}
		rig.agentVMs = append(rig.agentVMs, vms)
		for k := 0; k < dmBackground; k++ {
			perm := rng.Perm(len(vms))
			s := dmStream{agent: i - 1, src: vms[perm[0]], dst: vms[perm[1]], sport: uint16(30000 + k), dport: uint16(7000 + 10*i + k)}
			if err := rig.traffic(a, s, dmBackInterval, 0); err != nil {
				rig.close()
				return nil, err
			}
			rig.bg = append(rig.bg, s)
		}
	}
	// Ready once the ToR has attached both agents (on their first
	// demand report).
	for deadline := time.Now().Add(dmTimeout); ; {
		var h adminapi.Health
		if err := a.do("GET", rig.tordAdmin, "/healthz", nil, &h); err != nil {
			rig.close()
			return nil, err
		}
		if len(h.Agents) == dmAgents {
			break
		}
		if time.Now().After(deadline) {
			rig.close()
			return nil, fmt.Errorf("agents attached: %v, want %d", h.Agents, dmAgents)
		}
		time.Sleep(dmPoll)
	}
	return rig, nil
}

// warmup runs one untimed offload wave per agent and waits for both to
// land, so the timed loop starts with demand reports flowing and the
// decision cycle running.
func (rig *dmRig) warmup(a *admin) error {
	var lanes []string
	for ag, vms := range rig.agentVMs {
		s := dmStream{agent: ag, src: vms[0], dst: vms[1], sport: 39000, dport: uint16(39000 + ag)}
		if err := rig.traffic(a, s, dmWaveInterval, dmWaveLife); err != nil {
			return err
		}
		lanes = append(lanes, s.lane())
	}
	for deadline := time.Now().Add(dmTimeout); ; {
		visible, err := a.rules(rig.tordAdmin)
		if err != nil {
			return err
		}
		if landed(visible, lanes[0]) && landed(visible, lanes[1]) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up waves did not land within %v", dmTimeout)
		}
		time.Sleep(dmPoll)
	}
}

func (rig *dmRig) traffic(a *admin, s dmStream, intervalUS int64, life time.Duration) error {
	return a.do("POST", rig.agents[s.agent].AdminAddr(), "/v1/traffic", adminapi.TrafficRequest{
		Tenant: dmTenant, Src: s.src, Dst: s.dst, SrcPort: s.sport, DstPort: s.dport,
		IntervalUS: intervalUS, DurationMS: life.Milliseconds(),
	}, nil)
}

func (rig *dmRig) close() {
	for _, ag := range rig.agents {
		ag.Close()
	}
	if rig.tord != nil {
		rig.tord.Close()
	}
	if rig.proxy != nil {
		rig.proxy.close()
	}
}

// pinSlot is one closed-loop pin → visible → unpin → gone cycle.
type pinSlot struct {
	stream  dmStream
	phase   int // 0 idle, 1 pinned (waiting visible), 2 unpinned (waiting gone)
	t0      time.Time
	pattern string
}

// waveSlot is one offload wave on one agent.
type waveSlot struct {
	active  bool
	t0      time.Time
	pattern string
}

// dmStats accumulates the measurements of every daemon set in a run.
type dmStats struct {
	waveLat, pinLat, lag, windows []float64
	waves, pins                   int
	cycles, superseded            int
}

func runDaemons(cfg runConfig) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, bases: map[string]string{}}
	a := &admin{tr: cfg.tr, c: http.Client{Timeout: dmTimeout}}
	defer a.c.CloseIdleConnections()
	seconds := cfg.seconds
	if cfg.smoke {
		seconds = 2 * dmRigs
	}

	// The run is split over several daemon sets: each start-up fixes the
	// phase between the agents' report timers and the ToR's decision
	// timer, and pin latency depends on that phase, so one set per run
	// would make pins_per_s vary from run to run.
	var st dmStats
	var setups, heaps []float64
	rt0 := readRuntime()
	for i := 0; i < dmRigs; i++ {
		t0 := time.Now()
		sp := cfg.tr.begin("service.StartTord+StartAgentd", -1)
		rig, err := startDaemons(cfg.seed*dmRigs+int64(i), cfg.tr != nil, a)
		cfg.tr.end(sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
		err = rig.warmup(a)
		if err == nil {
			err = measureRig(o, a, rig, rand.New(rand.NewSource(cfg.seed*dmRigs+int64(i))), seconds/dmRigs, &st)
		}
		if err == nil {
			heaps = append(heaps, liveHeapMB())
			err = rig.addLayers(o, a)
		}
		rig.close()
		if err != nil {
			return nil, err
		}
	}
	o.layers["runtime.gc_cpu_ms"] = readRuntime().gcCPUms - rt0.gcCPUms
	dmCheck(o, st.waves, len(st.waveLat), st.pins, len(st.pinLat), st.superseded)

	// The median over one-second windows resists a slowdown of the
	// machine that lasts only part of the run.
	pinsPerS := median(st.windows)
	heap := median(heaps)
	o.e2e["setup_s"] = median(setups)
	o.e2e["throughput"] = pinsPerS
	o.e2e["latency_ms_p50"] = quantile(st.waveLat, 0.5)
	o.e2e["latency_ms_p90"] = quantile(st.waveLat, 0.9)
	o.e2e["heap_mb"] = heap
	o.report = []named{
		{"wave_ms_p50", quantile(st.waveLat, 0.5), "ms", fmt.Sprintf("%d waves, stream step to rule in /v1/rules", len(st.waveLat))},
		{"wave_ms_p90", quantile(st.waveLat, 0.9), "ms", ""},
		{"pin_ms_p50", quantile(st.pinLat, 0.5), "ms", fmt.Sprintf("%d pins, %d in flight", len(st.pinLat), dmPinSlots)},
		{"pin_ms_p90", quantile(st.pinLat, 0.9), "ms", ""},
		{"pin_ms_p99", quantile(st.pinLat, 0.99), "ms", ""},
		{"pins_superseded", float64(st.superseded), "count", "pins a DE demotion aborted before they were seen"},
		{"pins_per_s", pinsPerS, "1/s", fmt.Sprintf("pin → visible → unpin → gone cycles per second, median of %d windows of %v over %d daemon sets", len(st.windows), dmWindow, dmRigs)},
		{"admin_ms_p50", quantile(a.reads, 0.5), "ms", fmt.Sprintf("%d GET /v1/rules under load", len(a.reads))},
		{"admin_ms_p99", quantile(a.reads, 0.99), "ms", ""},
		{"heap_mb", heap, "MB", "live heap after GC, daemons running, median over the sets"},
		{"setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups))},
		{"error_rate", errorRate(o), "ratio", "waves or pins that did not land / attempted"},
	}
	o.layers["service.lag_ms_p99"] = quantile(st.lag, 0.99)
	o.bases["service.lag_ms_p99"] = fmt.Sprintf("%d /healthz polls", len(st.lag))
	if n := o.layers["vswitch.megaflow_lookups"]; n > 0 {
		o.layers["vswitch.megaflow_hit_ratio"] = o.layers["vswitch.megaflow_hits"] / n
		o.bases["vswitch.megaflow_hit_ratio"] = fmt.Sprintf("%.0f megaflow lookups on the agents", n)
	}
	return o, nil
}

// measureRig drives waves and pins against one daemon set for seconds,
// then waits for what is in flight to land.
func measureRig(o *outcome, a *admin, rig *dmRig, rng *rand.Rand, seconds float64, st *dmStats) error {
	nextWavePort := uint16(40000)
	slots := make([]*pinSlot, dmPinSlots)
	for j := range slots {
		slots[j] = &pinSlot{}
	}
	wavesAt := make([]*waveSlot, dmAgents)
	for j := range wavesAt {
		wavesAt[j] = &waveSlot{}
	}
	fail := func(what string, err error) {
		o.failed++
		o.check(what, false, "%v", err)
	}

	start := time.Now()
	windowStart, windowCycles := start, 0
	for iter := 0; ; iter++ {
		running := since(start) < seconds
		busy := false
		for ag, w := range wavesAt {
			if !w.active && running {
				vms := rig.agentVMs[ag]
				perm := rng.Perm(len(vms))
				s := dmStream{agent: ag, src: vms[perm[0]], dst: vms[perm[1]], sport: nextWavePort, dport: nextWavePort}
				nextWavePort++
				w.t0 = time.Now()
				if err := rig.traffic(a, s, dmWaveInterval, dmWaveLife); err != nil {
					fail("wave start", err)
					continue
				}
				w.active, w.pattern = true, s.lane()
				st.waves++
				o.attempted++
			}
			busy = busy || w.active
		}
		for j, p := range slots {
			if p.phase == 0 && running {
				p.stream = rig.bg[(j+st.cycles*dmPinSlots)%len(rig.bg)]
				p.pattern = p.stream.lane()
				p.t0 = time.Now()
				if err := a.do("POST", rig.tordAdmin, "/v1/rules", p.stream.spec(), nil); err != nil {
					fail("pin", err)
					continue
				}
				p.phase = 1
				st.pins++
				o.attempted++
			}
			busy = busy || p.phase != 0
		}
		if !running && !busy {
			return nil
		}

		visible, err := a.rules(rig.tordAdmin)
		if err != nil {
			return err
		}
		now := time.Now()
		for _, w := range wavesAt {
			switch {
			case !w.active:
			case landed(visible, w.pattern):
				st.waveLat = append(st.waveLat, float64(now.Sub(w.t0))/1e6)
				w.active = false
			case now.Sub(w.t0) > dmTimeout:
				fail("wave lands", fmt.Errorf("%s not in /v1/rules after %v", w.pattern, dmTimeout))
				w.active = false
			}
		}
		for _, p := range slots {
			switch {
			case p.phase == 1 && landed(visible, p.pattern):
				st.pinLat = append(st.pinLat, float64(now.Sub(p.t0))/1e6)
				p.t0 = now
				if err := a.do("DELETE", rig.tordAdmin, "/v1/rules", p.stream.spec(), nil); err != nil {
					return err
				}
				p.phase = 2
			case p.phase == 2 && !landed(visible, p.pattern):
				p.phase = 0
				st.cycles++
				windowCycles++
			case p.phase == 1 && now.Sub(p.t0) > dmSupersede:
				// TORService.Pin starts the normal install machinery, so a
				// DE tick may demote a pin whose pattern scores below
				// MinScore; when that tick runs in the same runtime batch
				// as the install, the rule is never visible. Such a pin is
				// superseded, not lost: the ToR no longer tracks it.
				tracked, err := a.placements(rig.tordAdmin)
				if err != nil {
					return err
				}
				switch {
				case !landed(tracked, p.pattern):
					st.superseded++
					p.phase = 0
				case now.Sub(p.t0) > dmTimeout:
					fail("pin lands", fmt.Errorf("%s tracked but not in /v1/rules after %v", p.pattern, dmTimeout))
					_ = a.do("DELETE", rig.tordAdmin, "/v1/rules", p.stream.spec(), nil)
					p.phase = 0
				}
			case p.phase == 2 && now.Sub(p.t0) > dmTimeout:
				fail("unpin lands", fmt.Errorf("%s still in /v1/rules %v after unpin", p.pattern, dmTimeout))
				p.phase = 0
			}
		}
		if iter%50 == 0 {
			var h adminapi.Health
			if err := a.do("GET", rig.tordAdmin, "/healthz", nil, &h); err != nil {
				return err
			}
			st.lag = append(st.lag, float64(time.Since(rig.started)-time.Duration(h.NowUS)*time.Microsecond)/1e6)
		}
		if w := since(windowStart); w >= dmWindow.Seconds() && running {
			st.windows = append(st.windows, float64(windowCycles)/w)
			windowStart, windowCycles = time.Now(), 0
		}
		time.Sleep(dmPoll)
	}
}

// addLayers adds one daemon set's /metrics counters and relay counts to
// the per-layer metrics.
func (rig *dmRig) addLayers(o *outcome, a *admin) error {
	l := o.layers
	tordM, err := scrape(a, rig.tordAdmin)
	if err != nil {
		return err
	}
	l["core.decide_cycles"] += tordM["fastrak_torctl_decisions_total"]
	l["core.retries"] += tordM["fastrak_torctl_retries_total"]
	l["core.giveups"] += tordM["fastrak_torctl_giveups_total"]
	l["tor.tcam_installs"] += tordM["fastrak_torctl_installs_total"]
	l["tor.tcam_rejects"] += tordM["fastrak_tor_install_rejects_total"]
	for _, ag := range rig.agents {
		m, err := scrape(a, ag.AdminAddr())
		if err != nil {
			return err
		}
		l["vswitch.upcalls"] += m["fastrak_vswitch_upcalls_total"]
		hits, misses := m["fastrak_vswitch_megaflow_hits_total"], m["fastrak_vswitch_megaflow_misses_total"]
		l["vswitch.megaflow_hits"] += hits
		l["vswitch.megaflow_lookups"] += hits + misses
	}
	if rig.proxy != nil {
		ps := rig.proxy.stats()
		l["openflow.messages"] += float64(ps.frames)
		l["openflow.bytes"] += float64(ps.bytes)
		l["measure.reports"] += float64(ps.reports)
		o.bases["openflow.messages"] = "frames both ways through a counting loopback relay (traced pass only)"
	}
	return nil
}

// dmCheck adds the landing checks: every wave reached /v1/rules, and
// every pin did or was superseded by a DE demotion. A wave or pin that
// timed out was already counted in o.failed when it did.
func dmCheck(o *outcome, waves, wavesLanded, pins, pinsLanded, superseded int) {
	o.check("waves land", wavesLanded == waves, "%d of %d waves reached /v1/rules", wavesLanded, waves)
	o.check("pins land", pinsLanded+superseded == pins, "%d of %d pins reached /v1/rules, %d superseded by a DE demotion first",
		pinsLanded, pins, superseded)
}

// scrape reads a daemon's /metrics and sums each metric family over its
// label sets.
func scrape(a *admin, addr string) (map[string]float64, error) {
	req, err := http.NewRequest("GET", "http://"+addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := a.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = line[:i]
			_, rest, ok = strings.Cut(line, "} ")
		}
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
			out[name] += v
		}
	}
	return out, sc.Err()
}

// ofProxy relays agent↔tord control connections on loopback and counts
// openflow frames; the traced pass routes the agents through it.
type ofProxy struct {
	ln      net.Listener
	target  string
	frames  atomic.Uint64
	bytes   atomic.Uint64
	reports atomic.Uint64
	mu      sync.Mutex
	conns   []net.Conn
	wg      sync.WaitGroup
}

type proxyStats struct{ frames, bytes, reports uint64 }

func newOFProxy(target string) (*ofProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &ofProxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *ofProxy) addr() string { return p.ln.Addr().String() }

func (p *ofProxy) stats() proxyStats {
	return proxyStats{frames: p.frames.Load(), bytes: p.bytes.Load(), reports: p.reports.Load()}
}

func (p *ofProxy) accept() {
	defer p.wg.Done()
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", p.target)
		if err != nil {
			in.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, in, out)
		p.mu.Unlock()
		p.wg.Add(2)
		go p.relay(in, out)
		go p.relay(out, in)
	}
}

// relay copies whole frames (8-byte header, big-endian length at bytes
// 2..3) from src to dst, counting them, until either side closes.
func (p *ofProxy) relay(src, dst net.Conn) {
	defer p.wg.Done()
	defer src.Close()
	defer dst.Close()
	r := bufio.NewReader(src)
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint16(hdr[2:4]))
		if n < len(hdr) {
			return
		}
		frame := make([]byte, n)
		copy(frame, hdr[:])
		if _, err := io.ReadFull(r, frame[len(hdr):]); err != nil {
			return
		}
		p.frames.Add(1)
		p.bytes.Add(uint64(n))
		if openflow.MsgType(hdr[1]) == openflow.TypeDemandReport {
			p.reports.Add(1)
		}
		if _, err := dst.Write(frame); err != nil {
			return
		}
	}
}

func (p *ofProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
