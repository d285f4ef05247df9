package fastrak

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/packet"
)

// firstOffloadWave builds one deployment — exact or sketch-mode flow
// accounting — drives a seed-dependent mix of service flows through it,
// and returns the first non-empty offloaded pattern set.
//
// The comparison point is the first wave deliberately: until the first
// placer redirect, the sketch feed is byte-identical to the exact
// datapath walk (the accountant accrues the same packet/byte increments
// the exact-cache statistics get, and space-saving with k larger than
// the live pattern count holds exact counts), so both deployments run
// the same event sequence and must decide identically. After a redirect
// the feeds legitimately diverge by a few packets: invalidating the
// exact cache forgets counts accrued during the placer-programming
// window, while the sketch is cumulative — strictly more accurate, but
// enough to shift later demote timing in marginal scenarios.
func firstOffloadWave(t *testing.T, seed int64, sketchMode bool) []string {
	t.Helper()
	d, err := NewDeployment(Options{
		Servers:          2,
		Seed:             seed,
		SketchAccounting: sketchMode,
		SketchTopK:       256,
		Controller: ControllerOptions{
			Epoch:    100 * time.Millisecond,
			MinScore: 1500,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := d.AddVM(0, 3, "10.0.0.1", VMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	server, err := d.AddVM(1, 3, "10.0.0.2", VMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ports := []uint16{8080, 8081, 8082, 8083}
	for _, port := range ports {
		server.BindApp(port, host.AppFunc(func(*host.VM, *packet.Packet) {}))
	}
	// One flow per service. Rates are octaves apart so ranking and the
	// MinScore eligibility cut both have margin; which service gets
	// which rate, and each flow's phase, is the seed-dependent part.
	rng := rand.New(rand.NewSource(seed))
	intervals := []time.Duration{
		250 * time.Microsecond, 500 * time.Microsecond,
		time.Millisecond, 4 * time.Millisecond,
	}
	rng.Shuffle(len(intervals), func(i, j int) {
		intervals[i], intervals[j] = intervals[j], intervals[i]
	})
	d.Start()
	defer d.Stop()
	for i, port := range ports {
		port := port
		srcPort := uint16(40000 + i)
		start := time.Duration(rng.Intn(1000)) * time.Microsecond
		every := intervals[i]
		d.Cluster.Eng.After(start, func() {
			d.Cluster.Eng.Every(every, func() {
				client.Send(server.Key.IP, srcPort, port, 64, host.SendOptions{}, nil)
			})
		})
	}
	for d.Now() < 3*time.Second {
		d.Run(50 * time.Millisecond)
		if wave := d.Offloaded(); len(wave) > 0 {
			sort.Strings(wave)
			return wave
		}
	}
	t.Fatalf("sketch=%v: nothing offloaded within 3s", sketchMode)
	return nil
}

// TestSketchDifferentialOffloadDecisions is the oracle for the streaming
// accounting path: across 200 seeds, a deployment measuring demand
// through the count-min + space-saving accountant must produce exactly
// the offload wave the exact per-flow path produces. The top-k (256)
// covers every live pattern, so any divergence would have to come from
// the wiring itself — a missed accrual or a mis-keyed pattern.
func TestSketchDifferentialOffloadDecisions(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 10
	}
	for s := 1; s <= seeds; s++ {
		s := s
		t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) {
			t.Parallel()
			exact := firstOffloadWave(t, int64(s), false)
			sk := firstOffloadWave(t, int64(s), true)
			if !reflect.DeepEqual(exact, sk) {
				t.Errorf("offload waves diverge:\n exact:  %v\n sketch: %v", exact, sk)
			}
		})
	}
}
