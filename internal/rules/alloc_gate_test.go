package rules

import (
	"testing"

	"repro/internal/packet"
)

// TestPatternCompareAllocsStayZero gates the canonical pattern order:
// every ranking and deterministic sort calls Compare O(n log n) times, so
// it must not allocate.
func TestPatternCompareAllocsStayZero(t *testing.T) {
	p := ExactPattern(testKey)
	q := Pattern{AnyTenant: true, Dst: packet.MustParseIP("10.0.0.2"), DstPrefix: 24, DstPort: 11211, Proto: 47}
	if n := testing.AllocsPerRun(1000, func() {
		if p.Compare(q) == 0 {
			t.Fatal("distinct patterns compared equal")
		}
	}); n != 0 {
		t.Fatalf("Pattern.Compare allocates %v/op, want 0", n)
	}
}
