package router

import (
	"testing"
	"time"
)

// The hedger's latency tracker is serve's Histogram: a quantile is the upper
// bound of the millisecond bucket it falls in.
func TestLatencyTrackerQuantile(t *testing.T) {
	var h hedger
	if q, n := h.lat.Quantile(0.99); q != 0 || n != 0 {
		t.Fatalf("empty tracker quantile = %v over %d, want 0 over 0", q, n)
	}
	// 99 fast observations and 1 slow one: p50 and p99 stay in the fast
	// bucket, p99.5 (ceiling semantics) reaches the slow one's bucket bound.
	for i := 0; i < 99; i++ {
		h.lat.Observe(200 * time.Microsecond)
	}
	h.lat.Observe(40 * time.Millisecond)
	if p50, n := h.lat.Quantile(0.50); p50 != time.Millisecond || n != 100 {
		t.Fatalf("p50 = %v over %d, want 1ms over 100", p50, n)
	}
	if p99 := h.p99(); p99 != 1 {
		t.Fatalf("p99 = %v ms, want 1", p99)
	}
	if p995, _ := h.lat.Quantile(0.995); p995 != 50*time.Millisecond {
		t.Fatalf("p99.5 = %v, want the 50ms bucket bound", p995)
	}
}

func TestLatencyTrackerOverflowBucket(t *testing.T) {
	var h hedger
	h.lat.Observe(time.Hour)
	if q, n := h.lat.Quantile(0.99); q != 10*time.Second || n != 1 {
		t.Fatalf("overflow quantile = %v over %d, want 2× the last bound (10s) over 1", q, n)
	}
}

func TestHedgerBudgetColdThenDerived(t *testing.T) {
	h := &hedger{enabled: true}
	// Below hedgeMinSamples observations the budget is the cold one,
	// however fast the samples.
	for i := 0; i < hedgeMinSamples-1; i++ {
		h.lat.Observe(300 * time.Microsecond)
	}
	if b := h.budget(); b != hedgeCold {
		t.Fatalf("cold budget = %v, want %v", b, hedgeCold)
	}
	// Enough fast samples: the derived budget (3 × the 1 ms bucket bound)
	// falls below the floor and clamps up to hedgeMin.
	for i := 0; i < 100; i++ {
		h.lat.Observe(300 * time.Microsecond)
	}
	if b := h.budget(); b != hedgeMin {
		t.Fatalf("fast-traffic budget = %v, want clamp to %v", b, hedgeMin)
	}
	// Slow samples push the budget up to 3 × the p99 bucket bound.
	for i := 0; i < 1000; i++ {
		h.lat.Observe(80 * time.Millisecond)
	}
	want := 3 * 100 * time.Millisecond // 80ms lands in the 100ms bucket
	if b := h.budget(); b != want {
		t.Fatalf("slow-traffic budget = %v, want %v", b, want)
	}
	if p := h.p99(); p != 100 {
		t.Fatalf("p99 = %v ms, want the 100 ms bucket bound", p)
	}
	// A pathological p99 clamps down to hedgeMax.
	for i := 0; i < 10000; i++ {
		h.lat.Observe(4 * time.Second)
	}
	if b := h.budget(); b != hedgeMax {
		t.Fatalf("pathological budget = %v, want clamp to %v", b, hedgeMax)
	}
}

func TestHedgerDisabled(t *testing.T) {
	h := &hedger{}
	if b := h.budget(); b != 0 {
		t.Fatalf("disabled hedger budget = %v, want 0", b)
	}
	for i := 0; i < hedgeMinSamples; i++ {
		h.lat.Observe(80 * time.Millisecond)
	}
	if b := h.budget(); b != 0 {
		t.Fatalf("disabled hedger budget after samples = %v, want 0", b)
	}
}
