package router

import (
	"sync/atomic"
	"time"

	"copmecs/internal/serve"
)

// hedger decides when a slow primary attempt earns a speculative duplicate
// on the next ring replica. The trigger budget tracks the observed p99 —
// hedges fire only for genuinely tail-slow attempts (~1% of traffic), so
// the duplicate-work tax stays bounded while tail latency collapses toward
// the second-fastest backend. Until hedgeMinSamples observations
// arrive the budget is hedgeCold.
type hedger struct {
	enabled bool

	lat   serve.Histogram // successful forward latencies
	fired atomic.Uint64   // speculative duplicates launched
	won   atomic.Uint64   // hedges that produced the winning response
}

// budget returns the current hedge trigger delay, or 0 when hedging is
// disabled (callers must not arm a timer on 0): hedgeMultiplier ×
// the p99 bucket bound, clamped to [hedgeMin, hedgeMax].
func (h *hedger) budget() time.Duration {
	if !h.enabled {
		return 0
	}
	p99, n := h.lat.Quantile(0.99)
	if n < hedgeMinSamples {
		return hedgeCold
	}
	return min(max(hedgeMultiplier*p99, hedgeMin), hedgeMax)
}

// p99 reports the tracked 99th-percentile forward latency in milliseconds
// (0 until any sample arrives) for the stats document.
func (h *hedger) p99() float64 {
	d, _ := h.lat.Quantile(0.99)
	return float64(d) / float64(time.Millisecond)
}
