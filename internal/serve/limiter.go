package serve

import (
	"sync/atomic"
	"time"
)

// rateLimiter is a lock-free GCRA (generic cell rate algorithm) admission
// limiter: the serving-tier equivalent of a token bucket, expressed as a
// single atomic "theoretical arrival time". A request is admitted when the
// limiter's virtual schedule has not run more than one burst window ahead
// of real time; each admission advances the schedule by one emission
// interval. One CAS per decision, no mutex, no background refill
// goroutine — the hot path stays contention-free at GOMAXPROCS-scale
// concurrency like the rest of the request path.
//
// The limiter sits at the very front of /v1/solve (before the body is even
// read), so a rate-capped daemon sheds excess offered load at the cheapest
// possible point. Capping per-backend throughput makes a fleet's capacity
// additive: N daemons capped at Q QPS serve ≈ N·Q behind the router.
type rateLimiter struct {
	// base anchors the monotonic clock; times below are ns since base.
	base time.Time
	// interval is the emission interval in ns (1e9 / maxQPS).
	interval int64
	// window is the burst allowance in ns (burst tokens × interval): how
	// far the virtual schedule may run ahead of now before shedding.
	window int64
	// tat is the theoretical arrival time of the next admission, in ns
	// since base.
	tat atomic.Int64
}

// newRateLimiter returns a limiter admitting maxQPS requests per second
// with the given burst (≤ 0 picks max(1, maxQPS/2)). maxQPS must be
// positive; callers gate on that.
func newRateLimiter(maxQPS float64, burst int) *rateLimiter {
	if burst <= 0 {
		burst = int(maxQPS / 2)
		if burst < 1 {
			burst = 1
		}
	}
	interval := int64(float64(time.Second) / maxQPS)
	if interval < 1 {
		interval = 1
	}
	return &rateLimiter{
		base:     time.Now(),
		interval: interval,
		window:   int64(burst) * interval,
	}
}

// allow reports whether one request may be admitted now. A nil limiter
// admits everything (the unlimited default).
func (l *rateLimiter) allow() bool {
	if l == nil {
		return true
	}
	now := int64(time.Since(l.base))
	for {
		tat := l.tat.Load()
		if tat-now > l.window {
			return false
		}
		next := tat
		if now > next {
			next = now
		}
		if l.tat.CompareAndSwap(tat, next+l.interval) {
			return true
		}
	}
}
