package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"copmecs/internal/core"
	"copmecs/internal/mec"
)

// Batching defaults (overridable via Config).
const (
	// DefaultMaxBatch is the largest solve round the batcher assembles.
	DefaultMaxBatch = 16
	// DefaultBatchWait is the longest a round waits for a request the server
	// already holds (still reading or decoding) to join it.
	DefaultBatchWait = 2 * time.Millisecond
	// DefaultQueueDepth bounds the accept queue; a full queue sheds load.
	DefaultQueueDepth = 256
	// maxBatchLanes caps the enqueue lane count (power of two).
	maxBatchLanes = 16
)

// pending is one singleflight cell: the first request for a key becomes
// the leader and is enqueued for a solve round; identical requests
// arriving while it is in flight attach as followers and share the
// result (a mutate leader solves inline instead; its cell is otherwise the
// same). mult tracks the live multiplicity (leader + followers), which
// the dispatcher expands into that many users of the solve round so the
// paper's shared-server contention (ActiveUsers = k) reflects the real
// concurrent load, not the deduplicated one.
type pending struct {
	key       string
	done      chan struct{} // closed exactly once when dec/err are set
	dec       *Decision
	err       error
	mult      atomic.Int64
	jseg      uint64 // journal token from Append, released in finish
	journaled bool   // jseg is live (a write-ahead record exists)
}

// newPending returns a cell with multiplicity 1 (the leader).
func newPending(key string) *pending {
	p := &pending{key: key, done: make(chan struct{})}
	p.mult.Store(1)
	return p
}

// solveTask is one accepted leader request waiting for a solve round.
type solveTask struct {
	p      *pending
	user   core.UserInput
	params mec.Params
	pkey   string // paramsDigest; rounds group by it
	fp     string // canonical graph fingerprint, echoed in the decision
	lane   uint32 // enqueue lane, derived from the graph fingerprint
}

// batcher coalesces concurrently arriving solve tasks into multi-user
// rounds: a round opens when the first task arrives, admits every task
// queued behind it, and is dispatched as one multi-user core.Solve once
// nobody the server holds can still join it (settled), or at maxBatch, after
// maxWait, or at stop. This is the serving-path version of the paper's batch
// setting — the users of one round are the users present at the edge server
// together, and the model's ActiveUsers comes from the live round.
//
// The accept queue is split into per-lane bounded MPSC rings (lane chosen
// from the request's graph fingerprint, so tasks for one application
// stream through one lane in FIFO order and singleflight dedup semantics
// are untouched). Producers therefore never contend on a shared queue
// mutex: a push is one CAS on the lane's ring. The single dispatch
// goroutine sweeps the lanes round-robin, woken through a one-token
// wake channel.
type batcher struct {
	lanes    []*batchLane
	laneMask uint32
	maxBatch int
	maxWait  time.Duration
	dispatch func(context.Context, []*solveTask)
	settled  func() bool   // Server.settled: nobody held can still join a round
	wake     chan struct{} // one-token producer→consumer doorbell
	stop     chan struct{}
	stopO    sync.Once
	done     chan struct{}
	// open is set while collect is deciding whether its round is complete:
	// only then does a request that stops being able to join ring wake.
	open        atomic.Bool
	earlyCloses atomic.Uint64 // rounds dispatched because the server settled
}

// batchLane is one enqueue lane: a bounded MPSC ring plus its counters.
type batchLane struct {
	ring     *taskRing
	enqueued atomic.Uint64 // tasks accepted into this lane
	rejected atomic.Uint64 // pushes refused because the lane was full
}

// stopOnce closes the stop channel exactly once; run then drains the
// lanes and exits.
func (b *batcher) stopOnce() {
	b.stopO.Do(func() { close(b.stop) })
}

// laneCountFor resolves the lane count: the largest power of two ≤
// maxBatchLanes that keeps each lane's ring at least one deep for the
// requested total queue depth. lanes > 0 forces an explicit count
// (rounded up to a power of two, capped at maxBatchLanes).
func laneCountFor(lanes, queueDepth int) int {
	if lanes > 0 {
		n := 1
		for n < lanes && n < maxBatchLanes {
			n *= 2
		}
		return n
	}
	n := 1
	for n*2 <= maxBatchLanes && queueDepth/(n*2) >= 1 {
		n *= 2
	}
	return n
}

// newBatcher returns a batcher feeding dispatch, with queueDepth split
// over laneCountFor(lanes, queueDepth) rings; settled is collect's
// early-close predicate. The caller starts it with go b.run(ctx) and stops
// it with stopOnce once no more tasks will be enqueued; run drains every
// queued task before exiting.
func newBatcher(maxBatch, queueDepth, lanes int, maxWait time.Duration, settled func() bool, dispatch func(context.Context, []*solveTask)) *batcher {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	if queueDepth <= 0 {
		queueDepth = DefaultQueueDepth
	}
	if maxWait <= 0 {
		maxWait = DefaultBatchWait
	}
	n := laneCountFor(lanes, queueDepth)
	perLane := (queueDepth + n - 1) / n
	b := &batcher{
		lanes:    make([]*batchLane, n),
		laneMask: uint32(n - 1),
		maxBatch: maxBatch,
		maxWait:  maxWait,
		dispatch: dispatch,
		settled:  settled,
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i := range b.lanes {
		b.lanes[i] = &batchLane{ring: newTaskRing(perLane)}
	}
	return b
}

// enqueue publishes t on its lane, returning false (shed) when the lane
// is full. Safe for concurrent producers; a successful push rings the
// dispatch goroutine's doorbell.
func (b *batcher) enqueue(t *solveTask) bool {
	lane := b.lanes[t.lane&b.laneMask]
	if !lane.ring.push(t) {
		lane.rejected.Add(1)
		return false
	}
	lane.enqueued.Add(1)
	b.ring()
	return true
}

// ring leaves the doorbell token in wake unless one is already pending.
func (b *batcher) ring() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// nudge is called by a request that can no longer join a round — it parked
// or left. An open round re-checks; otherwise this is one atomic load.
func (b *batcher) nudge() {
	if b.open.Load() {
		b.ring()
	}
}

// tryPop sweeps the lanes round-robin from *cursor, returning the first
// queued task. Only the dispatch goroutine calls it.
func (b *batcher) tryPop(cursor *int) (*solveTask, bool) {
	for i := 0; i < len(b.lanes); i++ {
		lane := b.lanes[(*cursor+i)%len(b.lanes)]
		if t, ok := lane.ring.pop(); ok {
			*cursor = (*cursor + i + 1) % len(b.lanes)
			return t, true
		}
	}
	return nil, false
}

// depth reports the total number of queued tasks across lanes (a
// monitoring gauge; it races with concurrent pushes by design).
func (b *batcher) depth() int {
	n := 0
	for _, lane := range b.lanes {
		n += lane.ring.len()
	}
	return n
}

// laneStats snapshots the per-lane counters for /v1/stats.
func (b *batcher) laneStats() []LaneStats {
	stats := make([]LaneStats, len(b.lanes))
	for i, lane := range b.lanes {
		stats[i] = LaneStats{
			Depth:    lane.ring.len(),
			Capacity: lane.ring.cap(),
			Enqueued: lane.enqueued.Load(),
			Rejected: lane.rejected.Load(),
		}
	}
	return stats
}

// run is the dispatch loop. It exits after stop is closed and the lanes
// have been drained; every accepted task is dispatched exactly once,
// which is what makes graceful drain lossless.
func (b *batcher) run(ctx context.Context) {
	defer close(b.done)
	cursor, stopped := 0, false
	for {
		first, ok := b.tryPop(&cursor)
		if ok {
			b.dispatch(ctx, b.collect(first, &cursor))
			continue
		}
		if stopped {
			return
		}
		select {
		case <-b.wake: // re-sweep: the push precedes its doorbell
		case <-b.stop:
			stopped = true // one more sweep: whatever is queued still runs
		}
	}
}

// collect assembles one round: first plus everything queued behind it,
// until the round fills, the server is settled, the window closes or the
// batcher is stopped. The settled exit is ordered sweep → open → settled? →
// sweep → dispatch: a leader pushes before it parks, so a settled server has
// nothing un-pushed and the second sweep catches a push that raced the
// first; open is raised before settled is read and a request parks (or
// leaves) before it reads open, so whichever comes second sees the other —
// a round never sleeps through becoming complete (DESIGN §10).
func (b *batcher) collect(first *solveTask, cursor *int) []*solveTask {
	round := []*solveTask{first}
	var window *time.Timer
	defer b.open.Store(false)
	for len(round) < b.maxBatch {
		if t, ok := b.tryPop(cursor); ok {
			round = append(round, t)
			continue
		}
		b.open.Store(true)
		if b.settled() {
			if t, ok := b.tryPop(cursor); ok {
				round = append(round, t)
				continue
			}
			b.earlyCloses.Add(1)
			return round
		}
		if window == nil { // armed only by a round that has to block
			window = time.NewTimer(b.maxWait)
			defer window.Stop()
		}
		select {
		case <-b.wake:
		case <-window.C:
			return round
		case <-b.stop:
			return round
		}
	}
	return round
}
