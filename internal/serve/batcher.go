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
	// DefaultMaxBatch is the most cells a solve round holds, and the cap on
	// each cell's multiplicity.
	DefaultMaxBatch = 16
	// DefaultBatchWait is the longest a round waits for a request the server
	// already holds (still reading or decoding) to join it.
	DefaultBatchWait = 2 * time.Millisecond
	// DefaultQueueDepth bounds the accept queue; a full queue sheds load.
	DefaultQueueDepth = 256
)

// pending is one singleflight cell: the first request for a key becomes
// the leader and is enqueued for a solve round; identical requests
// arriving while it is in flight attach as followers and share the
// result (a mutate leader runs its round of one inline instead; its cell is
// otherwise the same). mult tracks the live multiplicity (leader +
// followers), which the dispatcher expands into that many users of the solve
// round so the paper's shared-server contention (ActiveUsers = k) reflects
// the real concurrent load, not the deduplicated one.
type pending struct {
	key  string
	done chan struct{} // closed exactly once when dec/hit/err are set
	dec  *Decision
	hit  []byte // dec's cached:true body, as publish rendered it
	err  error
	mult atomic.Int64
}

// newPending returns a cell with multiplicity 1 (the leader).
func newPending(key string) *pending {
	p := &pending{key: key, done: make(chan struct{})}
	p.mult.Store(1)
	return p
}

// solveTask is one accepted leader request waiting for a solve round, or a
// mutation's round of one.
type solveTask struct {
	p       *pending
	rec     []byte         // a solve's recAccepted payload, its round member; nil for a mutate
	mutate  *MutateRequest // a mutate's request, its round member once encoded; nil for a solve
	user    core.UserInput
	params  mec.Params
	pkey    string        // paramsDigest; rounds group by it
	fp      string        // canonical graph fingerprint, echoed in the decision
	mult    int           // users the round expands the task to: p.mult read once at dispatch, or a replayed record's
	applied *core.Applied // a mutation's patched view, staged; nil for a solve
}

// staged reports that t's round pipelines the view Apply staged for it:
// solveRound interned that view itself, rather than finding an instance of
// the same content interned before. Valid once solveRound has rewritten t's
// view.
func (t *solveTask) staged() bool { return t.applied != nil && t.user.View == t.applied.View() }

// batcher coalesces concurrently arriving solve tasks into multi-user
// rounds: a round opens when the first task arrives, admits every task
// queued behind it, and is dispatched as one multi-user core.Solve once
// nobody the server holds can still join it (settled), or at maxBatch, after
// maxWait, or at stop. This is the serving-path version of the paper's batch
// setting — the users of one round are the users present at the edge server
// together, and the model's ActiveUsers comes from the live round.
//
// The accept queue is one buffered channel: producers send without blocking
// (a full queue sheds), the single dispatch goroutine receives, so tasks
// leave in the order they were accepted.
type batcher struct {
	queue    chan *solveTask // capacity = the queue depth, the shed bound
	maxBatch int
	maxWait  time.Duration
	dispatch func(context.Context, []*solveTask)
	settled  func() bool   // Server.settled: nobody held can still join a round
	wake     chan struct{} // one-token doorbell: nudge → an open round
	stop     chan struct{}
	stopO    sync.Once
	done     chan struct{}
	// open is set while collect is deciding whether its round is complete:
	// only then does a request that stops being able to join ring wake.
	open        atomic.Bool
	earlyCloses atomic.Uint64 // rounds dispatched because the server settled
}

// stopOnce closes the stop channel exactly once; run then drains the
// queue and exits.
func (b *batcher) stopOnce() {
	b.stopO.Do(func() { close(b.stop) })
}

// newBatcher returns a batcher feeding dispatch from a queue of exactly
// queueDepth tasks; settled is collect's early-close predicate. The caller
// starts it with go b.run(ctx) and stops it with stopOnce once no more tasks
// will be enqueued; run drains every queued task before exiting.
func newBatcher(maxBatch, queueDepth int, maxWait time.Duration, settled func() bool, dispatch func(context.Context, []*solveTask)) *batcher {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	if queueDepth <= 0 {
		queueDepth = DefaultQueueDepth
	}
	if maxWait <= 0 {
		maxWait = DefaultBatchWait
	}
	return &batcher{
		queue:    make(chan *solveTask, queueDepth),
		maxBatch: maxBatch,
		maxWait:  maxWait,
		dispatch: dispatch,
		settled:  settled,
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// enqueue queues t, returning false (shed) when the queue is full. Safe for
// concurrent producers.
func (b *batcher) enqueue(t *solveTask) bool {
	select {
	case b.queue <- t:
		return true
	default:
		return false
	}
}

// nudge is called by a request that can no longer join a round — it parked
// or left. An open round re-checks (the doorbell holds one token; a second
// is redundant); otherwise this is one atomic load.
func (b *batcher) nudge() {
	if b.open.Load() {
		select {
		case b.wake <- struct{}{}:
		default:
		}
	}
}

// tryPop receives a queued task without blocking. Only the dispatch
// goroutine calls it.
func (b *batcher) tryPop() (*solveTask, bool) {
	select {
	case t := <-b.queue:
		return t, true
	default:
		return nil, false
	}
}

// depth reports the number of queued tasks (a monitoring gauge; it races
// with concurrent sends by design).
func (b *batcher) depth() int { return len(b.queue) }

// run is the dispatch loop. It exits after stop is closed and the queue
// has been drained; every accepted task is dispatched exactly once, which
// is what makes graceful drain lossless.
func (b *batcher) run(ctx context.Context) {
	defer close(b.done)
	for {
		select {
		case first := <-b.queue:
			b.dispatch(ctx, b.collect(first))
		case <-b.stop:
			// No enqueue follows stop, and this is the only receiver:
			// whatever is queued still runs.
			for len(b.queue) > 0 {
				b.dispatch(ctx, b.collect(<-b.queue))
			}
			return
		}
	}
}

// collect assembles one round: first plus everything queued behind it,
// until the round fills, the server is settled, the window closes or the
// batcher is stopped. The settled exit is ordered sweep → open → settled? →
// sweep → dispatch: a leader sends before it parks, so a settled server has
// nothing un-sent and the second sweep catches a send that raced the
// first; open is raised before settled is read and a request parks (or
// leaves) before it reads open, so whichever comes second sees the other —
// a round never sleeps through becoming complete (DESIGN §10).
func (b *batcher) collect(first *solveTask) []*solveTask {
	round := []*solveTask{first}
	var window *time.Timer
	defer b.open.Store(false)
	for len(round) < b.maxBatch {
		if t, ok := b.tryPop(); ok {
			round = append(round, t)
			continue
		}
		b.open.Store(true)
		if b.settled() {
			if t, ok := b.tryPop(); ok {
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
		case t := <-b.queue:
			round = append(round, t)
		case <-b.wake:
		case <-window.C:
			return round
		case <-b.stop:
			return round
		}
	}
	return round
}
