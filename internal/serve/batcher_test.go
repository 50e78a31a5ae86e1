package serve

import (
	"context"
	"sync"
	"testing"
	"time"
)

// neverSettled is the early-close predicate of a server that always holds
// a request still on its way to the queue: rounds close by window, size or
// stop only.
func neverSettled() bool { return false }

// collectRounds runs a batcher whose dispatch records every round, feeds it
// tasks via feed, stops it, and returns the rounds in dispatch order.
func collectRounds(t *testing.T, maxBatch int, wait time.Duration, feed func(b *batcher)) [][]*solveTask {
	t.Helper()
	var mu sync.Mutex
	var rounds [][]*solveTask
	b := newBatcher(maxBatch, 64, 1, wait, neverSettled, func(_ context.Context, round []*solveTask) {
		mu.Lock()
		rounds = append(rounds, round)
		mu.Unlock()
	})
	feed(b)
	go b.run(context.Background())
	// Let the loop drain the queue, then stop and wait for exit.
	deadline := time.After(5 * time.Second)
	for {
		if b.depth() == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("batcher did not drain its queue")
		case <-time.After(time.Millisecond):
		}
	}
	time.Sleep(5 * wait) // let an open window close
	b.stopOnce()
	select {
	case <-b.done:
	case <-time.After(5 * time.Second):
		t.Fatal("batcher did not exit after stop")
	}
	mu.Lock()
	defer mu.Unlock()
	return rounds
}

func TestBatcherCoalescesCoArrivals(t *testing.T) {
	tasks := make([]*solveTask, 5)
	for i := range tasks {
		tasks[i] = &solveTask{p: newPending(string(rune('a' + i)))}
	}
	rounds := collectRounds(t, 16, 50*time.Millisecond, func(b *batcher) {
		for _, task := range tasks {
			if !b.enqueue(task) {
				t.Fatal("enqueue rejected a task with queue headroom")
			}
		}
	})
	if len(rounds) != 1 {
		t.Fatalf("rounds = %d, want 1 (co-arrivals should coalesce)", len(rounds))
	}
	if len(rounds[0]) != len(tasks) {
		t.Fatalf("round size = %d, want %d", len(rounds[0]), len(tasks))
	}
}

func TestBatcherRespectsMaxBatch(t *testing.T) {
	const n, maxBatch = 10, 4
	rounds := collectRounds(t, maxBatch, 20*time.Millisecond, func(b *batcher) {
		for i := 0; i < n; i++ {
			if !b.enqueue(&solveTask{p: newPending(string(rune('a' + i)))}) {
				t.Fatal("enqueue rejected a task with queue headroom")
			}
		}
	})
	total := 0
	for _, r := range rounds {
		if len(r) > maxBatch {
			t.Fatalf("round of %d users exceeds maxBatch %d", len(r), maxBatch)
		}
		total += len(r)
	}
	if total != n {
		t.Fatalf("dispatched %d tasks, want %d", total, n)
	}
	if len(rounds) < n/maxBatch {
		t.Fatalf("rounds = %d, want ≥ %d", len(rounds), n/maxBatch)
	}
}

func TestBatcherDrainIsLossless(t *testing.T) {
	// Stop the batcher before it ever runs: run() must still dispatch
	// everything queued, in maxBatch-bounded rounds.
	var mu sync.Mutex
	var dispatched int
	b := newBatcher(4, 64, 1, time.Hour /* window must not matter */, neverSettled, func(_ context.Context, round []*solveTask) {
		mu.Lock()
		dispatched += len(round)
		mu.Unlock()
	})
	const n = 11
	for i := 0; i < n; i++ {
		if !b.enqueue(&solveTask{p: newPending(string(rune('a' + i)))}) {
			t.Fatal("enqueue rejected a task with queue headroom")
		}
	}
	b.stopOnce()
	go b.run(context.Background())
	select {
	case <-b.done:
	case <-time.After(5 * time.Second):
		t.Fatal("batcher did not exit after stop")
	}
	mu.Lock()
	defer mu.Unlock()
	if dispatched != n {
		t.Fatalf("drain dispatched %d of %d queued tasks", dispatched, n)
	}
}

func TestBatcherStopOnceIdempotent(t *testing.T) {
	b := newBatcher(1, 1, 1, time.Millisecond, neverSettled, func(context.Context, []*solveTask) {})
	go b.run(context.Background())
	b.stopOnce()
	b.stopOnce() // must not panic on double close
	select {
	case <-b.done:
	case <-time.After(5 * time.Second):
		t.Fatal("batcher did not exit")
	}
}

func TestPendingMultiplicity(t *testing.T) {
	p := newPending("k")
	if got := p.mult.Load(); got != 1 {
		t.Fatalf("fresh pending multiplicity = %d, want 1", got)
	}
	p.mult.Add(1)
	p.mult.Add(1)
	if got := p.mult.Load(); got != 3 {
		t.Fatalf("multiplicity = %d, want 3", got)
	}
}
