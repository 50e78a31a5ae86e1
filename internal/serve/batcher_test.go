package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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
	b := newBatcher(maxBatch, 64, wait, neverSettled, func(_ context.Context, round []*solveTask) {
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
	b := newBatcher(4, 64, time.Hour /* window must not matter */, neverSettled, func(_ context.Context, round []*solveTask) {
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

func TestBatcherConcurrentProducers(t *testing.T) {
	// Eight producers race enqueue against a running dispatch loop: every
	// accepted task is dispatched exactly once and each producer's tasks
	// leave in the order it sent them. Then stop lands while a dispatch is
	// held and tasks are queued behind it: all of them run before done.
	const producers, perProducer = 8, 1000
	var got []*solveTask // written by the dispatch goroutine, read after done
	var hold atomic.Bool
	held, gate := make(chan struct{}), make(chan struct{})
	b := newBatcher(16, 64, time.Millisecond, func() bool { return true }, func(_ context.Context, round []*solveTask) {
		if hold.Load() {
			held <- struct{}{}
			<-gate
		}
		got = append(got, round...)
	})
	go b.run(context.Background())

	var accepted, shed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if b.enqueue(&solveTask{p: newPending(fmt.Sprintf("%d/%d", p, i))}) {
					accepted.Add(1)
				} else {
					shed.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()
	if a, s := accepted.Load(), shed.Load(); a == 0 || a+s != producers*perProducer {
		t.Fatalf("accepted %d + shed %d, want %d offered and some accepted", a, s, producers*perProducer)
	}

	for b.depth() > 0 { // the loop is still working through the burst
		runtime.Gosched()
	}
	hold.Store(true)
	for i := 0; i < 6; i++ { // one dispatch is held, at least five tasks queue behind it
		if !b.enqueue(&solveTask{p: newPending(fmt.Sprintf("%d/%d", producers, i))}) {
			t.Fatalf("tail task %d shed with queue headroom", i)
		}
		if i == 0 {
			<-held
			hold.Store(false)
		}
	}
	accepted.Add(6)
	b.stopOnce()
	close(gate)
	select {
	case <-b.done:
	case <-time.After(5 * time.Second):
		t.Fatal("batcher did not exit after stop")
	}

	if int64(len(got)) != accepted.Load() {
		t.Fatalf("dispatched %d of %d accepted tasks", len(got), accepted.Load())
	}
	next := make([]int, producers+1) // lowest sequence number not yet seen
	for _, task := range got {
		var p, i int
		if _, err := fmt.Sscanf(task.p.key, "%d/%d", &p, &i); err != nil {
			t.Fatalf("task key %q: %v", task.p.key, err)
		}
		if i < next[p] {
			t.Fatalf("producer %d: task %d dispatched after task %d", p, i, next[p]-1)
		}
		next[p] = i + 1
	}
}

func TestBatcherStopOnceIdempotent(t *testing.T) {
	b := newBatcher(1, 1, time.Millisecond, neverSettled, func(context.Context, []*solveTask) {})
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
