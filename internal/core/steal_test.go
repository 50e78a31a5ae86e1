package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestStealSchedulerRunsEveryTaskOnce hammers the scheduler from many
// submitting goroutines — including tasks that recursively submit more
// tasks, the batch solver's actual usage — and checks every task ran
// exactly once. Run under -race (CI does) this also shakes out deque
// handoff races between owner pops and steals.
func TestStealSchedulerRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		s := newStealScheduler(workers)
		const (
			submitters = 8
			perSub     = 50
			fanout     = 3 // each top-level task spawns this many children
		)
		total := submitters * perSub * (1 + fanout)
		runs := make([]atomic.Int32, total)
		var done sync.WaitGroup
		done.Add(total)

		var subs sync.WaitGroup
		for g := 0; g < submitters; g++ {
			subs.Add(1)
			go func(g int) {
				defer subs.Done()
				for i := 0; i < perSub; i++ {
					id := (g*perSub + i) * (1 + fanout)
					s.submit(func() {
						runs[id].Add(1)
						// Recursive submission from inside a task, like a
						// bisection spawning its two halves.
						for c := 1; c <= fanout; c++ {
							cid := id + c
							s.submit(func() {
								runs[cid].Add(1)
								done.Done()
							})
						}
						done.Done()
					})
				}
			}(g)
		}
		subs.Wait()
		done.Wait() // every task (including recursive ones) has run
		s.close()

		for id := range runs {
			if n := runs[id].Load(); n != 1 {
				t.Fatalf("workers=%d: task %d ran %d times, want exactly 1", workers, id, n)
			}
		}
	}
}

// TestStealSchedulerCloseDrains checks Close's contract: tasks already
// submitted all run before the workers exit, even when Close races the
// backlog.
func TestStealSchedulerCloseDrains(t *testing.T) {
	s := newStealScheduler(2)
	const n = 1000
	var ran atomic.Int32
	for i := 0; i < n; i++ {
		s.submit(func() { ran.Add(1) })
	}
	s.close() // waits for workers, which drain their deques before exiting
	if got := ran.Load(); got != n {
		t.Fatalf("after Close: %d tasks ran, want %d", got, n)
	}
}

// TestStealSchedulerSubmitAfterClosePanics pins the documented misuse
// behavior: a task submitted after Close would never run, so Submit must
// panic rather than silently drop it.
func TestStealSchedulerSubmitAfterClosePanics(t *testing.T) {
	s := newStealScheduler(1)
	s.close()
	defer func() {
		if recover() == nil {
			t.Fatal("Submit after Close did not panic")
		}
	}()
	s.submit(func() {})
}
