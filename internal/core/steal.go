package core

import "sync"

// stealScheduler is a work-stealing task scheduler for irregular recursive
// workloads: each worker owns a deque it pushes and pops LIFO (depth-first,
// cache-warm), and an idle worker steals FIFO from the opposite end of a
// victim's deque (breadth-first, grabbing the largest pending sub-trees).
// The batch solver uses it to spread the bisection recursion of many
// independent cut jobs across one worker pool — the recursion tree's shape
// is data-dependent, so static job-per-worker splitting leaves workers idle
// whenever one job's tree is deeper than the others'.
//
// Tasks must not block on other scheduled tasks (callers that need a task's
// result wait on their own future from a non-worker goroutine), which keeps
// the scheduler deadlock-free with any worker count ≥ 1.
type stealScheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	deques [][]func()
	next   int // round-robin submit cursor: the number of tasks submitted
	closed bool
	wg     sync.WaitGroup
}

// newStealScheduler starts a scheduler with the given worker count (minimum
// 1). Call close to stop the workers.
func newStealScheduler(workers int) *stealScheduler {
	if workers < 1 {
		workers = 1
	}
	s := &stealScheduler{deques: make([][]func(), workers)}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.worker(w)
	}
	return s
}

// submit enqueues a task. Submissions round-robin across worker deques so
// unrelated jobs spread out even before any stealing happens. Submitting
// after close panics (the task would never run).
func (s *stealScheduler) submit(task func()) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic("core: submit on closed stealScheduler")
	}
	w := s.next % len(s.deques)
	s.next++
	s.deques[w] = append(s.deques[w], task)
	s.mu.Unlock()
	s.cond.Signal()
}

// submitted reports how many tasks have been submitted so far.
func (s *stealScheduler) submitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// close stops the workers after the deques drain and waits for them to exit.
func (s *stealScheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

func (s *stealScheduler) worker(self int) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var task func()
		for {
			// Own deque, LIFO.
			if d := s.deques[self]; len(d) > 0 {
				task = d[len(d)-1]
				d[len(d)-1] = nil
				s.deques[self] = d[:len(d)-1]
				break
			}
			// Steal FIFO, scanning victims from the next worker around.
			for i := 1; i < len(s.deques); i++ {
				v := (self + i) % len(s.deques)
				if d := s.deques[v]; len(d) > 0 {
					task = d[0]
					copy(d, d[1:])
					d[len(d)-1] = nil
					s.deques[v] = d[:len(d)-1]
					break
				}
			}
			if task != nil || s.closed {
				break
			}
			s.cond.Wait()
		}
		s.mu.Unlock()
		if task == nil {
			return
		}
		task()
	}
}
