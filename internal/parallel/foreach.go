// Package parallel is the repo's Apache-Spark substitute: the paper runs its
// Laplacian eigencomputations "using Spark framework which can significantly
// reduce the computing time" (§III-B) and reports the parallel variant in
// Fig. 9. Everything here runs inside one process, on goroutines:
//
//   - StealScheduler spreads the bisection recursion of many cut jobs over
//     one set of workers (the cut stage's Options.Workers);
//   - MatVecOperator computes a Lanczos matrix-vector product by row blocks
//     (SpectralEngine.MatVecWorkers), on top of ForEach.
//
// Together they are the "ours-parallel" series of Fig. 9.
package parallel

import (
	"runtime"
	"sync"
)

// ForEach runs fn(i) for i in [0, n) on at most workers goroutines (≤ 0
// means GOMAXPROCS) and returns the first error; indices not yet started
// when an error is recorded are skipped.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if firstErr != nil || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
