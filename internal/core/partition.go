package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// The cut stage. Each job is split into at most MaxParts blocks by recursive
// bisection: pick the heaviest splittable block, bisect it, repeat — an
// inherently sequential greedy whose choice depends on the previous split's
// outcome. With one worker the loop runs inline, job after job. With more,
// the greedy loop stays serial per job (one cheap driver goroutine replaying
// the exact selection order) but the expensive part — the bisections
// themselves — runs as speculative tasks on a shared work-stealing pool:
// every block that could be selected next has its split already in flight.
// splitBlock is a pure function of (job, block, engine), so a speculative
// result is the result the serial loop would have computed, and the replayed
// selection sequence — and with it the final block list — is identical
// regardless of worker count or steal order. Splits speculated for blocks
// the greedy never picks are cancelled (unstarted tasks become no-ops); at
// worst they cost wasted cycles, never a different answer.

// cutJobs partitions the jobs — jobs[k] is component dirty[k] — recording
// each one's cut lists and Lanczos iteration count in comps.
func cutJobs(ctx context.Context, opts Options, jobs []csrJob, dirty []int, comps []compSolveState) error {
	if opts.Workers > 1 {
		sp := newSpeculation(opts.Workers)
		defer sp.sched.close()
		return sp.cutJobs(ctx, opts, jobs, dirty, comps)
	}
	// One split workspace across every job of the run.
	sc := &splitScratch{}
	for k, i := range dirty {
		if err := partitionJob(ctx, &jobs[k], opts.Engine, opts.MaxParts, sc, nil, &comps[i]); err != nil {
			return fmt.Errorf("core: cut sub-graph: %w", err)
		}
	}
	return nil
}

// speculation is the shared machinery of a parallel cut stage: the
// work-stealing pool the bisections run on and the scratch they draw from.
type speculation struct {
	sched   *stealScheduler
	scratch sync.Pool
}

func newSpeculation(workers int) *speculation {
	sp := &speculation{sched: newStealScheduler(workers)}
	sp.scratch.New = func() any { return new(splitScratch) }
	return sp
}

// cutJobs is the parallel cut stage: one driver goroutine per job, every
// bisection a task on the pool. It returns once every driver has.
func (sp *speculation) cutJobs(ctx context.Context, opts Options, jobs []csrJob, dirty []int, comps []compSolveState) error {
	errs := make([]error, len(dirty))
	var wg sync.WaitGroup
	for k, i := range dirty {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			sc := sp.scratch.Get().(*splitScratch)
			errs[k] = partitionJob(ctx, &jobs[k], opts.Engine, opts.MaxParts, sc, sp, &comps[i])
			sp.scratch.Put(sc)
		}(k, i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("core: cut sub-graph: %w", err)
		}
	}
	return nil
}

// splitTask is one speculative bisection: the future its driver awaits.
type splitTask struct {
	state atomic.Int32 // splitPending → splitRunning | splitCancelled
	done  chan struct{}
	sideA []int32
	sideB []int32
	iters int
	err   error
}

const (
	splitPending int32 = iota
	splitRunning
	splitCancelled
)

// spawn starts the bisection of block on the pool. Blocks of fewer than two
// nodes are never selected for splitting and get no task.
func (sp *speculation) spawn(ctx context.Context, j *csrJob, block []int32, engine Engine) *splitTask {
	if len(block) < 2 {
		return nil
	}
	t := &splitTask{done: make(chan struct{})}
	sp.sched.submit(func() {
		if !t.state.CompareAndSwap(splitPending, splitRunning) {
			return // cancelled before a worker picked it up
		}
		sc := sp.scratch.Get().(*splitScratch)
		t.sideA, t.sideB, t.iters, t.err = splitBlock(ctx, j, block, engine, sc)
		sp.scratch.Put(sc)
		close(t.done)
	})
	return t
}

// cancel turns a task no worker has started into a no-op.
func (t *splitTask) cancel() {
	if t != nil {
		t.state.CompareAndSwap(splitPending, splitCancelled)
	}
}

// partitionJob splits j into at most k blocks by recursive bisection with the
// given engine: the heaviest divisible block is bisected until k blocks exist
// or nothing can be split further. Blocks are local-id slices; a single-node
// job yields one. The spectral engine runs CSR-native on an induced block
// view; every other engine gets a materialised sub-graph. With sp nil each
// bisection runs inline; otherwise it is awaited from a speculative task on
// sp's pool. The outcome lands in cs.
func partitionJob(ctx context.Context, j *csrJob, engine Engine, k int, sc *splitScratch, sp *speculation, cs *compSolveState) error {
	blocks := append(sc.blockSlab(k), sc.identity(j.n()))
	// indivisible never escapes the call, so it lives in scratch.
	if cap(sc.indiv) < k {
		sc.indiv = make([]bool, 0, k)
	}
	indivisible := append(sc.indiv[:0], false)
	// tasks[bi] is the in-flight split of blocks[bi] (parallel mode only).
	var tasks []*splitTask
	if sp != nil {
		tasks = append(make([]*splitTask, 0, k), sp.spawn(ctx, j, blocks[0], engine))
		// Speculations the greedy never consumed.
		defer func() {
			for _, t := range tasks {
				t.cancel()
			}
		}()
	}

	for len(blocks) < k {
		// Heaviest splittable block.
		best, bestWork := -1, -1.0
		for bi, block := range blocks {
			if indivisible[bi] || len(block) < 2 {
				continue
			}
			var work float64
			for _, id := range block {
				work += j.blk.NodeW[id]
			}
			if work > bestWork {
				best, bestWork = bi, work
			}
		}
		if best < 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}

		var (
			sideA, sideB []int32
			iters        int
			err          error
		)
		if sp == nil {
			sideA, sideB, iters, err = splitBlock(ctx, j, blocks[best], engine, sc)
		} else {
			t := tasks[best]
			<-t.done
			sideA, sideB, iters, err = t.sideA, t.sideB, t.iters, t.err
		}
		if err != nil {
			return err
		}
		cs.iters += iters
		if len(sideA) == 0 || len(sideB) == 0 {
			indivisible[best] = true
			continue
		}
		blocks[best] = sideA
		blocks = append(blocks, sideB)
		indivisible = append(indivisible, false)
		// Indices shifted only at the tail; indivisible marks stay valid.
		if sp != nil {
			// Speculate on the children only while the greedy can still
			// consume another split: the split that completes the k-th
			// block — every split at the default MaxParts of 2 — has none.
			var ta, tb *splitTask
			if len(blocks) < k {
				ta, tb = sp.spawn(ctx, j, sideA, engine), sp.spawn(ctx, j, sideB, engine)
			}
			tasks[best] = ta
			tasks = append(tasks, tb)
		}
	}
	cs.cuts = blocks
	return nil
}
