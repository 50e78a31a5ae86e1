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
// outcome, so one job's recursion is serial at any worker count. Parallelism
// is across jobs: a job's cut lists are a pure function of (job, engine,
// MaxParts), so they are the same whichever goroutine computes them.

// cutJobs partitions the compression block of every component dirty names,
// recording each one's cut lists and Lanczos iteration count in comps. Jobs
// are cut concurrently up to opts.Workers, each goroutine owning one split
// workspace and pulling the next job index.
func cutJobs(ctx context.Context, opts Options, dirty []int, comps []compSolveState) error {
	workers := max(1, min(opts.Workers, len(dirty)))
	errs := make([]error, workers)
	var next atomic.Int64
	run := func(w int) {
		sc := &splitScratch{}
		for errs[w] == nil {
			k := int(next.Add(1)) - 1
			if k >= len(dirty) {
				return
			}
			errs[w] = partitionJob(ctx, opts.Engine, opts.MaxParts, sc, &comps[dirty[k]])
		}
	}
	if workers == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				run(w)
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("core: cut sub-graph: %w", err)
		}
	}
	return nil
}

// partitionJob splits cs's compression block into at most k blocks by
// recursive bisection with the given engine: the heaviest divisible block is
// bisected until k blocks exist or nothing can be split further. Blocks are
// local-id slices; a single-node job yields one. The outcome lands in cs.
func partitionJob(ctx context.Context, engine Engine, k int, sc *splitScratch, cs *compSolveState) error {
	blk := cs.blk
	blocks := append(sc.blockSlab(k), sc.identity(len(blk.NodeW)))
	// indivisible never escapes the call, so it lives in scratch.
	if cap(sc.indiv) < k {
		sc.indiv = make([]bool, 0, k)
	}
	indivisible := append(sc.indiv[:0], false)

	for len(blocks) < k {
		// Heaviest splittable block.
		best, bestWork := -1, -1.0
		for bi, block := range blocks {
			if indivisible[bi] || len(block) < 2 {
				continue
			}
			var work float64
			for _, id := range block {
				work += blk.NodeW[id]
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

		sideA, sideB, iters, err := splitBlock(ctx, blk, blocks[best], engine, sc)
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
		// Indices shifted only at the tail; indivisible marks stay valid.
		indivisible = append(indivisible, false)
	}
	cs.cuts = blocks
	return nil
}
