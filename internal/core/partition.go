package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"copmecs/internal/lpa"
)

// The worker pool. A job is one dirty component: compress it, then split it
// into at most MaxParts blocks by recursive bisection — pick the heaviest
// splittable block, bisect it, repeat — an inherently sequential greedy whose
// choice depends on the previous split's outcome, so one job is serial at any
// worker count. Parallelism is across jobs, of every graph in the round: a
// job's block and cut lists are a pure function of (component, options), so
// they are the same whichever goroutine computes them.

// runJobs runs every job, recording each component's block, cut lists and
// Lanczos iteration count in its record. Jobs run concurrently up to
// opts.Workers, each goroutine owning one split workspace and pulling the
// next job index.
func runJobs(ctx context.Context, opts Options, jobs []compJob) error {
	workers := max(1, min(opts.Workers, len(jobs)))
	errs := make([]error, workers)
	var next atomic.Int64
	run := func(w int) {
		sc := &splitScratch{}
		for errs[w] == nil {
			k := int(next.Add(1)) - 1
			if k >= len(jobs) {
				return
			}
			errs[w] = runJob(ctx, opts, sc, jobs[k])
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
			return err
		}
	}
	return nil
}

// runJob compresses one component — or, under DisableCompression, presents
// it as the identity block — and cuts the block.
func runJob(ctx context.Context, opts Options, sc *splitScratch, j compJob) error {
	if opts.DisableCompression {
		sc.ensure(j.view.NumNodes())
		j.cs.blk = rawBlock(j.view, j.view.Components()[j.comp], sc.pos)
	} else {
		blk, err := lpa.CompressComponent(j.view, opts.LPA, j.comp)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		j.cs.blk = blk
	}
	if err := partitionJob(ctx, opts.Engine, opts.MaxParts, sc, j.cs); err != nil {
		return fmt.Errorf("core: cut sub-graph: %w", err)
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
