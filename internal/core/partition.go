package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"copmecs/internal/lpa"
)

// The worker pool. A round runs in phases — compile, compress and cut,
// assembly, finish — each a set of independent units on one pool of up to
// Options.Workers goroutines, with a barrier between phases. A unit writes
// only its own slot and reads only what was frozen before its phase began,
// so every output is the same whichever goroutine ran which unit.
//
// The compress-and-cut unit is one dirty component: compress it, then split
// it into at most MaxParts blocks by recursive bisection — pick the heaviest
// splittable block, bisect it, repeat — an inherently sequential greedy
// whose choice depends on the previous split's outcome, so one component is
// serial at any worker count.

// parallelFor runs f(w, i) for every i in [0, n) on min(workers, n)
// goroutines, each pulling the next index; w numbers the goroutine, so f can
// keep per-worker scratch in a slice indexed by it. With one, the units run
// inline on the caller, in order, and the first error returns. Otherwise a
// goroutine stops at its first error, and the lowest-numbered failing
// goroutine's error is returned.
func parallelFor(workers, n int, f func(w, i int) error) error {
	workers = poolSize(workers, n)
	if workers == 1 {
		for i := range n {
			if err := f(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for errs[w] == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[w] = f(w, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// poolSize is the number of goroutines parallelFor runs n units on: the
// length of a phase's per-worker scratch slice.
func poolSize(workers, n int) int { return max(1, min(workers, n)) }

// runJobs runs every job, recording each component's block, cut lists and
// Lanczos iteration count in its record, each worker owning one split
// workspace.
func runJobs(ctx context.Context, opts Options, jobs []compJob) error {
	scs := make([]splitScratch, poolSize(opts.Workers, len(jobs)))
	return parallelFor(opts.Workers, len(jobs), func(w, k int) error {
		return runJob(ctx, opts, &scs[w], jobs[k])
	})
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
