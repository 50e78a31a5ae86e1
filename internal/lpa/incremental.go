package lpa

import (
	"fmt"
	"sync"

	"copmecs/internal/graph"
)

// CompressCSRIncremental compresses a view, re-running label propagation and
// contraction only for the components that have no identical predecessor.
// prev is the compression of the pre-patch view (its Input); oldCompOf maps
// each component of c to the prev component with identical content
// (graph.PatchInfo.OldCompOf), or -1 for a touched component that must be
// recomputed. A nil oldCompOf recomputes every component — the cold pass
// CompressCSR runs.
//
// For a carried-over component the per-component outcome is reconstructed
// from prev's assembled arrays — labels and local super ids copied through
// the position-aligned member lists, super weights aliased from prev.NodeW,
// contracted pairs re-read from prev's rows — all of which are bitwise the
// values a cold run would recompute, because compression is a pure function
// of component-internal structure and relative node order. Feeding those
// outcomes through the same assembly stage as recomputed ones therefore
// yields a result bit-for-bit identical to CompressCSR(c, opts), asserted by
// the package property tests. opts must equal the options of the prev run;
// differing options change per-component outcomes and void the reuse.
func CompressCSRIncremental(c *graph.CSR, opts Options, prev *CSRResult, oldCompOf []int32) (*CSRResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	comps := c.Components()
	if oldCompOf != nil && len(oldCompOf) != len(comps) {
		return nil, fmt.Errorf("lpa: oldCompOf has %d entries for %d components", len(oldCompOf), len(comps))
	}
	n := c.NumNodes()
	res := &CSRResult{
		Input:       c,
		Labels:      make([]int32, n),
		SuperOf:     make([]int32, n),
		CompOff:     make([]int32, len(comps)+1),
		Rounds:      make([]int, len(comps)),
		Thresholds:  make([]float64, len(comps)),
		NodesBefore: n,
		EdgesBefore: c.NumEdges(),
	}
	outs := make([]compOut, len(comps))

	dirty := make([]int, 0, len(comps))
	for i := range comps {
		if oldCompOf == nil || oldCompOf[i] < 0 {
			dirty = append(dirty, i)
			continue
		}
		oc := oldCompOf[i]
		if prev == nil || prev.Input == nil {
			return nil, fmt.Errorf("lpa: component %d carried over without a previous result", i)
		}
		oldComps := prev.Input.Components()
		if oc >= int32(len(oldComps)) || len(oldComps[oc]) != len(comps[i]) {
			return nil, fmt.Errorf("lpa: component %d does not align with previous component %d", i, oc)
		}
		reuseComponent(res, prev, comps[i], oldComps[oc], oc, &outs[i])
	}

	run := func(i int) {
		s := compressScratchPool.Get().(*compressScratch)
		s.ensure(n)
		outs[i] = compressComponentCSR(c, comps[i], opts, res.Labels, res.SuperOf, s)
		compressScratchPool.Put(s)
	}
	if opts.Workers == 1 || len(dirty) < 2 {
		for _, i := range dirty {
			run(i)
		}
	} else {
		sem := make(chan struct{}, opts.Workers)
		var wg sync.WaitGroup
		for _, i := range dirty {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				run(i)
			}(i)
		}
		wg.Wait()
	}

	assembleCSRResult(res, comps, outs)
	return res, nil
}

// reuseComponent reconstructs one carried-over component's compression
// outcome from the previous assembled result. newComp and oldComp are the
// position-aligned member lists (new and old node indices of the same
// nodes); oc is the old component id.
func reuseComponent(res *CSRResult, prev *CSRResult, newComp, oldComp []int32, oc int32, out *compOut) {
	lo, hi := prev.CompOff[oc], prev.CompOff[oc+1]
	for j, u := range newComp {
		ou := oldComp[j]
		res.Labels[u] = prev.Labels[ou]
		res.SuperOf[u] = prev.SuperOf[ou] - lo // local; assembly rebases
	}
	out.k = int(hi - lo)
	out.rounds = prev.Rounds[oc]
	out.threshold = prev.Thresholds[oc]
	out.superW = prev.NodeW[lo:hi:hi] // immutable; assembly copies
	pairs := 0
	for a := lo; a < hi; a++ {
		for _, b := range prev.Tgt[prev.Off[a]:prev.Off[a+1]] {
			if b > a {
				pairs++
			}
		}
	}
	// Row-major (a ascending, b ascending with b > a) reproduces the sorted
	// pair order compressComponentCSR emits, with the already-accumulated
	// weights read back bit-identically.
	out.pairs = make([]superEdge, 0, pairs)
	for a := lo; a < hi; a++ {
		row := prev.Tgt[prev.Off[a]:prev.Off[a+1]]
		w := prev.W[prev.Off[a]:prev.Off[a+1]]
		for k, b := range row {
			if b > a {
				out.pairs = append(out.pairs, superEdge{a: a - lo, b: b - lo, w: w[k]})
			}
		}
	}
}
