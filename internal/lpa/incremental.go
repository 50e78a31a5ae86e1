package lpa

import (
	"fmt"

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
// A carried-over component keeps prev's Block as it is: compression is a pure
// function of component-internal structure and relative node order, and a
// block names members by position, so it is bitwise the block a cold run
// would recompute. The flat arrays are then concatenated from carried and
// recomputed blocks alike, which makes the result bit-for-bit identical to
// CompressCSR(c, opts); the package property tests assert it. Blocks carry
// only between runs under equal options (Workers aside): when opts differ
// from the options prev was computed under, every component is recomputed.
func CompressCSRIncremental(c *graph.CSR, opts Options, prev *CSRResult, oldCompOf []int32) (*CSRResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	comps := c.Components()
	if oldCompOf != nil && len(oldCompOf) != len(comps) {
		return nil, fmt.Errorf("lpa: oldCompOf has %d entries for %d components", len(oldCompOf), len(comps))
	}
	key := opts
	key.Workers = 0
	if prev != nil && prev.opts != key {
		oldCompOf = nil
	}

	blocks := make([]*Block, len(comps))
	dirty := make([]int, 0, len(comps))
	for i := range comps {
		if oldCompOf == nil || oldCompOf[i] < 0 {
			dirty = append(dirty, i)
			continue
		}
		oc := oldCompOf[i]
		if prev == nil {
			return nil, fmt.Errorf("lpa: component %d carried over without a previous result", i)
		}
		if int(oc) >= len(prev.blocks) || len(prev.blocks[oc].Members) != len(comps[i]) {
			return nil, fmt.Errorf("lpa: component %d does not align with previous component %d", i, oc)
		}
		blocks[i] = prev.blocks[oc]
	}
	fresh, err := CompressComponents(c, opts, dirty)
	if err != nil {
		return nil, err
	}
	for k, i := range dirty {
		blocks[i] = fresh[k]
	}
	return flatten(c, key, blocks), nil
}
