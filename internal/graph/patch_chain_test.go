package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// tableIShaped builds a graph with the node, edge and component counts of
// row (0-based) of the paper's Table I: components of near-equal size, each a
// random spanning tree plus random chords. (netgen imports this package, so
// its generator is out of reach here.)
func tableIShaped(row int, seed int64) *Graph {
	nodes := []int{250, 500, 1000, 2000}[row]
	edges := []int{1214, 2643, 4912, 9578}[row]
	comps := 4 + 2*row
	rng := rand.New(rand.NewSource(seed))
	g := New(nodes)
	for i := 0; i < nodes; i++ {
		must(g.AddNode(NodeID(i), 1+99*rng.Float64()))
	}
	per := nodes / comps
	span := func(ci int) (lo, hi int) {
		if ci == comps-1 {
			return ci * per, nodes
		}
		return ci * per, (ci + 1) * per
	}
	for ci := 0; ci < comps; ci++ {
		lo, hi := span(ci)
		for i := lo + 1; i < hi; i++ {
			must(g.AddEdge(NodeID(lo+rng.Intn(i-lo)), NodeID(i), 1+99*rng.Float64()))
		}
	}
	for g.NumEdges() < edges {
		lo, hi := span(rng.Intn(comps))
		u, v := NodeID(lo+rng.Intn(hi-lo)), NodeID(lo+rng.Intn(hi-lo))
		if _, ok := g.EdgeWeight(u, v); u == v || ok {
			continue
		}
		must(g.AddEdge(u, v, 1+99*rng.Float64()))
	}
	return g
}

// chainDelta draws step's delta against the view c of g. Edge-only kinds
// cycle through the mutate_chain shape (re-weight, remove and add edges
// inside one or two components), a weight-only delta, an edge that merges two
// components and a removal that splits a node off its component; when nodes
// is set every fourth step adds a node and removes another instead.
func chainDelta(rng *rand.Rand, g *Graph, c *CSR, step int, nodes bool) *Delta {
	comps := c.Components()
	member := func(ci int) NodeID { return c.IDOf(comps[ci][rng.Intn(len(comps[ci]))]) }
	d := &Delta{}
	switch kind := step % 4; {
	case nodes && kind == 3:
		fresh := NodeID(1_000_000 + step)
		anchor, gone := member(rng.Intn(len(comps))), member(rng.Intn(len(comps)))
		d.AddNodes = []NodeDelta{{ID: fresh, Weight: 5}}
		d.SetEdges = []EdgeDelta{{U: fresh, V: anchor, Weight: 2}}
		if gone != anchor {
			d.RemoveNodes = []NodeID{gone}
		}
	case kind == 0:
		in := []int{rng.Intn(len(comps)), rng.Intn(len(comps))}
		if in[0] == in[1] {
			in = in[:1]
		}
		used := map[[2]NodeID]bool{}
		for _, ci := range in {
			for k := 0; k < 12; k++ {
				u := member(ci)
				nbr := g.Neighbors(u)
				if len(nbr) == 0 {
					continue
				}
				v := nbr[rng.Intn(len(nbr))]
				if used[[2]NodeID{min(u, v), max(u, v)}] {
					continue
				}
				used[[2]NodeID{min(u, v), max(u, v)}] = true
				if k%3 == 0 {
					d.RemoveEdges = append(d.RemoveEdges, EdgePair{U: u, V: v})
				} else {
					d.SetEdges = append(d.SetEdges, EdgeDelta{U: u, V: v, Weight: 1 + 99*rng.Float64()})
				}
			}
			for k := 0; k < 4; k++ {
				u, v := member(ci), member(ci)
				if _, ok := g.EdgeWeight(u, v); u == v || ok || used[[2]NodeID{min(u, v), max(u, v)}] {
					continue
				}
				used[[2]NodeID{min(u, v), max(u, v)}] = true
				d.SetEdges = append(d.SetEdges, EdgeDelta{U: u, V: v, Weight: 1 + 99*rng.Float64()})
			}
		}
	case kind == 1:
		for k := 0; k < 3; k++ {
			d.SetNodeWeights = append(d.SetNodeWeights, NodeDelta{ID: member(rng.Intn(len(comps))), Weight: 99 * rng.Float64()})
		}
	case kind == 2 && len(comps) > 1:
		a := rng.Intn(len(comps))
		b := (a + 1 + rng.Intn(len(comps)-1)) % len(comps)
		d.SetEdges = []EdgeDelta{{U: member(a), V: member(b), Weight: 3}}
	default:
		u := member(rng.Intn(len(comps)))
		for _, v := range g.Neighbors(u) {
			d.RemoveEdges = append(d.RemoveEdges, EdgePair{U: u, V: v})
		}
	}
	return d
}

// sameRowStorage reports whether node i of a and node k of b read their rows
// from the same backing array (vacuously true for an empty row).
func sameRowStorage(a *CSR, i int32, b *CSR, k int32) bool {
	at, aw := a.Adj(i)
	bt, bw := b.Adj(k)
	return len(at) == 0 || (len(bt) == len(at) && &at[0] == &bt[0] && &aw[0] == &bw[0])
}

// TestPatchChainsShareCleanRowsAndShedTheOriginal walks depth-16 lineages of
// patched views. Every step must equal Compile of the applied graph and keep
// PatchInfo's clean-component contract; a clean component must read its rows
// from its source's storage; and once every component of a lineage has been
// re-derived, no row of the head may still sit in the compiled original's.
func TestPatchChainsShareCleanRowsAndShedTheOriginal(t *testing.T) {
	for row := 0; row < 4; row++ {
		for _, nodes := range []bool{false, true} {
			t.Run(fmt.Sprintf("row%d/nodes=%v", row, nodes), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(31*row + 7)))
				g := tableIShaped(row, int64(row+1))
				original := g.Compile()
				head := original
				patch := func(d *Delta) *PatchInfo {
					t.Helper()
					if err := d.Apply(g); err != nil {
						t.Fatalf("apply: %v", err)
					}
					src := head
					next, info, err := src.Patch(d)
					if err != nil {
						t.Fatalf("patch: %v", err)
					}
					if err := next.Validate(); err != nil {
						t.Fatalf("validate: %v", err)
					}
					if !csrIdentical(t, next, g.Compile()) {
						t.Fatal("patched view diverges from Compile of the applied graph")
					}
					fingerprintsAgree(t, next, g)
					for nc, oc := range info.OldCompOf {
						if oc < 0 {
							continue
						}
						if !cleanCompAligned(src, next, info, nc, oc) {
							t.Fatalf("clean component %d misaligned with old %d", nc, oc)
						}
						if info.NewToOld != nil {
							continue // every index shifted: nothing can be shared
						}
						for _, m := range next.comps[nc] {
							if !sameRowStorage(next, m, src, m) {
								t.Fatalf("clean component %d: row %d was copied, not shared", nc, m)
							}
						}
					}
					head = next
					return info
				}
				shared := 0
				for step := 0; step < 16; step++ {
					info := patch(chainDelta(rng, g, head, step, nodes))
					for _, oc := range info.OldCompOf {
						if oc >= 0 {
							shared++
						}
					}
				}
				if shared == 0 {
					t.Fatal("no step left a component clean; the sharing assertions never ran")
				}

				// Touch every component once more, then look for the original.
				sweep := &Delta{}
				for _, comp := range head.comps {
					id := head.IDOf(comp[0])
					w, _ := g.NodeWeight(id)
					sweep.SetNodeWeights = append(sweep.SetNodeWeights, NodeDelta{ID: id, Weight: w + 1})
				}
				for _, oc := range patch(sweep).OldCompOf {
					if oc >= 0 {
						t.Fatal("sweep delta left a component clean")
					}
				}
				for i := int32(0); i < int32(head.NumNodes()); i++ {
					k := original.IndexOf(head.IDOf(i))
					if k >= 0 && head.Degree(i) > 0 && sameRowStorage(head, i, original, k) {
						t.Fatalf("row of node %d still reads the compiled original's storage", head.IDOf(i))
					}
				}
				for _, s := range head.slabs {
					if s == original.slabs[0] {
						t.Fatal("head still references the compiled original's slab")
					}
				}
			})
		}
	}
}
