package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"copmecs/internal/graph"
	"copmecs/internal/netgen"
)

// carryDelta draws a lineage step against g: edge churn — re-weights, a
// removal, an insertion — inside one or two components of view. With nodes
// set it also attaches a new node to a member (even steps) or removes one
// (odd steps), so every index after it shifts.
func carryDelta(rng *rand.Rand, g *graph.Graph, view *graph.CSR, step int, nodes bool) *graph.Delta {
	d := &graph.Delta{}
	comps := view.Components()
	picked := []int{rng.Intn(len(comps))}
	if ci := rng.Intn(len(comps)); rng.Intn(2) == 1 && ci != picked[0] {
		picked = append(picked, ci)
	}
	for _, ci := range picked {
		comp := comps[ci]
		var edges []graph.EdgePair
		for _, u := range comp {
			tgt, _ := view.Adj(u)
			for _, v := range tgt {
				if v > u {
					edges = append(edges, graph.EdgePair{U: view.IDOf(u), V: view.IDOf(v)})
				}
			}
		}
		rng.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
		for k, e := range edges[:min(len(edges), 4)] {
			if k == 3 {
				d.RemoveEdges = append(d.RemoveEdges, e)
			} else {
				d.SetEdges = append(d.SetEdges, graph.EdgeDelta{U: e.U, V: e.V, Weight: 1 + 99*rng.Float64()})
			}
		}
		if len(comp) > 2 {
			u, v := view.IDOf(comp[rng.Intn(len(comp))]), view.IDOf(comp[rng.Intn(len(comp))])
			if _, exists := g.EdgeWeight(u, v); u != v && !exists {
				d.SetEdges = append(d.SetEdges, graph.EdgeDelta{U: u, V: v, Weight: 1 + 99*rng.Float64()})
			}
		}
	}
	if nodes {
		comp := comps[picked[0]]
		if step%2 == 0 {
			id := graph.NodeID(700000 + step)
			d.AddNodes = append(d.AddNodes, graph.NodeDelta{ID: id, Weight: 5 + 50*rng.Float64()})
			d.SetEdges = append(d.SetEdges, graph.EdgeDelta{U: id, V: view.IDOf(comp[0]), Weight: 7})
		} else if len(comp) > 8 {
			// Not an endpoint of an edge this delta sets or removes.
			gone := view.IDOf(comp[len(comp)/2])
			touched := false
			for _, e := range d.SetEdges {
				touched = touched || e.U == gone || e.V == gone
			}
			for _, e := range d.RemoveEdges {
				touched = touched || e.U == gone || e.V == gone
			}
			if !touched {
				d.RemoveNodes = append(d.RemoveNodes, gone)
			}
		}
	}
	return d
}

// recordArrays lists the backing arrays of one component's record: the
// block, the cut header list and every cut list, the template group and
// every template's node and index lists.
func recordArrays(cs *compSolveState) []any {
	out := []any{cs.blk, &cs.cuts[0], &cs.protos[0]}
	for _, cut := range cs.cuts {
		out = append(out, &cut[0])
	}
	for i := range cs.protos {
		out = append(out, &cs.protos[i].nodes[0], &cs.protos[i].idx[0])
	}
	return out
}

// TestDeltaChainCarriesCleanComponents walks depth-16 SolveDelta lineages on
// Table I graphs. At every step a clean component's record must be the
// predecessor's own — block, cut lists and, while no index shifts, templates,
// by pointer — a dirty component's must share nothing with any record of the
// predecessor, and the solution must equal a cold Solve of the mutated graph.
// Once every component has been re-derived, the head may reference nothing
// the cold capture allocated. The nodes case adds and removes nodes along
// the way: indices shift, so clean components keep block and cuts and get
// their templates re-expanded.
func TestDeltaChainCarriesCleanComponents(t *testing.T) {
	ctx := context.Background()
	for _, row := range []int{1, 2, 3} {
		for _, nodes := range []bool{false, true} {
			t.Run(fmt.Sprintf("row%d/nodes=%v", row, nodes), func(t *testing.T) {
				cfg, err := netgen.TableIConfig(row, int64(row))
				if err != nil {
					t.Fatal(err)
				}
				g, err := netgen.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(17*row + 3)))
				sess := NewSession(Options{})
				users := []UserInput{{}}
				g, _, ds, err := sess.SolveDelta(ctx, g, &graph.Delta{}, users, DeltaOptions{})
				if err != nil || !ds.ColdFallback {
					t.Fatalf("cold capture: err %v, stats %+v", err, ds)
				}
				cold := map[any]bool{}
				for i := range sess.lookup(g).comps {
					for _, p := range recordArrays(&sess.lookup(g).comps[i]) {
						cold[p] = true
					}
				}

				carried, reexpanded := 0, 0
				step := func(d *graph.Delta) {
					t.Helper()
					prev := sess.lookup(g)
					_, info, err := prev.view.Patch(d)
					if err != nil {
						t.Fatalf("patch: %v", err)
					}
					next, sol, ds, err := sess.SolveDelta(ctx, g, d, users, DeltaOptions{})
					if err != nil || !ds.Incremental {
						t.Fatalf("solve delta: err %v, stats %+v", err, ds)
					}
					want, err := Solve(ctx, []UserInput{{Graph: next}}, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if !solutionsIdentical(t, sol, want) {
						t.Fatal("lineage head diverges from a cold Solve of the mutated graph")
					}
					st := sess.lookup(next)
					old := map[any]bool{}
					for i := range prev.comps {
						for _, p := range recordArrays(&prev.comps[i]) {
							old[p] = true
						}
					}
					for i, oc := range info.OldCompOf {
						cs := &st.comps[i]
						if oc < 0 {
							for _, p := range recordArrays(cs) {
								if old[p] {
									t.Fatalf("dirty component %d shares %T with the predecessor", i, p)
								}
							}
							continue
						}
						ps := &prev.comps[oc]
						if cs.blk != ps.blk || &cs.cuts[0] != &ps.cuts[0] || cs.iters != ps.iters {
							t.Fatalf("clean component %d: block or cuts rebuilt, not carried", i)
						}
						for k := range cs.cuts {
							if &cs.cuts[k][0] != &ps.cuts[k][0] {
								t.Fatalf("clean component %d: cut list %d copied, not carried", i, k)
							}
						}
						if shifted := info.NewToOld != nil; (&cs.protos[0] == &ps.protos[0]) == shifted {
							t.Fatalf("clean component %d: templates carried = %v with indices shifted = %v", i, !shifted, shifted)
						} else if shifted {
							reexpanded++
						} else {
							carried++
						}
					}
					g = next
				}
				for k := 0; k < 16; k++ {
					step(carryDelta(rng, g, sess.lookup(g).view, k/4, nodes && k%4 == 3))
				}
				if carried == 0 || (nodes && reexpanded == 0) {
					t.Fatalf("%d components carried whole, %d re-expanded: the sharing assertions never ran", carried, reexpanded)
				}

				// Touch every component once more, then look for the cold capture.
				sweep := &graph.Delta{}
				view := sess.lookup(g).view
				for _, comp := range view.Components() {
					id := view.IDOf(comp[0])
					w, _ := g.NodeWeight(id)
					sweep.SetNodeWeights = append(sweep.SetNodeWeights, graph.NodeDelta{ID: id, Weight: w + 1})
				}
				step(sweep)
				head := sess.lookup(g)
				for i := range head.comps {
					for _, p := range recordArrays(&head.comps[i]) {
						if cold[p] {
							t.Fatalf("component %d of the head still references the cold capture's %T", i, p)
						}
					}
				}
			})
		}
	}
}
