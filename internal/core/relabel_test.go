package core

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"copmecs/internal/graph"
	"copmecs/internal/mec"
	"copmecs/internal/netgen"
)

// relabel returns g with every node id i renamed perm[i], nodes added in
// ascending new id, each node's edges in ascending new neighbour id.
func relabel(t *testing.T, g *graph.Graph, perm []graph.NodeID) *graph.Graph {
	t.Helper()
	ids := g.Nodes()
	byNew := make([]graph.NodeID, len(ids)) // new id → old id
	for _, id := range ids {
		byNew[perm[id]] = id
	}
	r := graph.New(len(ids))
	for nu, old := range byNew {
		w, _ := g.NodeWeight(old)
		if err := r.AddNode(graph.NodeID(nu), w); err != nil {
			t.Fatal(err)
		}
	}
	edges := g.Edges()
	for i := range edges {
		edges[i].U, edges[i].V = min(perm[edges[i].U], perm[edges[i].V]), max(perm[edges[i].U], perm[edges[i].V])
	}
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	for _, e := range edges {
		if err := r.AddEdge(e.U, e.V, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// remoteSet is the final placement's offloaded nodes, mapped through perm
// when it is non-nil, ascending.
func remoteSet(sol *Solution, perm []graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, p := range sol.Parts {
		if !p.Remote {
			continue
		}
		for _, id := range p.Nodes {
			if perm != nil {
				id = perm[id]
			}
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// relabelCeilings are TestRelabelSpread's measured figures, asserted as
// ceilings: per corpus, graphs whose final Remote set changed, and the
// largest relative E + T difference.
var relabelCeilings = [2]struct {
	changed int
	spread  float64
}{{16, 0.789}, {4, 0.084}}

// TestRelabelSpread measures what renaming node ids does to a decision
// (ROADMAP item 3(ii), DESIGN §5 relabel_spread). Three tie-breaks read ids
// or indices — the LPA starter, the sweep and greedy's part order — so a
// solve is not promised to be labelling-free. On the serving corpus (netgen
// n = 100, 480 edges, seeds 1–40) and Table I row 3 (n = 2000, seeds 1–8),
// each graph is solved at mec.Defaults() and Workers 1, then again with its
// ids renamed by a seeded shuffle; the final Remote sets are compared
// through the renaming, and the E + T of the two decisions. The measured
// figures are asserted as ceilings (relabelCeilings), so a change that makes
// decisions lean harder on labels fails here; one that lowers them should
// lower the ceilings.
func TestRelabelSpread(t *testing.T) {
	var corpus [2][]netgen.Config
	for seed := int64(1); seed <= 40; seed++ {
		corpus[0] = append(corpus[0], netgen.Config{Nodes: 100, Edges: 480, Components: 4, Seed: seed})
	}
	for seed := int64(1); seed <= 8; seed++ {
		cfg, err := netgen.TableIConfig(3, seed)
		if err != nil {
			t.Fatal(err)
		}
		corpus[1] = append(corpus[1], cfg)
	}
	solve := func(g *graph.Graph) *Solution {
		sol, err := Solve(context.Background(), []UserInput{{Graph: g}}, Options{Params: mec.Defaults(), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	for c, cfgs := range corpus {
		changed, better := 0, 0
		spread := 0.0 // largest |E+T relabelled − E+T| / E+T
		for _, cfg := range cfgs {
			g, err := netgen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ids := g.Nodes()
			if len(ids) < 2 || ids[0] != 0 || int(ids[len(ids)-1]) != len(ids)-1 {
				t.Fatalf("n = %d seed %d: ids are not 0 … n−1", cfg.Nodes, cfg.Seed)
			}
			rng := rand.New(rand.NewSource(cfg.Seed*7919 + int64(cfg.Nodes)))
			perm := make([]graph.NodeID, len(ids))
			for i, p := range rng.Perm(len(ids)) {
				perm[i] = graph.NodeID(p)
			}
			if slices.IsSorted(perm) {
				t.Fatalf("n = %d seed %d: the shuffle kept the id order", cfg.Nodes, cfg.Seed)
			}
			base, moved := solve(g), solve(relabel(t, g, perm))
			if slices.Equal(remoteSet(base, perm), remoteSet(moved, nil)) {
				continue
			}
			changed++
			if moved.Eval.Objective < base.Eval.Objective {
				better++
			}
			spread = max(spread, math.Abs(moved.Eval.Objective-base.Eval.Objective)/base.Eval.Objective)
		}
		t.Logf("n = %d: Remote changed on %d / %d graphs (relabelled E + T lower on %d), E + T spread ≤ %.3f",
			cfgs[0].Nodes, changed, len(cfgs), better, spread)
		if ceil := relabelCeilings[c]; changed > ceil.changed || spread > ceil.spread {
			t.Errorf("n = %d: %d changed, spread %.4f; ceilings %d and %.3f", cfgs[0].Nodes, changed, spread, ceil.changed, ceil.spread)
		}
	}
}
