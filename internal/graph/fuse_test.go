package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// idGraph builds a random graph over the given ids (any order, any sign):
// a chain through the ids in slice order plus chords, so rows mix degrees.
func idGraph(seed int64, ids []NodeID) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(len(ids))
	for _, id := range ids {
		must(g.AddNode(id, 1+rng.Float64()*9))
	}
	for i := 1; i < len(ids); i++ {
		if i%7 == 0 {
			continue // break the chain: several components
		}
		must(g.AddEdge(ids[i-1], ids[i], 1+rng.Float64()*9))
	}
	for k := 0; k < len(ids); k++ {
		u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if u != v {
			must(g.SetEdge(u, v, 1+rng.Float64()*9))
		}
	}
	return g
}

func TestCompileIsFuseOfOne(t *testing.T) {
	for _, g := range []*Graph{New(0), deltaTestGraph(3, 90), idGraph(4, []NodeID{40, -3, 7, 1 << 30, -9, 8, 9, 100})} {
		f := Fuse([]*Graph{g})
		if !csrIdentical(t, g.Compile(), f.View) {
			t.Errorf("%v: Compile differs from Fuse of one", g)
		}
		if f.View.multi {
			t.Errorf("%v: a one-graph view marked multi", g)
		}
		wantBase := []int32{0, int32(g.NumNodes())}
		if !slices.Equal(f.NodeBase, wantBase) || int(f.CompBase[1]) != len(f.View.Components()) {
			t.Errorf("%v: spans %v / %v", g, f.NodeBase, f.CompBase)
		}
	}
}

// TestCompileSparseIDs drives the binary-search side of the id lookup — gapped,
// negative and huge ids — and the misses around and inside the id range.
func TestCompileSparseIDs(t *testing.T) {
	ids := []NodeID{-1 << 30, -40, -39, -7, 0, 3, 4, 5, 90, 1 << 20, 1 << 30}
	g := idGraph(9, ids)
	c := g.Compile()
	viewMatchesGraph(t, c, g)
	for _, absent := range []NodeID{-1<<30 - 1, -8, 1, 6, 89, 1<<30 + 1} {
		if i := c.IndexOf(absent); i != -1 {
			t.Errorf("sparse IndexOf(%d) = %d, want -1", absent, i)
		}
	}
	// Dense ranges answer by offset; the misses are the range checks.
	d := deltaTestGraph(5, 30).Compile()
	for _, absent := range []NodeID{-1, 30, 1 << 30} {
		if i := d.IndexOf(absent); i != -1 {
			t.Errorf("dense IndexOf(%d) = %d, want -1", absent, i)
		}
	}
}

// TestCompileRowDegrees covers rows of degree 0, 1 and a hub on a sparse
// (non-dense) id range, the hub filled far-to-near so every insert after the
// first lands at the head of its row.
func TestCompileRowDegrees(t *testing.T) {
	const n = 48
	g := New(0)
	for i := 0; i < n; i++ {
		must(g.AddNode(NodeID(3*i-20), float64(i)))
	}
	hub := NodeID(3*5 - 20)
	for i := n - 2; i >= 0; i-- {
		if id := NodeID(3*i - 20); id != hub {
			must(g.AddEdge(hub, id, float64(100-i)))
		}
	}
	// The last node is isolated: degree 0. Every leaf has degree 1.
	c := g.Compile()
	if d := c.Degree(c.IndexOf(hub)); d != n-2 {
		t.Fatalf("hub degree %d, want %d", d, n-2)
	}
	if d := c.Degree(c.IndexOf(-20)); d != 1 {
		t.Fatalf("leaf degree %d, want 1", d)
	}
	if d := c.Degree(int32(c.NumNodes() - 1)); d != 0 {
		t.Fatalf("last node degree %d, want 0", d)
	}
	viewMatchesGraph(t, c, g)
	if !csrIdentical(t, c, g.Compile()) {
		t.Error("compiling the graph again gives a different view")
	}
}

// TestFuseSpans holds each span of a multi-graph view to the graph's own
// compile shifted by the span base, and the whole-view id lookup to -1.
func TestFuseSpans(t *testing.T) {
	a, b := deltaTestGraph(1, 12), idGraph(2, []NodeID{5, -5, 50, 7})
	f := Fuse([]*Graph{a, b, a})
	for k, g := range []*Graph{a, b, a} {
		single, base := g.Compile(), f.NodeBase[k]
		if !slices.Equal(f.View.IDs()[base:f.NodeBase[k+1]], single.IDs()) {
			t.Fatalf("graph %d ids differ from its own compile", k)
		}
		for i := int32(0); i < int32(single.NumNodes()); i++ {
			tgt, w := f.View.Adj(base + i)
			stgt, sw := single.Adj(i)
			if len(tgt) != len(stgt) || !slices.Equal(w, sw) {
				t.Fatalf("graph %d row %d differs from its own compile", k, i)
			}
			for e := range tgt {
				if tgt[e] != stgt[e]+base {
					t.Fatalf("graph %d row %d entry %d = %d, want %d", k, i, e, tgt[e], stgt[e]+base)
				}
			}
		}
	}
	// Ids repeat across spans, so the whole-view lookup declines.
	if i := f.View.IndexOf(5); i != -1 {
		t.Errorf("multi-graph IndexOf = %d, want -1", i)
	}
}
