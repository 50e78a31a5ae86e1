package graph

import (
	"bytes"
	"slices"
	"testing"
)

func TestCompileMatchesGraph(t *testing.T) {
	g := New(6)
	// Two components with non-contiguous, unsorted-at-insertion ids.
	for _, n := range []struct {
		id NodeID
		w  float64
	}{{10, 1.5}, {3, 2}, {7, 0}, {-2, 4.25}, {20, 3}, {15, 1}} {
		if err := g.AddNode(n.id, n.w); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []struct {
		u, v NodeID
		w    float64
	}{{10, 3, 2.5}, {3, 7, 1}, {7, 10, 0.5}, {20, 15, 4}} {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	c := g.Compile()
	viewMatchesGraph(t, c, g)
	if c.IndexOf(99) != -1 {
		t.Errorf("IndexOf(absent) = %d, want -1", c.IndexOf(99))
	}
}

// mapComponents is the reference for CSR.Components, over the graph's public
// accessors: the connected components of g as ascending ID lists, ordered by
// smallest member.
func mapComponents(g *Graph) [][]NodeID {
	seen := make(map[NodeID]bool, g.NumNodes())
	var comps [][]NodeID
	for _, start := range g.Nodes() {
		if seen[start] {
			continue
		}
		seen[start] = true
		comp := []NodeID{start}
		for i := 0; i < len(comp); i++ {
			for _, nb := range g.Neighbors(comp[i]) {
				if !seen[nb] {
					seen[nb] = true
					comp = append(comp, nb)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// viewMatchesGraph holds a compiled view to its source graph through the
// graph's public accessors: ids, weights, ascending rows, components.
func viewMatchesGraph(t *testing.T, c *CSR, g *Graph) {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: %d/%d nodes, %d/%d edges",
			c.NumNodes(), g.NumNodes(), c.NumEdges(), g.NumEdges())
	}
	for i, id := range c.IDs() {
		if c.IndexOf(id) != int32(i) {
			t.Errorf("IndexOf(%d) = %d, want %d", id, c.IndexOf(id), i)
		}
		if w, _ := g.NodeWeight(id); c.NodeWeights()[i] != w {
			t.Errorf("node %d weight = %v, want %v", id, c.NodeWeights()[i], w)
		}
		tgt, ws := c.Adj(int32(i))
		nbs := g.Neighbors(id)
		if len(tgt) != len(nbs) || c.Degree(int32(i)) != len(nbs) {
			t.Fatalf("node %d degree = %d, want %d", id, len(tgt), len(nbs))
		}
		for k, v := range tgt {
			if c.IDOf(v) != nbs[k] {
				t.Errorf("node %d neighbor %d = %d, want %d", id, k, c.IDOf(v), nbs[k])
			}
			if w, _ := g.EdgeWeight(id, nbs[k]); ws[k] != w {
				t.Errorf("edge {%d,%d} weight = %v, want %v", id, nbs[k], ws[k], w)
			}
		}
	}
	gcomps := mapComponents(g)
	ccomps := c.Components()
	if len(ccomps) != len(gcomps) {
		t.Fatalf("components = %d, want %d", len(ccomps), len(gcomps))
	}
	for ci, comp := range ccomps {
		if len(comp) != len(gcomps[ci]) {
			t.Fatalf("component %d size = %d, want %d", ci, len(comp), len(gcomps[ci]))
		}
		for k, u := range comp {
			if c.IDOf(u) != gcomps[ci][k] {
				t.Errorf("component %d member %d = %d, want %d", ci, k, c.IDOf(u), gcomps[ci][k])
			}
			if c.compOf[u] != int32(ci) {
				t.Errorf("compOf[%d] = %d, want %d", c.IDOf(u), c.compOf[u], ci)
			}
		}
	}
}

func TestCompileEmpty(t *testing.T) {
	c := New(0).Compile()
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.NumNodes() != 0 || c.NumEdges() != 0 || len(c.Components()) != 0 {
		t.Errorf("empty compile: %d nodes, %d edges, %d components",
			c.NumNodes(), c.NumEdges(), len(c.Components()))
	}
}

// FuzzCSRRoundTrip feeds codec bytes through decode → Compile and checks the
// frozen view's invariants hold for every decodable graph, and that the view
// encodes to the exact bytes its graph does (the CSR loses nothing the codec
// carries).
func FuzzCSRRoundTrip(f *testing.F) {
	for _, g := range fuzzSeedGraphs(f) {
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // malformed input is FuzzDecode's concern
		}
		c := g.Compile()
		if err := c.Validate(); err != nil {
			t.Fatalf("Validate after Compile: %v", err)
		}
		if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
			t.Fatalf("size mismatch: %d/%d nodes, %d/%d edges",
				c.NumNodes(), g.NumNodes(), c.NumEdges(), g.NumEdges())
		}
		// The view's encoding must be the graph's, bitwise, so NaN weights
		// round-trip too.
		if !bytes.Equal(c.AppendBinary(nil), g.AppendBinary(nil)) {
			t.Fatal("compiled view encodes differently from its graph")
		}
	})
}
