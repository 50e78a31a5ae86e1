package graph

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// mustGraph builds a graph from node weights and edges, failing the test on
// any error. Node IDs are the indices of weights.
func mustGraph(t *testing.T, weights []float64, edges []Edge) *Graph {
	t.Helper()
	g := New(len(weights))
	for i, w := range weights {
		if err := g.AddNode(NodeID(i), w); err != nil {
			t.Fatalf("AddNode(%d, %v): %v", i, w, err)
		}
	}
	for _, e := range edges {
		if err := g.AddEdge(e.U, e.V, e.Weight); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g
}

// paperFig1 builds the example of Figure 1: f1..f5 with call data sizes
// |a|=10 (f1-f2), |b|=8 (f1-f3), |c|=12 (f2-f4), |d|=7 (f2-f5).
func paperFig1(t *testing.T) *Graph {
	t.Helper()
	return mustGraph(t,
		[]float64{5, 4, 3, 2, 1},
		[]Edge{
			{U: 0, V: 1, Weight: 10},
			{U: 0, V: 2, Weight: 8},
			{U: 1, V: 3, Weight: 12},
			{U: 1, V: 4, Weight: 7},
		})
}

func TestAddNode(t *testing.T) {
	g := New(4)
	if err := g.AddNode(1, 2.5); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if got := g.NumNodes(); got != 1 {
		t.Errorf("NumNodes = %d, want 1", got)
	}
	w, err := g.NodeWeight(1)
	if err != nil || w != 2.5 {
		t.Errorf("NodeWeight(1) = %v, %v; want 2.5, nil", w, err)
	}
}

func TestAddNodeDuplicate(t *testing.T) {
	g := New(1)
	if err := g.AddNode(7, 1); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := g.AddNode(7, 2); !errors.Is(err, ErrNodeExists) {
		t.Errorf("duplicate AddNode error = %v, want ErrNodeExists", err)
	}
}

func TestAddNodeNegativeWeight(t *testing.T) {
	g := New(1)
	if err := g.AddNode(0, -1); !errors.Is(err, ErrNegativeWeight) {
		t.Errorf("AddNode(-1) error = %v, want ErrNegativeWeight", err)
	}
}

func TestSetNodeWeight(t *testing.T) {
	g := mustGraph(t, []float64{1}, nil)
	if err := g.SetNodeWeight(0, 9); err != nil {
		t.Fatalf("SetNodeWeight: %v", err)
	}
	if w, _ := g.NodeWeight(0); w != 9 {
		t.Errorf("weight = %v, want 9", w)
	}
	if err := g.SetNodeWeight(3, 1); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("missing node error = %v, want ErrNodeNotFound", err)
	}
	if err := g.SetNodeWeight(0, -2); !errors.Is(err, ErrNegativeWeight) {
		t.Errorf("negative error = %v, want ErrNegativeWeight", err)
	}
}

func TestNodeWeightMissing(t *testing.T) {
	g := New(0)
	if _, err := g.NodeWeight(3); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("NodeWeight error = %v, want ErrNodeNotFound", err)
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := paperFig1(t)
	if got := g.NumEdges(); got != 4 {
		t.Errorf("NumEdges = %d, want 4", got)
	}
	w, ok := g.EdgeWeight(0, 1)
	if !ok || w != 10 {
		t.Errorf("EdgeWeight(0,1) = %v,%v; want 10,true", w, ok)
	}
	// Undirected: the reverse lookup sees the same weight.
	w2, ok2 := g.EdgeWeight(1, 0)
	if !ok2 || w2 != 10 {
		t.Errorf("EdgeWeight(1,0) = %v,%v; want 10,true", w2, ok2)
	}
}

func TestAddEdgeCoalesces(t *testing.T) {
	g := mustGraph(t, []float64{1, 1}, nil)
	if err := g.AddEdge(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0, 4); err != nil {
		t.Fatal(err)
	}
	if got := g.NumEdges(); got != 1 {
		t.Errorf("NumEdges = %d, want 1 (coalesced)", got)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 7 {
		t.Errorf("coalesced weight = %v, want 7", w)
	}
	if got := g.TotalEdgeWeight(); got != 7 {
		t.Errorf("TotalEdgeWeight = %v, want 7", got)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := mustGraph(t, []float64{1, 1}, nil)
	if err := g.AddEdge(0, 0, 1); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop error = %v, want ErrSelfLoop", err)
	}
	if err := g.AddEdge(0, 9, 1); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("missing endpoint error = %v, want ErrNodeNotFound", err)
	}
	if err := g.AddEdge(0, 1, -1); !errors.Is(err, ErrNegativeWeight) {
		t.Errorf("negative weight error = %v, want ErrNegativeWeight", err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := paperFig1(t)
	if !g.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge(1,0) = false, want true")
	}
	if _, ok := g.EdgeWeight(0, 1); ok {
		t.Error("edge {0,1} still present after removal")
	}
	if got := g.NumEdges(); got != 3 {
		t.Errorf("NumEdges = %d, want 3", got)
	}
	if g.RemoveEdge(0, 1) {
		t.Error("second RemoveEdge = true, want false")
	}
}

func TestRemoveNode(t *testing.T) {
	g := paperFig1(t)
	if !g.RemoveNode(1) {
		t.Fatal("RemoveNode(1) = false")
	}
	if g.HasNode(1) {
		t.Error("node 1 still present")
	}
	// Edges {0,1}, {1,3}, {1,4} disappear; {0,2} survives.
	if got := g.NumEdges(); got != 1 {
		t.Errorf("NumEdges = %d, want 1", got)
	}
	if got := g.TotalEdgeWeight(); got != 8 {
		t.Errorf("TotalEdgeWeight = %v, want 8", got)
	}
	if g.RemoveNode(1) {
		t.Error("second RemoveNode = true, want false")
	}
}

func TestNodesSorted(t *testing.T) {
	g := mustGraph(t, nil, nil)
	for _, id := range []NodeID{5, 1, 9, 0} {
		if err := g.AddNode(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := g.Nodes()
	want := []NodeID{0, 1, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("Nodes() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nodes() = %v, want %v", got, want)
		}
	}
}

func TestNeighborsAndDegrees(t *testing.T) {
	g := paperFig1(t)
	nbs := g.Neighbors(1)
	want := []NodeID{0, 3, 4}
	if len(nbs) != len(want) {
		t.Fatalf("Neighbors(1) = %v, want %v", nbs, want)
	}
	for i := range want {
		if nbs[i] != want[i] {
			t.Fatalf("Neighbors(1) = %v, want %v", nbs, want)
		}
	}
	if nbs := g.Neighbors(99); nbs != nil {
		t.Errorf("Neighbors(missing) = %v, want nil", nbs)
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := paperFig1(t)
	es := g.Edges()
	want := []Edge{{0, 1, 10}, {0, 2, 8}, {1, 3, 12}, {1, 4, 7}}
	if len(es) != len(want) {
		t.Fatalf("Edges() = %v, want %v", es, want)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges()[%d] = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestTotals(t *testing.T) {
	g := paperFig1(t)
	if got := g.TotalNodeWeight(); got != 15 {
		t.Errorf("TotalNodeWeight = %v, want 15", got)
	}
	if got := g.TotalEdgeWeight(); got != 37 {
		t.Errorf("TotalEdgeWeight = %v, want 37", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := paperFig1(t)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not Equal to original")
	}
	if err := c.AddEdge(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	if g.Equal(c) {
		t.Error("mutating clone affected original (or Equal is broken)")
	}
	if _, ok := g.EdgeWeight(2, 3); ok {
		t.Error("edge added to clone appeared in original")
	}

	// The base mutated after cloning does not leak into the clone: Clone
	// left the records they share owned by neither.
	want := c.Clone()
	if err := g.SetNodeWeight(1, 99); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdge(0, 1, 55); err != nil {
		t.Fatal(err)
	}
	g.RemoveNode(4)
	if !c.Equal(want) {
		t.Error("mutating the original after Clone affected the clone")
	}
	if w, _ := c.NodeWeight(1); w != 4 {
		t.Errorf("clone node 1 weight = %v, want 4", w)
	}
	if w, _ := c.EdgeWeight(0, 1); w != 10 {
		t.Errorf("clone edge {0,1} weight = %v, want 10", w)
	}

	// A clone of a clone is independent of both.
	cc := c.Clone()
	if err := cc.SetEdge(3, 4, 6); err != nil {
		t.Fatal(err)
	}
	if err := c.SetNodeWeight(0, 17); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.EdgeWeight(3, 4); ok {
		t.Error("edge set on a clone of a clone appeared in its parent")
	}
	cc.RemoveNode(2)
	if err := cc.AddNode(9, 1); err != nil {
		t.Fatal(err)
	}
	if !c.HasNode(2) || c.HasNode(9) {
		t.Error("a node-set change on a clone of a clone reached its parent")
	}
	if w, _ := cc.NodeWeight(0); w != 5 {
		t.Errorf("clone of a clone node 0 weight = %v, want 5", w)
	}
	for _, x := range []*Graph{g, c, cc} {
		if err := x.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// sameMap reports whether a and b are one map, not two equal ones.
func sameMap(a, b map[NodeID]int32) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// TestCloneSharesTheSlotMap holds Clone to one copy of the slot slice, 8
// bytes a node, on a Table I n = 2000 graph: the slot ids, the id map and
// the sorted id list are shared. Row and weight edits on the clone leave the
// map shared; the first AddNode or RemoveNode on either side copies it, and
// the base stays what a fresh decode of its bytes is.
func TestCloneSharesTheSlotMap(t *testing.T) {
	base := tableIShaped(3, 1)
	n := base.NumNodes()
	base.sortedNodes() // latched, as a served base's list is after its first fingerprint
	var enc bytes.Buffer
	must(base.WriteBinary(&enc))
	fresh := func() *Graph {
		g, err := ReadBinary(bytes.NewReader(enc.Bytes()))
		must(err)
		return g
	}

	// ReadMemStats flushes every P's allocation counts, so the window holds
	// exactly the clones' bytes.
	var sink *Graph
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const clones = 64
	for i := 0; i < clones; i++ {
		sink = base.Clone()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / clones; per > uint64(8*n+1024) {
		t.Errorf("Clone of n = %d allocates %d bytes, want at most 8n + 1 KB = %d", n, per, 8*n+1024)
	}
	if !sameMap(sink.slot, base.slot) {
		t.Error("Clone copied the slot map")
	}

	// An edge-only delta, node weights included, writes rows and records only.
	c := base.Clone()
	es := base.Edges()
	d := &Delta{
		RemoveEdges:    []EdgePair{{U: es[0].U, V: es[0].V}},
		SetNodeWeights: []NodeDelta{{ID: es[1].U, Weight: 7}},
		SetEdges:       []EdgeDelta{{U: es[2].U, V: es[2].V, Weight: 3}, {U: es[3].U, V: es[9].V, Weight: 4}},
	}
	must(d.Apply(c))
	if !sameMap(c.slot, base.slot) {
		t.Error("an edge-only delta copied the clone's slot map")
	}
	must(c.Validate())

	// The clone's first node-set change copies the map; the base keeps its own.
	for name, edit := range map[string]func(*Graph) error{
		"AddNode": func(g *Graph) error { return g.AddNode(NodeID(n+5), 1) },
		"RemoveNode": func(g *Graph) error {
			if !g.RemoveNode(es[4].U) {
				t.Fatal("RemoveNode of a present node failed")
			}
			return nil
		},
	} {
		for _, x := range []*Graph{c, base.Clone()} {
			shared := sameMap(x.slot, base.slot)
			must(edit(x))
			if shared && sameMap(x.slot, base.slot) {
				t.Errorf("%s wrote the slot map the clone shares with its base", name)
			}
			must(x.Validate())
			if !base.Equal(fresh()) || base.NumNodes() != n {
				t.Fatalf("%s on a clone changed the base", name)
			}
		}
	}

	// So does the base's: a clone that only edited rows still shares the
	// base's map until then, and keeps what it had after.
	r := base.Clone()
	must(r.SetEdge(es[5].U, es[5].V, 2))
	must(base.AddNode(NodeID(n+9), 1))
	if r.HasNode(NodeID(n+9)) || sameMap(r.slot, base.slot) {
		t.Error("the base's AddNode reached a clone's slot map")
	}
	must(r.Validate())
	must(base.Validate())
}

func TestEqual(t *testing.T) {
	a := paperFig1(t)
	b := paperFig1(t)
	if !a.Equal(b) {
		t.Error("identical graphs not Equal")
	}
	if err := b.SetNodeWeight(0, 99); err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Error("graphs with different node weights Equal")
	}
	c := paperFig1(t)
	c.RemoveEdge(0, 1)
	if err := c.AddEdge(0, 1, 11); err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Error("graphs with different edge weights Equal")
	}
}

func TestStringSummary(t *testing.T) {
	g := paperFig1(t)
	s := g.String()
	if s == "" {
		t.Error("String() empty")
	}
}
