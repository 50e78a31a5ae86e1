package graph

import (
	"errors"
	"math"
	"testing"
)

func TestComponentsSingle(t *testing.T) {
	g := paperFig1(t)
	comps := g.Components()
	if len(comps) != 1 {
		t.Fatalf("Components = %d, want 1", len(comps))
	}
	if len(comps[0]) != 5 {
		t.Errorf("component size = %d, want 5", len(comps[0]))
	}
}

func TestComponentsMultiple(t *testing.T) {
	g := mustGraph(t, []float64{1, 1, 1, 1, 1, 1},
		[]Edge{{0, 1, 1}, {2, 3, 1}})
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("Components = %d, want 4 (two pairs + two singletons)", len(comps))
	}
	// Ordered by smallest member and internally sorted.
	if comps[0][0] != 0 || comps[1][0] != 2 || comps[2][0] != 4 || comps[3][0] != 5 {
		t.Errorf("component order = %v", comps)
	}
}

func TestComponentsEmpty(t *testing.T) {
	g := New(0)
	if comps := g.Components(); len(comps) != 0 {
		t.Errorf("Components(empty) = %v, want none", comps)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := paperFig1(t)
	sub, err := g.InducedSubgraph([]NodeID{0, 1, 3})
	if err != nil {
		t.Fatalf("InducedSubgraph: %v", err)
	}
	if sub.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", sub.NumNodes())
	}
	// Edges {0,1} and {1,3} kept; {0,2} and {1,4} dropped.
	if sub.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", sub.NumEdges())
	}
	if w, ok := sub.EdgeWeight(1, 3); !ok || w != 12 {
		t.Errorf("EdgeWeight(1,3) = %v,%v; want 12,true", w, ok)
	}
	if _, err := g.InducedSubgraph([]NodeID{0, 42}); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("unknown keep node error = %v, want ErrNodeNotFound", err)
	}
}

func TestContractPreservesWeights(t *testing.T) {
	g := paperFig1(t)
	// Merge {0,1} (cluster 7) and keep 2,3,4 separate.
	cluster := map[NodeID]int{0: 7, 1: 7, 2: 1, 3: 2, 4: 3}
	res, err := g.Contract(cluster)
	if err != nil {
		t.Fatalf("Contract: %v", err)
	}
	cg := res.Graph
	if cg.NumNodes() != 4 {
		t.Fatalf("contracted NumNodes = %d, want 4", cg.NumNodes())
	}
	if got, want := cg.TotalNodeWeight(), g.TotalNodeWeight(); got != want {
		t.Errorf("TotalNodeWeight = %v, want %v (preserved)", got, want)
	}
	// Intra-cluster edge {0,1} weight 10 vanishes.
	if got, want := cg.TotalEdgeWeight(), g.TotalEdgeWeight()-10; got != want {
		t.Errorf("TotalEdgeWeight = %v, want %v", got, want)
	}
	// The super node for {0,1} has weight 5+4=9.
	super := res.NodeOf[0]
	if res.NodeOf[1] != super {
		t.Fatalf("nodes 0 and 1 mapped to different supers: %d vs %d", super, res.NodeOf[1])
	}
	if w, _ := cg.NodeWeight(super); w != 9 {
		t.Errorf("super weight = %v, want 9", w)
	}
	members := res.MembersOf[super]
	if len(members) != 2 || members[0] != 0 || members[1] != 1 {
		t.Errorf("MembersOf[%d] = %v, want [0 1]", super, members)
	}
}

func TestContractCoalescesCrossEdges(t *testing.T) {
	// Square 0-1-2-3-0; merge {0,1} and {2,3}: edges {1,2} and {3,0} must
	// coalesce into one super edge of summed weight.
	g := mustGraph(t, []float64{1, 1, 1, 1},
		[]Edge{{0, 1, 5}, {1, 2, 2}, {2, 3, 5}, {0, 3, 4}})
	res, err := g.Contract(map[NodeID]int{0: 0, 1: 0, 2: 1, 3: 1})
	if err != nil {
		t.Fatalf("Contract: %v", err)
	}
	if res.Graph.NumNodes() != 2 || res.Graph.NumEdges() != 1 {
		t.Fatalf("contracted = %v, want 2 nodes 1 edge", res.Graph)
	}
	if w, _ := res.Graph.EdgeWeight(0, 1); w != 6 {
		t.Errorf("super edge weight = %v, want 6 (2+4)", w)
	}
}

func TestContractErrors(t *testing.T) {
	g := paperFig1(t)
	if _, err := g.Contract(map[NodeID]int{0: 0}); err == nil {
		t.Error("partial cluster map accepted")
	}
	bad := map[NodeID]int{0: 0, 1: 0, 2: 0, 3: 0, 99: 0}
	if _, err := g.Contract(bad); err == nil {
		t.Error("cluster map with foreign node accepted")
	}
}

func TestContractIdentity(t *testing.T) {
	g := paperFig1(t)
	cluster := make(map[NodeID]int, g.NumNodes())
	for _, id := range g.Nodes() {
		cluster[id] = int(id)
	}
	res, err := g.Contract(cluster)
	if err != nil {
		t.Fatalf("Contract: %v", err)
	}
	if res.Graph.NumNodes() != g.NumNodes() || res.Graph.NumEdges() != g.NumEdges() {
		t.Errorf("identity contraction changed shape: %v vs %v", res.Graph, g)
	}
	if res.Graph.TotalEdgeWeight() != g.TotalEdgeWeight() {
		t.Errorf("identity contraction changed edge weight")
	}
}

func TestCutWeight(t *testing.T) {
	g := paperFig1(t)
	// side = {0}: cut = edges {0,1}=10 + {0,2}=8 = 18.
	if cut := g.CutWeight(map[NodeID]bool{0: true}); cut != 18 {
		t.Errorf("CutWeight({0}) = %v, want 18", cut)
	}
	// side = {1,3,4}: cut = {0,1}=10 only.
	side := map[NodeID]bool{1: true, 3: true, 4: true}
	if cut := g.CutWeight(side); cut != 10 {
		t.Errorf("CutWeight({1,3,4}) = %v, want 10", cut)
	}
	// Symmetry: complement side yields the same cut.
	comp := map[NodeID]bool{0: true, 2: true}
	if a, b := g.CutWeight(side), g.CutWeight(comp); math.Abs(a-b) > 1e-12 {
		t.Errorf("cut asymmetric: %v vs %v", a, b)
	}
	// Empty and full sides cut nothing.
	if cut := g.CutWeight(nil); cut != 0 {
		t.Errorf("CutWeight(∅) = %v, want 0", cut)
	}
	all := map[NodeID]bool{0: true, 1: true, 2: true, 3: true, 4: true}
	if cut := g.CutWeight(all); cut != 0 {
		t.Errorf("CutWeight(V) = %v, want 0", cut)
	}
}

func TestMaxDegreeNode(t *testing.T) {
	g := paperFig1(t)
	id, ok := g.MaxDegreeNode()
	if !ok || id != 1 {
		t.Errorf("MaxDegreeNode = %v,%v; want 1,true", id, ok)
	}
	empty := New(0)
	if _, ok := empty.MaxDegreeNode(); ok {
		t.Error("MaxDegreeNode(empty) ok = true")
	}
	// Tie broken toward smallest ID.
	tie := mustGraph(t, []float64{1, 1, 1, 1}, []Edge{{0, 1, 1}, {2, 3, 1}})
	if id, _ := tie.MaxDegreeNode(); id != 0 {
		t.Errorf("tie MaxDegreeNode = %d, want 0", id)
	}
}

func TestBFSOrder(t *testing.T) {
	g := paperFig1(t)
	order, err := g.BFSOrder(0)
	if err != nil {
		t.Fatalf("BFSOrder: %v", err)
	}
	want := []NodeID{0, 1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("BFSOrder = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("BFSOrder = %v, want %v", order, want)
		}
	}
	if _, err := g.BFSOrder(42); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("BFS from missing node error = %v", err)
	}
}

func TestDFSOrder(t *testing.T) {
	g := paperFig1(t)
	order, err := g.DFSOrder(0)
	if err != nil {
		t.Fatalf("DFSOrder: %v", err)
	}
	// DFS from 0 visiting ascending neighbors: 0,1,3,4,2.
	want := []NodeID{0, 1, 3, 4, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("DFSOrder = %v, want %v", order, want)
		}
	}
	if _, err := g.DFSOrder(42); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("DFS from missing node error = %v", err)
	}
}

func TestTraversalOnlyReachable(t *testing.T) {
	g := mustGraph(t, []float64{1, 1, 1, 1}, []Edge{{0, 1, 1}})
	bfs, err := g.BFSOrder(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bfs) != 2 {
		t.Errorf("BFS reached %d nodes, want 2", len(bfs))
	}
	dfs, err := g.DFSOrder(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dfs) != 1 || dfs[0] != 2 {
		t.Errorf("DFS from isolated node = %v, want [2]", dfs)
	}
}

func TestValidateHealthyGraphs(t *testing.T) {
	for _, g := range []*Graph{New(0), paperFig1(t)} {
		if err := g.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v", g, err)
		}
	}
	g := paperFig1(t)
	g.RemoveNode(1)
	g.RemoveEdge(0, 2)
	if err := g.Validate(); err != nil {
		t.Errorf("Validate after mutations = %v", err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	// Corrupt the internals directly (the only way to break the invariants).
	g := paperFig1(t)
	g.edgeCount++
	if err := g.Validate(); err == nil {
		t.Error("corrupted edge count accepted")
	}
	g = paperFig1(t)
	g.totalEdgeWeight += 100
	if err := g.Validate(); err == nil {
		t.Error("corrupted total weight accepted")
	}
	g = paperFig1(t)
	g.rec(1).remove(0) // drops 0 from node 1's row only: asymmetric adjacency
	if err := g.Validate(); err == nil {
		t.Error("asymmetric adjacency accepted")
	}
	g = paperFig1(t)
	g.rec(1).w[0] = 99 // mismatched weights
	if err := g.Validate(); err == nil {
		t.Error("mismatched reverse weight accepted")
	}
	g = paperFig1(t)
	g.rec(0).insert(0, 0, 1) // self-loop
	if err := g.Validate(); err == nil {
		t.Error("self-loop accepted")
	}
	g = paperFig1(t)
	row := g.rec(0)
	row.nbr[0], row.nbr[1] = row.nbr[1], row.nbr[0] // unsorted row
	row.w[0], row.w[1] = row.w[1], row.w[0]
	if err := g.Validate(); err == nil {
		t.Error("unsorted row accepted")
	}
	g = paperFig1(t)
	g.rec(0).w = g.rec(0).w[:1] // a neighbor without a weight
	if err := g.Validate(); err == nil {
		t.Error("row with fewer weights than neighbors accepted")
	}
}

func TestPropertyMutationsPreserveInvariants(t *testing.T) {
	g := New(64)
	rng := func() func() int {
		state := int64(12345)
		return func() int {
			state = state*6364136223846793005 + 1442695040888963407
			v := int(state >> 33)
			if v < 0 {
				v = -v
			}
			return v
		}
	}()
	for step := 0; step < 3000; step++ {
		switch rng() % 5 {
		case 0:
			_ = g.AddNode(NodeID(rng()%64), float64(rng()%100))
		case 1:
			_ = g.RemoveNode(NodeID(rng() % 64))
		case 2:
			u, v := NodeID(rng()%64), NodeID(rng()%64)
			_ = g.AddEdge(u, v, float64(rng()%50))
		case 3:
			_ = g.RemoveEdge(NodeID(rng()%64), NodeID(rng()%64))
		case 4:
			_ = g.SetNodeWeight(NodeID(rng()%64), float64(rng()%100))
		}
		if step%500 == 0 {
			if err := g.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("final: %v", err)
	}
}
