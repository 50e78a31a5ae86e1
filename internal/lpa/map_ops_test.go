package lpa

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"copmecs/internal/graph"
)

// Tests of the graph operations the map oracle is built from: the oracle is
// only as trustworthy as its components, induced sub-graphs, contraction,
// starter choice and visit order.

// paperFig1 builds the example of Figure 1: f1..f5 with call data sizes
// |a|=10 (f1-f2), |b|=8 (f1-f3), |c|=12 (f2-f4), |d|=7 (f2-f5).
func paperFig1(t *testing.T) *graph.Graph {
	t.Helper()
	g := build(t, 5, []graph.Edge{
		{U: 0, V: 1, Weight: 10},
		{U: 0, V: 2, Weight: 8},
		{U: 1, V: 3, Weight: 12},
		{U: 1, V: 4, Weight: 7},
	})
	for id, w := range []float64{5, 4, 3, 2, 1} {
		if err := g.SetNodeWeight(graph.NodeID(id), w); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestInducedSubgraph(t *testing.T) {
	g := paperFig1(t)
	sub, err := inducedSubgraph(g, []graph.NodeID{0, 1, 3})
	if err != nil {
		t.Fatalf("inducedSubgraph: %v", err)
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
	if _, err := inducedSubgraph(g, []graph.NodeID{0, 42}); !errors.Is(err, graph.ErrNodeNotFound) {
		t.Errorf("unknown keep node error = %v, want ErrNodeNotFound", err)
	}
}

func TestContractPreservesWeights(t *testing.T) {
	g := paperFig1(t)
	// Merge {0,1} (cluster 7) and keep 2,3,4 separate.
	cluster := map[graph.NodeID]int{0: 7, 1: 7, 2: 1, 3: 2, 4: 3}
	res, err := contract(g, cluster)
	if err != nil {
		t.Fatalf("contract: %v", err)
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
	g := build(t, 4, []graph.Edge{{U: 0, V: 1, Weight: 5}, {U: 1, V: 2, Weight: 2}, {U: 2, V: 3, Weight: 5}, {U: 0, V: 3, Weight: 4}})
	res, err := contract(g, map[graph.NodeID]int{0: 0, 1: 0, 2: 1, 3: 1})
	if err != nil {
		t.Fatalf("contract: %v", err)
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
	if _, err := contract(g, map[graph.NodeID]int{0: 0}); err == nil {
		t.Error("partial cluster map accepted")
	}
	bad := map[graph.NodeID]int{0: 0, 1: 0, 2: 0, 3: 0, 99: 0}
	if _, err := contract(g, bad); err == nil {
		t.Error("cluster map with foreign node accepted")
	}
}

func TestContractIdentity(t *testing.T) {
	g := paperFig1(t)
	cluster := make(map[graph.NodeID]int, g.NumNodes())
	for _, id := range g.Nodes() {
		cluster[id] = int(id)
	}
	res, err := contract(g, cluster)
	if err != nil {
		t.Fatalf("contract: %v", err)
	}
	if res.Graph.NumNodes() != g.NumNodes() || res.Graph.NumEdges() != g.NumEdges() {
		t.Errorf("identity contraction changed shape: %v vs %v", res.Graph, g)
	}
	if res.Graph.TotalEdgeWeight() != g.TotalEdgeWeight() {
		t.Errorf("identity contraction changed edge weight")
	}
}

func TestMaxDegreeNode(t *testing.T) {
	g := paperFig1(t)
	id, ok := maxDegreeNode(g)
	if !ok || id != 1 {
		t.Errorf("maxDegreeNode = %v,%v; want 1,true", id, ok)
	}
	if _, ok := maxDegreeNode(graph.New(0)); ok {
		t.Error("maxDegreeNode(empty) ok = true")
	}
	// Tie broken toward smallest ID.
	tie := build(t, 4, []graph.Edge{{U: 0, V: 1, Weight: 1}, {U: 2, V: 3, Weight: 1}})
	if id, _ := maxDegreeNode(tie); id != 0 {
		t.Errorf("tie maxDegreeNode = %d, want 0", id)
	}
}

func TestBFSOrder(t *testing.T) {
	g := paperFig1(t)
	order, err := bfsOrder(g, 0)
	if err != nil {
		t.Fatalf("bfsOrder: %v", err)
	}
	want := []graph.NodeID{0, 1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("bfsOrder = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("bfsOrder = %v, want %v", order, want)
		}
	}
	if _, err := bfsOrder(g, 42); !errors.Is(err, graph.ErrNodeNotFound) {
		t.Errorf("BFS from missing node error = %v", err)
	}
}

func TestTraversalOnlyReachable(t *testing.T) {
	g := build(t, 4, []graph.Edge{{U: 0, V: 1, Weight: 1}})
	bfs, err := bfsOrder(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bfs) != 2 {
		t.Errorf("BFS reached %d nodes, want 2", len(bfs))
	}
	isolated, err := bfsOrder(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(isolated) != 1 || isolated[0] != 2 {
		t.Errorf("BFS from isolated node = %v, want [2]", isolated)
	}
}

// randomClusters assigns each node of g one of k clusters.
func randomClusters(rng *rand.Rand, g *graph.Graph, k int) map[graph.NodeID]int {
	cluster := make(map[graph.NodeID]int, g.NumNodes())
	for _, id := range g.Nodes() {
		cluster[id] = rng.Intn(k)
	}
	return cluster
}

func TestPropertyContractPreservesTotals(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		g, ok := randomTestGraph(seed, nn)
		if !ok {
			return true
		}
		rng := rand.New(rand.NewSource(seed + 3))
		cluster := randomClusters(rng, g, rng.Intn(g.NumNodes())+1)
		res, err := contract(g, cluster)
		if err != nil {
			return false
		}
		// Node weight is always preserved.
		if math.Abs(res.Graph.TotalNodeWeight()-g.TotalNodeWeight()) > 1e-9 {
			return false
		}
		// Cross-cluster edge weight is preserved: the contracted graph's
		// total edge weight equals the sum over original edges whose
		// endpoints land in different clusters.
		var cross float64
		for _, e := range g.Edges() {
			if cluster[e.U] != cluster[e.V] {
				cross += e.Weight
			}
		}
		return math.Abs(res.Graph.TotalEdgeWeight()-cross) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyContractCutInvariant(t *testing.T) {
	// Cutting the contracted graph along super-node sides equals cutting the
	// original along the corresponding member sides: contraction never
	// changes inter-cluster cut structure.
	f := func(seed int64, nn uint8) bool {
		g, ok := randomTestGraph(seed, nn)
		if !ok {
			return true
		}
		rng := rand.New(rand.NewSource(seed + 4))
		res, err := contract(g, randomClusters(rng, g, rng.Intn(4)+2))
		if err != nil {
			return false
		}
		superSide := make(map[graph.NodeID]bool)
		for _, sid := range res.Graph.Nodes() {
			if rng.Intn(2) == 0 {
				superSide[sid] = true
			}
		}
		origSide := make(map[graph.NodeID]bool)
		for orig, super := range res.NodeOf {
			if superSide[super] {
				origSide[orig] = true
			}
		}
		return math.Abs(res.Graph.CutWeight(superSide)-g.CutWeight(origSide)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
