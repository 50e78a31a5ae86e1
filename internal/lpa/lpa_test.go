package lpa

import (
	"errors"
	"math"
	"testing"

	"copmecs/internal/graph"
	"copmecs/internal/netgen"
)

// build constructs a graph with unit node weights from an edge list.
func build(t *testing.T, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i < n; i++ {
		if err := g.AddNode(graph.NodeID(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range edges {
		if err := g.AddEdge(e.U, e.V, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAutoThreshold(t *testing.T) {
	g := build(t, 5, []graph.Edge{
		{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 2},
		{U: 2, V: 3, Weight: 3}, {U: 3, V: 4, Weight: 4},
	})
	if got := AutoThreshold(g, 0); got != 1 {
		t.Errorf("q=0 → %v, want 1", got)
	}
	if got := AutoThreshold(g, 1); got != 4 {
		t.Errorf("q=1 → %v, want 4", got)
	}
	if got := AutoThreshold(g, 0.5); got != 2 {
		t.Errorf("q=0.5 → %v, want 2", got)
	}
	empty := graph.New(0)
	if got := AutoThreshold(empty, 0.5); got != 0 {
		t.Errorf("empty → %v, want 0", got)
	}
}

func TestPropagateMergesHeavyChain(t *testing.T) {
	// 0-1-2 heavy chain, 2-3 light: {0,1,2} one label, {3} another.
	g := build(t, 4, []graph.Edge{
		{U: 0, V: 1, Weight: 10}, {U: 1, V: 2, Weight: 10}, {U: 2, V: 3, Weight: 1},
	})
	res, err := Propagate(g, Options{WeightThreshold: 5})
	if err != nil {
		t.Fatalf("Propagate: %v", err)
	}
	if res.Labels[0] != res.Labels[1] || res.Labels[1] != res.Labels[2] {
		t.Errorf("heavy chain not merged: %v", res.Labels)
	}
	if res.Labels[3] == res.Labels[2] {
		t.Errorf("light edge merged: %v", res.Labels)
	}
	if res.Threshold != 5 {
		t.Errorf("threshold = %v, want 5", res.Threshold)
	}
}

func TestPropagateAllLight(t *testing.T) {
	g := build(t, 4, []graph.Edge{
		{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1}, {U: 2, V: 3, Weight: 1},
	})
	res, err := Propagate(g, Options{WeightThreshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range res.Labels {
		if seen[l] {
			t.Fatalf("labels not distinct under all-light edges: %v", res.Labels)
		}
		seen[l] = true
	}
}

func TestPropagateAllHeavy(t *testing.T) {
	g := build(t, 5, []graph.Edge{
		{U: 0, V: 1, Weight: 9}, {U: 1, V: 2, Weight: 9},
		{U: 2, V: 3, Weight: 9}, {U: 3, V: 4, Weight: 9},
	})
	res, err := Propagate(g, Options{WeightThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Labels[0]
	for id, l := range res.Labels {
		if l != first {
			t.Errorf("node %d label %d, want %d (single cluster)", id, l, first)
		}
	}
}

func TestPropagateTerminatesWithinMaxRounds(t *testing.T) {
	g := build(t, 6, []graph.Edge{
		{U: 0, V: 1, Weight: 10}, {U: 1, V: 2, Weight: 10}, {U: 2, V: 3, Weight: 10},
		{U: 3, V: 4, Weight: 10}, {U: 4, V: 5, Weight: 10}, {U: 0, V: 5, Weight: 10},
	})
	res, err := Propagate(g, Options{WeightThreshold: 1, MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 3 {
		t.Errorf("rounds = %d, exceeded βt = 3", res.Rounds)
	}
}

func TestPropagateEmptyAndSingle(t *testing.T) {
	res, err := Propagate(graph.New(0), Options{})
	if err != nil || len(res.Labels) != 0 {
		t.Errorf("empty propagate = %v, %v", res, err)
	}
	g := build(t, 1, nil)
	res, err = Propagate(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 1 {
		t.Errorf("single-node labels = %v", res.Labels)
	}
}

func TestOptionsValidation(t *testing.T) {
	g := build(t, 2, []graph.Edge{{U: 0, V: 1, Weight: 1}})
	cases := []Options{
		{WeightThreshold: -1},
		{MinUpdateRate: 2},
		{MinUpdateRate: -0.5},
		{MaxRounds: -3},
		{Workers: -2},
	}
	for _, opts := range cases {
		if _, err := Propagate(g, opts); !errors.Is(err, ErrBadOptions) {
			t.Errorf("Propagate(%+v) error = %v, want ErrBadOptions", opts, err)
		}
		if _, err := Compress(g, opts); !errors.Is(err, ErrBadOptions) {
			t.Errorf("Compress(%+v) error = %v, want ErrBadOptions", opts, err)
		}
	}
}

func TestCompressTwoClusters(t *testing.T) {
	// Two heavy triangles joined by a light bridge compress to 2 nodes.
	g := build(t, 6, []graph.Edge{
		{U: 0, V: 1, Weight: 9}, {U: 1, V: 2, Weight: 9}, {U: 0, V: 2, Weight: 9},
		{U: 3, V: 4, Weight: 9}, {U: 4, V: 5, Weight: 9}, {U: 3, V: 5, Weight: 9},
		{U: 2, V: 3, Weight: 1},
	})
	res, err := Compress(g, Options{WeightThreshold: 5})
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	if len(res.Subgraphs) != 1 {
		t.Fatalf("subgraphs = %d, want 1", len(res.Subgraphs))
	}
	sub := res.Subgraphs[0]
	if sub.Graph.NumNodes() != 2 {
		t.Errorf("compressed nodes = %d, want 2", sub.Graph.NumNodes())
	}
	if sub.Graph.NumEdges() != 1 {
		t.Errorf("compressed edges = %d, want 1", sub.Graph.NumEdges())
	}
	// Bridge weight preserved.
	if w := sub.Graph.TotalEdgeWeight(); w != 1 {
		t.Errorf("bridge weight = %v, want 1", w)
	}
	// Node weight conserved globally.
	if w := sub.Graph.TotalNodeWeight(); w != 6 {
		t.Errorf("total node weight = %v, want 6", w)
	}
	if res.NodesBefore != 6 || res.NodesAfter != 2 {
		t.Errorf("stats = %d→%d, want 6→2", res.NodesBefore, res.NodesAfter)
	}
	if r := res.CompressionRatio(); math.Abs(r-2.0/3) > 1e-12 {
		t.Errorf("ratio = %v, want 2/3", r)
	}
}

func TestCompressPerComponent(t *testing.T) {
	// Two components: a heavy pair and a light pair.
	g := build(t, 4, []graph.Edge{
		{U: 0, V: 1, Weight: 9},
		{U: 2, V: 3, Weight: 1},
	})
	res, err := Compress(g, Options{WeightThreshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subgraphs) != 2 {
		t.Fatalf("subgraphs = %d, want 2", len(res.Subgraphs))
	}
	if res.Subgraphs[0].Graph.NumNodes() != 1 {
		t.Errorf("heavy pair compressed to %d nodes, want 1", res.Subgraphs[0].Graph.NumNodes())
	}
	if res.Subgraphs[1].Graph.NumNodes() != 2 {
		t.Errorf("light pair compressed to %d nodes, want 2", res.Subgraphs[1].Graph.NumNodes())
	}
}

func TestCompressMappingRoundTrip(t *testing.T) {
	g := build(t, 6, []graph.Edge{
		{U: 0, V: 1, Weight: 9}, {U: 1, V: 2, Weight: 9},
		{U: 2, V: 3, Weight: 1}, {U: 3, V: 4, Weight: 9}, {U: 4, V: 5, Weight: 1},
	})
	res, err := Compress(g, Options{WeightThreshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	sub := res.Subgraphs[0]
	covered := 0
	for super, members := range sub.MembersOf {
		for _, m := range members {
			if sub.NodeOf[m] != super {
				t.Errorf("NodeOf[%d] = %d, want %d", m, sub.NodeOf[m], super)
			}
			covered++
		}
	}
	if covered != 6 {
		t.Errorf("members cover %d nodes, want 6", covered)
	}
}

func TestCompressEmptyGraph(t *testing.T) {
	res, err := Compress(graph.New(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subgraphs) != 0 || res.NodesBefore != 0 {
		t.Errorf("empty compress = %+v", res)
	}
	if res.CompressionRatio() != 0 {
		t.Errorf("empty ratio = %v", res.CompressionRatio())
	}
}

func TestCompressSerialMatchesParallel(t *testing.T) {
	g, err := netgen.Generate(netgen.Config{
		Nodes: 300, Edges: 900, Components: 6, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Compress(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Compress(g, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.NodesAfter != parallel.NodesAfter || serial.EdgesAfter != parallel.EdgesAfter {
		t.Errorf("serial %d/%d vs parallel %d/%d nodes/edges",
			serial.NodesAfter, serial.EdgesAfter, parallel.NodesAfter, parallel.EdgesAfter)
	}
	for i := range serial.Subgraphs {
		if !serial.Subgraphs[i].Graph.Equal(parallel.Subgraphs[i].Graph) {
			t.Errorf("subgraph %d differs between serial and parallel runs", i)
		}
	}
}

func TestCompressReducesNetgenGraphs(t *testing.T) {
	// The headline claim of Table I: compression shrinks realistic graphs a
	// lot. With default options the hot 30% of edges should fuse chunks.
	g, err := netgen.Generate(netgen.Config{Nodes: 250, Edges: 1214, Components: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compress(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesAfter >= res.NodesBefore {
		t.Errorf("no compression: %d → %d", res.NodesBefore, res.NodesAfter)
	}
	if res.CompressionRatio() < 0.3 {
		t.Errorf("compression ratio = %v, want ≥ 0.3 on a hot-edged graph", res.CompressionRatio())
	}
	// Weight conservation across all sub-graphs.
	var nodeW float64
	for _, sub := range res.Subgraphs {
		nodeW += sub.Graph.TotalNodeWeight()
	}
	if math.Abs(nodeW-g.TotalNodeWeight()) > 1e-6 {
		t.Errorf("node weight changed: %v → %v", g.TotalNodeWeight(), nodeW)
	}
}

func TestConnectedSameLabelClusters(t *testing.T) {
	// Nodes 0,2 share a label but are NOT connected: they must stay apart.
	g := build(t, 3, []graph.Edge{{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1}})
	labels := map[graph.NodeID]int{0: 7, 1: 8, 2: 7}
	clusters := connectedSameLabelClusters(g, labels)
	if clusters[0] == clusters[2] {
		t.Errorf("disconnected same-label nodes merged: %v", clusters)
	}
	if clusters[0] == clusters[1] || clusters[1] == clusters[2] {
		t.Errorf("different-label nodes merged: %v", clusters)
	}
	// And connected same-label nodes do merge.
	labels2 := map[graph.NodeID]int{0: 7, 1: 7, 2: 9}
	clusters2 := connectedSameLabelClusters(g, labels2)
	if clusters2[0] != clusters2[1] {
		t.Errorf("connected same-label nodes not merged: %v", clusters2)
	}
}
