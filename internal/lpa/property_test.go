package lpa

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"copmecs/internal/graph"
	"copmecs/internal/netgen"
)

// randomTestGraph builds a seeded random graph via netgen.
func randomTestGraph(seed int64, nn uint8) (*graph.Graph, bool) {
	n := int(nn%100) + 10
	g, err := netgen.Generate(netgen.Config{
		Nodes: n, Edges: 2 * n, Components: 2, Seed: seed,
	})
	return g, err == nil
}

func TestPropertyCompressDeterministic(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		g, ok := randomTestGraph(seed, nn)
		if !ok {
			return true
		}
		a, err := Compress(g, Options{})
		if err != nil {
			return false
		}
		b, err := Compress(g, Options{Workers: 4})
		if err != nil {
			return false
		}
		if len(a.Subgraphs) != len(b.Subgraphs) {
			return false
		}
		for i := range a.Subgraphs {
			if !a.Subgraphs[i].Graph.Equal(b.Subgraphs[i].Graph) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCompressThresholdExtremes(t *testing.T) {
	// Threshold above every edge weight: nothing merges. Threshold below
	// every edge weight: each component collapses to one super-node.
	f := func(seed int64, nn uint8) bool {
		g, ok := randomTestGraph(seed, nn)
		if !ok {
			return true
		}
		var maxW float64
		for _, e := range g.Edges() {
			if e.Weight > maxW {
				maxW = e.Weight
			}
		}
		high, err := Compress(g, Options{WeightThreshold: maxW + 1})
		if err != nil {
			return false
		}
		if high.NodesAfter != g.NumNodes() {
			return false
		}
		low, err := Compress(g, Options{WeightThreshold: 1e-12})
		if err != nil {
			return false
		}
		return low.NodesAfter == len(components(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCompressConservesWeightAndCuts(t *testing.T) {
	// Compression preserves total node weight exactly (same additions) and
	// never creates communication out of thin air: total edge weight after
	// ≤ before.
	f := func(seed int64, nn uint8) bool {
		g, ok := randomTestGraph(seed, nn)
		if !ok {
			return true
		}
		res, err := Compress(g, Options{})
		if err != nil {
			return false
		}
		var nodeW, edgeW float64
		for _, sub := range res.Subgraphs {
			nodeW += sub.Graph.TotalNodeWeight()
			edgeW += sub.Graph.TotalEdgeWeight()
		}
		if math.Abs(nodeW-g.TotalNodeWeight()) > 1e-6*(1+nodeW) {
			return false
		}
		return edgeW <= g.TotalEdgeWeight()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPropagateLabelsComplete(t *testing.T) {
	// Every node receives a label within βt rounds.
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%40) + 2
		g := graph.New(n)
		for i := 0; i < n; i++ {
			if err := g.AddNode(graph.NodeID(i), 1); err != nil {
				return false
			}
		}
		for i := 1; i < n; i++ {
			if err := g.AddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), rng.Float64()*10); err != nil {
				return false
			}
		}
		res, err := Propagate(g, Options{MaxRounds: 5})
		if err != nil {
			return false
		}
		if res.Rounds > 5 {
			return false
		}
		return len(res.Labels) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMergedNodesAreHeavyConnected(t *testing.T) {
	// Nodes contracted into one super-node are connected within their
	// cluster (the paper's "connected directly" merging rule).
	f := func(seed int64, nn uint8) bool {
		g, ok := randomTestGraph(seed, nn)
		if !ok {
			return true
		}
		res, err := Compress(g, Options{})
		if err != nil {
			return false
		}
		for _, sub := range res.Subgraphs {
			for _, members := range sub.MembersOf {
				if len(members) < 2 {
					continue
				}
				mg, err := inducedSubgraph(g, members)
				if err != nil {
					return false
				}
				order, err := bfsOrder(mg, members[0])
				if err != nil || len(order) != len(members) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
