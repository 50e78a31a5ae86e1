package graph

import (
	"math"
	"testing"
)

func TestComponentsSingle(t *testing.T) {
	comps := paperFig1(t).Compile().Components()
	if len(comps) != 1 {
		t.Fatalf("Components = %d, want 1", len(comps))
	}
	if len(comps[0]) != 5 {
		t.Errorf("component size = %d, want 5", len(comps[0]))
	}
}

func TestComponentsMultiple(t *testing.T) {
	c := mustGraph(t, []float64{1, 1, 1, 1, 1, 1},
		[]Edge{{0, 1, 1}, {2, 3, 1}}).Compile()
	comps := c.Components()
	if len(comps) != 4 {
		t.Fatalf("Components = %d, want 4 (two pairs + two singletons)", len(comps))
	}
	// Ordered by smallest member and internally sorted.
	if c.IDOf(comps[0][0]) != 0 || c.IDOf(comps[1][0]) != 2 || c.IDOf(comps[2][0]) != 4 || c.IDOf(comps[3][0]) != 5 {
		t.Errorf("component order = %v", comps)
	}
}

func TestComponentsEmpty(t *testing.T) {
	if comps := New(0).Compile().Components(); len(comps) != 0 {
		t.Errorf("Components(empty) = %v, want none", comps)
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
