package graph

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomGraph builds a pseudo-random graph with n nodes and roughly density·n
// edges from the given source.
func randomGraph(rng *rand.Rand, n int, density float64) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		if err := g.AddNode(NodeID(i), rng.Float64()*100); err != nil {
			panic(err)
		}
	}
	edges := int(float64(n) * density)
	for i := 0; i < edges; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if err := g.AddEdge(u, v, rng.Float64()*10+0.1); err != nil {
			panic(err)
		}
	}
	return g
}

// graphSpec is a quick.Generator-friendly seed for a random graph.
type graphSpec struct {
	Seed    int64
	N       uint8
	Density uint8
}

func (s graphSpec) build() *Graph {
	n := int(s.N%40) + 2
	density := float64(s.Density%50)/10 + 0.5
	return randomGraph(rand.New(rand.NewSource(s.Seed)), n, density)
}

func TestPropertyCutSymmetry(t *testing.T) {
	f := func(s graphSpec) bool {
		g := s.build()
		rng := rand.New(rand.NewSource(s.Seed + 1))
		side := make(map[NodeID]bool)
		comp := make(map[NodeID]bool)
		for _, id := range g.Nodes() {
			if rng.Intn(2) == 0 {
				side[id] = true
			} else {
				comp[id] = true
			}
		}
		return math.Abs(g.CutWeight(side)-g.CutWeight(comp)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCutMatchesEdgeSum(t *testing.T) {
	f := func(s graphSpec) bool {
		g := s.build()
		rng := rand.New(rand.NewSource(s.Seed + 2))
		side := make(map[NodeID]bool)
		for _, id := range g.Nodes() {
			if rng.Intn(2) == 0 {
				side[id] = true
			}
		}
		var want float64
		for _, e := range g.Edges() {
			if side[e.U] != side[e.V] {
				want += e.Weight
			}
		}
		return math.Abs(g.CutWeight(side)-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyComponentsPartition(t *testing.T) {
	f := func(s graphSpec) bool {
		g := s.build()
		c := g.Compile()
		comps := c.Components()
		seen := make(map[NodeID]int)
		total := 0
		for _, comp := range comps {
			total += len(comp)
			for _, u := range comp {
				seen[c.IDOf(u)]++
			}
		}
		if total != g.NumNodes() {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		// No edge crosses two components.
		compOf := make(map[NodeID]int)
		for i, comp := range comps {
			for _, u := range comp {
				compOf[c.IDOf(u)] = i
			}
		}
		for _, e := range g.Edges() {
			if compOf[e.U] != compOf[e.V] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyJSONRoundTrip(t *testing.T) {
	f := func(s graphSpec) bool {
		g := s.build()
		data, err := json.Marshal(g)
		if err != nil {
			return false
		}
		var back Graph
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return g.Equal(&back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyBinaryRoundTrip(t *testing.T) {
	f := func(s graphSpec) bool {
		g := s.build()
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			return false
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return g.Equal(back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyBFSReachesComponent(t *testing.T) {
	// A breadth-first walk from any component's first member reaches exactly
	// that component: components are connected and closed under adjacency.
	f := func(s graphSpec) bool {
		c := s.build().Compile()
		for _, comp := range c.Components() {
			seen := map[int32]bool{comp[0]: true}
			order := []int32{comp[0]}
			for i := 0; i < len(order); i++ {
				tgt, _ := c.Adj(order[i])
				for _, v := range tgt {
					if !seen[v] {
						seen[v] = true
						order = append(order, v)
					}
				}
			}
			if len(order) != len(comp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
