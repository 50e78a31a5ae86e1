package netgen

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestGenerateBasicShape(t *testing.T) {
	cfg := Config{Nodes: 100, Edges: 300, Components: 3, Seed: 1}
	g, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if g.NumNodes() != 100 {
		t.Errorf("NumNodes = %d, want 100", g.NumNodes())
	}
	if g.NumEdges() != 300 {
		t.Errorf("NumEdges = %d, want 300", g.NumEdges())
	}
	if comps := g.Compile().Components(); len(comps) != 3 {
		t.Errorf("components = %d, want 3", len(comps))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Nodes: 60, Edges: 150, Components: 2, Seed: 42}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("same seed produced different graphs")
	}
	cfg.Seed = 43
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Error("different seeds produced identical graphs")
	}
}

func TestGenerateWeightRanges(t *testing.T) {
	cfg := Config{
		Nodes: 80, Edges: 200, Components: 1,
		NodeWeightMin: 5, NodeWeightMax: 7,
		EdgeWeightMin: 2, EdgeWeightMax: 12,
		Seed: 9,
	}
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range g.Nodes() {
		w, err := g.NodeWeight(id)
		if err != nil {
			t.Fatal(err)
		}
		if w < 5 || w > 7 {
			t.Fatalf("node weight %v outside [5,7]", w)
		}
	}
	for _, e := range g.Edges() {
		if e.Weight < 2 || e.Weight > 12 {
			t.Fatalf("edge weight %v outside [2,12]", e.Weight)
		}
	}
}

func TestGenerateHotColdBimodal(t *testing.T) {
	cfg := Config{
		Nodes: 200, Edges: 1000, Components: 1,
		EdgeWeightMin: 0, EdgeWeightMax: 100,
		HotFraction: 0.4, Seed: 5,
	}
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := 0, 0
	for _, e := range g.Edges() {
		switch {
		case e.Weight >= 80:
			hot++
		case e.Weight <= 60:
			cold++
		default:
			t.Fatalf("edge weight %v falls in the bimodal gap (60,80)", e.Weight)
		}
	}
	if hot == 0 || cold == 0 {
		t.Errorf("hot = %d, cold = %d; want both populated", hot, cold)
	}
	// Hot fraction should be near 0.4.
	frac := float64(hot) / float64(hot+cold)
	if frac < 0.3 || frac < 0.01 || frac > 0.5 {
		t.Errorf("hot fraction = %v, want ≈ 0.4", frac)
	}
}

func TestGenerateNoHotEdges(t *testing.T) {
	cfg := Config{
		Nodes: 50, Edges: 100, EdgeWeightMin: 0, EdgeWeightMax: 100,
		HotFraction: -1, Seed: 2,
	}
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if e.Weight > 60 {
			t.Fatalf("hot edge %v despite HotFraction<0", e.Weight)
		}
	}
}

func TestGenerateSingleNode(t *testing.T) {
	g, err := Generate(Config{Nodes: 1, Edges: 0, Seed: 1})
	if err != nil {
		t.Fatalf("Generate single node: %v", err)
	}
	if g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Errorf("got %v", g)
	}
}

func TestGenerateDense(t *testing.T) {
	// Complete graph on 12 nodes: 66 edges, exercises the systematic filler.
	g, err := Generate(Config{Nodes: 12, Edges: 66, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 66 {
		t.Errorf("NumEdges = %d, want 66", g.NumEdges())
	}
}

func TestGenerateConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero nodes", Config{Nodes: 0, Edges: 0}},
		{"too few edges", Config{Nodes: 10, Edges: 3, Components: 1}},
		{"too many edges", Config{Nodes: 4, Edges: 10, Components: 1}},
		{"components exceed nodes", Config{Nodes: 3, Edges: 3, Components: 5}},
		{"bad node range", Config{Nodes: 5, Edges: 4, NodeWeightMin: 9, NodeWeightMax: 2}},
		{"bad edge range", Config{Nodes: 5, Edges: 4, EdgeWeightMin: 9, EdgeWeightMax: 2}},
		{"hot fraction > 1", Config{Nodes: 5, Edges: 4, HotFraction: 2}},
		{"negative node weight", Config{Nodes: 5, Edges: 4, NodeWeightMin: -2, NodeWeightMax: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Generate(tc.cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("Generate(%+v) error = %v, want ErrBadConfig", tc.cfg, err)
			}
		})
	}
}

func TestComponentSizes(t *testing.T) {
	sizes := componentSizes(10, 3)
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Errorf("componentSizes(10,3) = %v, want [4 3 3]", sizes)
	}
	var sum int
	for _, s := range sizes {
		sum += s
	}
	if sum != 10 {
		t.Errorf("sizes sum to %d, want 10", sum)
	}
}

func TestTableIConfig(t *testing.T) {
	wantNodes := []int{250, 500, 1000, 2000, 5000}
	wantEdges := []int{1214, 2643, 4912, 9578, 40243}
	for i := 0; i < TableIRows(); i++ {
		cfg, err := TableIConfig(i, 7)
		if err != nil {
			t.Fatalf("TableIConfig(%d): %v", i, err)
		}
		if cfg.Nodes != wantNodes[i] || cfg.Edges != wantEdges[i] {
			t.Errorf("row %d = %d nodes %d edges, want %d/%d",
				i, cfg.Nodes, cfg.Edges, wantNodes[i], wantEdges[i])
		}
		g, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate(row %d): %v", i, err)
		}
		if g.NumNodes() != wantNodes[i] || g.NumEdges() != wantEdges[i] {
			t.Errorf("row %d generated %v", i, g)
		}
	}
	if _, err := TableIConfig(9, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("out-of-range row error = %v", err)
	}
}

func TestPropertyGenerateSatisfiesConfig(t *testing.T) {
	f := func(seed int64, nn, cc uint8, extra uint16) bool {
		n := int(nn%120) + 2
		k := int(cc)%n/4 + 1
		minEdges := n - k
		maxE := maxEdges(n, k)
		edges := minEdges + int(extra)%(maxE-minEdges+1)
		g, err := Generate(Config{Nodes: n, Edges: edges, Components: k, Seed: seed})
		if err != nil {
			return false
		}
		if g.NumNodes() != n || g.NumEdges() != edges {
			return false
		}
		c := g.Compile()
		comps := c.Components()
		if len(comps) != k {
			return false
		}
		// Node IDs are contiguous per component.
		for _, comp := range comps {
			if int(c.IDOf(comp[len(comp)-1])-c.IDOf(comp[0])) != len(comp)-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyComponentsConnected(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%60) + 4
		k := 2
		g, err := Generate(Config{Nodes: n, Edges: n + 10, Components: k, Seed: seed})
		if err != nil {
			// Some n make n+10 exceed capacity for tiny components; skip.
			return errors.Is(err, ErrBadConfig)
		}
		// Each generated component is connected: the graph has exactly k.
		return len(g.Compile().Components()) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
