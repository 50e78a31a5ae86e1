package lpa

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"copmecs/internal/graph"
	"copmecs/internal/netgen"
)

// csrResultsIdentical compares every array of two CSRResults bitwise.
func csrResultsIdentical(t *testing.T, a, b *CSRResult) bool {
	t.Helper()
	if a.N != b.N || a.NodesAfter != b.NodesAfter || a.EdgesAfter != b.EdgesAfter ||
		a.NodesBefore != b.NodesBefore || a.EdgesBefore != b.EdgesBefore {
		t.Logf("shape: %d/%d/%d vs %d/%d/%d supers/nodesAfter/edgesAfter",
			a.N, a.NodesAfter, a.EdgesAfter, b.N, b.NodesAfter, b.EdgesAfter)
		return false
	}
	intEq := func(name string, x, y []int32) bool {
		if len(x) != len(y) {
			t.Logf("%s length %d vs %d", name, len(x), len(y))
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				t.Logf("%s[%d]: %d vs %d", name, i, x[i], y[i])
				return false
			}
		}
		return true
	}
	floatEq := func(name string, x, y []float64) bool {
		if len(x) != len(y) {
			t.Logf("%s length %d vs %d", name, len(x), len(y))
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Logf("%s[%d]: %v vs %v", name, i, x[i], y[i])
				return false
			}
		}
		return true
	}
	if !intEq("Off", a.Off, b.Off) || !intEq("Tgt", a.Tgt, b.Tgt) ||
		!intEq("CompOff", a.CompOff, b.CompOff) || !intEq("SuperOf", a.SuperOf, b.SuperOf) ||
		!intEq("MemberOff", a.MemberOff, b.MemberOff) || !intEq("Members", a.Members, b.Members) ||
		!intEq("Labels", a.Labels, b.Labels) {
		return false
	}
	if !floatEq("NodeW", a.NodeW, b.NodeW) || !floatEq("W", a.W, b.W) ||
		!floatEq("Thresholds", a.Thresholds, b.Thresholds) {
		return false
	}
	if len(a.Rounds) != len(b.Rounds) {
		return false
	}
	for i := range a.Rounds {
		if a.Rounds[i] != b.Rounds[i] {
			t.Logf("Rounds[%d]: %d vs %d", i, a.Rounds[i], b.Rounds[i])
			return false
		}
	}
	return true
}

// churnDelta draws a random valid delta against g: edge weight drift plus
// edge and node churn, enough to split and merge components.
func churnDelta(rng *rand.Rand, g *graph.Graph) *graph.Delta {
	d := &graph.Delta{}
	ids := g.Nodes()
	edges := g.Edges()
	seenEdge := map[[2]graph.NodeID]bool{}
	for i := 0; i < rng.Intn(4) && len(edges) > 0; i++ {
		e := edges[rng.Intn(len(edges))]
		if seenEdge[[2]graph.NodeID{e.U, e.V}] {
			continue
		}
		seenEdge[[2]graph.NodeID{e.U, e.V}] = true
		d.RemoveEdges = append(d.RemoveEdges, graph.EdgePair{U: e.U, V: e.V})
	}
	removed := map[graph.NodeID]bool{}
	for i := 0; i < rng.Intn(2) && len(ids) > 4; i++ {
		id := ids[rng.Intn(len(ids))]
		if removed[id] {
			continue
		}
		removed[id] = true
		d.RemoveNodes = append(d.RemoveNodes, id)
	}
	for i := 0; i < rng.Intn(2); i++ {
		id := graph.NodeID(100000 + rng.Intn(64))
		if g.HasNode(id) {
			continue
		}
		d.AddNodes = append(d.AddNodes, graph.NodeDelta{ID: id, Weight: 1 + rng.Float64()*50})
		removed[id] = false
	}
	alive := make([]graph.NodeID, 0, len(ids))
	for _, id := range ids {
		if !removed[id] {
			alive = append(alive, id)
		}
	}
	for _, n := range d.AddNodes {
		alive = append(alive, n.ID)
	}
	for i := 0; i < rng.Intn(4) && len(alive) > 1; i++ {
		u, v := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
		if u == v {
			continue
		}
		d.SetEdges = append(d.SetEdges, graph.EdgeDelta{U: u, V: v, Weight: 0.5 + rng.Float64()*20})
	}
	for i := 0; i < rng.Intn(3) && len(alive) > 0; i++ {
		d.SetNodeWeights = append(d.SetNodeWeights,
			graph.NodeDelta{ID: alive[rng.Intn(len(alive))], Weight: 1 + rng.Float64()*100})
	}
	return d
}

func TestPropertyCompressCSRIncrementalMatchesCold(t *testing.T) {
	f := func(seed int64, nn, flags uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%100) + 24
		g, err := netgen.Generate(netgen.Config{Nodes: n, Edges: n * 2, Components: 4, Seed: seed})
		if err != nil {
			return true
		}
		opts := Options{Workers: 1 + int(flags%2)*3}
		if flags&8 != 0 {
			opts.MaxRounds = 3
		}
		c := g.Compile()
		prev, err := CompressCSR(c, opts)
		if err != nil {
			t.Logf("cold compress: %v", err)
			return false
		}
		for step := 0; step < 3; step++ {
			d := churnDelta(rng, g)
			if err := d.Apply(g); err != nil {
				t.Logf("apply: %v", err)
				return false
			}
			patched, info, err := c.Patch(d)
			if err != nil {
				t.Logf("patch: %v", err)
				return false
			}
			inc, err := CompressCSRIncremental(patched, opts, prev, info.OldCompOf)
			if err != nil {
				t.Logf("incremental: %v", err)
				return false
			}
			cold, err := CompressCSR(patched, opts)
			if err != nil {
				t.Logf("cold: %v", err)
				return false
			}
			if !csrResultsIdentical(t, inc, cold) {
				return false
			}
			c, prev = patched, inc
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCompressCSRIncrementalAllClean(t *testing.T) {
	// An empty delta carries every component over; no component recomputes
	// and the result still matches the cold pass bitwise.
	g, err := netgen.Generate(netgen.Config{Nodes: 120, Edges: 260, Components: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Compile()
	prev, err := CompressCSR(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	patched, info, err := c.Patch(&graph.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	for i, oc := range info.OldCompOf {
		if oc != int32(i) {
			t.Fatalf("empty delta dirtied component %d", i)
		}
	}
	inc, err := CompressCSRIncremental(patched, Options{}, prev, info.OldCompOf)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := CompressCSR(patched, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !csrResultsIdentical(t, inc, cold) {
		t.Error("all-clean incremental compression diverges from cold")
	}
	for i := range inc.blocks {
		if inc.blocks[i] != prev.blocks[i] {
			t.Errorf("clean component %d was recomputed, not carried", i)
		}
	}
}

// TestCompressCSRIncrementalRecomputesOnOptionChange: a block computed under
// one threshold, round cap or traversal is not the block of another, so a
// predecessor compressed under different options carries nothing — the
// outcome is the cold one under the new options — while a different worker
// count, which no block depends on, still carries everything.
func TestCompressCSRIncrementalRecomputesOnOptionChange(t *testing.T) {
	c := tableIGraph(t, 1).Compile()
	prev, err := CompressCSR(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	patched, info, err := c.Patch(&graph.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		opts    Options
		carries bool
	}{
		{"weight threshold", Options{WeightThreshold: 40}, false},
		{"max rounds", Options{MaxRounds: 2}, false},
		{"min update rate", Options{MinUpdateRate: 0.9}, false},
		{"workers only", Options{Workers: 3}, true},
		{"defaults spelled out", Options{MinUpdateRate: 0.02, MaxRounds: 20}, true},
	} {
		inc, err := CompressCSRIncremental(patched, tc.opts, prev, info.OldCompOf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cold, err := CompressCSR(patched, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !csrResultsIdentical(t, inc, cold) {
			t.Errorf("%s: incremental over a predecessor under other options diverges from cold", tc.name)
		}
		for i := range inc.blocks {
			if carried := inc.blocks[i] == prev.blocks[i]; carried != tc.carries {
				t.Errorf("%s: component %d carried = %v, want %v", tc.name, i, carried, tc.carries)
			}
		}
	}
	// The rows must be able to tell: the default-option blocks are not the
	// cold answer under at least the explicit threshold.
	other, err := CompressCSR(patched, Options{WeightThreshold: 40})
	if err != nil {
		t.Fatal(err)
	}
	if other.NodesAfter == prev.NodesAfter && slices.Equal(other.Labels, prev.Labels) {
		t.Fatal("threshold 40 compresses like the default: the option rows prove nothing")
	}
}

func TestCompressCSRIncrementalRejectsMisalignedMap(t *testing.T) {
	g, err := netgen.Generate(netgen.Config{Nodes: 40, Edges: 80, Components: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Compile()
	prev, err := CompressCSR(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompressCSRIncremental(c, Options{}, prev, []int32{0}); err == nil {
		t.Error("accepted an oldCompOf of the wrong length")
	}
	if _, err := CompressCSRIncremental(c, Options{}, nil, []int32{0, 1}); err == nil {
		t.Error("accepted a nil previous result")
	}
}
