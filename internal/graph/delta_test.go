package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// csrIdentical compares two CSR views bitwise, rows read through Adj (a
// patched view stores them per component); weights use Float64bits so NaN
// payloads and signed zeros count too.
func csrIdentical(t *testing.T, a, b *CSR) bool {
	t.Helper()
	if len(a.ids) != len(b.ids) {
		t.Logf("node count %d vs %d", len(a.ids), len(b.ids))
		return false
	}
	for i := range a.ids {
		if a.ids[i] != b.ids[i] {
			t.Logf("ids[%d]: %d vs %d", i, a.ids[i], b.ids[i])
			return false
		}
		if math.Float64bits(a.nodeW[i]) != math.Float64bits(b.nodeW[i]) {
			t.Logf("nodeW[%d]: %v vs %v", i, a.nodeW[i], b.nodeW[i])
			return false
		}
		if a.compOf[i] != b.compOf[i] {
			t.Logf("compOf[%d]: %d vs %d", i, a.compOf[i], b.compOf[i])
			return false
		}
	}
	for i, id := range a.ids {
		if ia, ib := a.IndexOf(id), b.IndexOf(id); ia != int32(i) || ib != int32(i) {
			t.Logf("IndexOf(%d): %d vs %d, want %d", id, ia, ib, i)
			return false
		}
	}
	if a.nnz != b.nnz {
		t.Logf("nnz %d vs %d", a.nnz, b.nnz)
		return false
	}
	for i := int32(0); i < int32(len(a.ids)); i++ {
		at, aw := a.Adj(i)
		bt, bw := b.Adj(i)
		if len(at) != len(bt) {
			t.Logf("degree[%d]: %d vs %d", i, len(at), len(bt))
			return false
		}
		for k := range at {
			if at[k] != bt[k] || math.Float64bits(aw[k]) != math.Float64bits(bw[k]) {
				t.Logf("adj[%d][%d]: (%d, %v) vs (%d, %v)", i, k, at[k], aw[k], bt[k], bw[k])
				return false
			}
		}
	}
	if len(a.comps) != len(b.comps) {
		t.Logf("component count %d vs %d", len(a.comps), len(b.comps))
		return false
	}
	for ci := range a.comps {
		if len(a.comps[ci]) != len(b.comps[ci]) {
			return false
		}
		for k := range a.comps[ci] {
			if a.comps[ci][k] != b.comps[ci][k] {
				return false
			}
		}
	}
	return true
}

// deltaTestGraph builds a deterministic multi-component graph.
func deltaTestGraph(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 0; i < n; i++ {
		must(g.AddNode(NodeID(i), 1+rng.Float64()*99))
	}
	// Three chains plus random intra-chain chords.
	third := n / 3
	for c := 0; c < 3; c++ {
		lo, hi := c*third, (c+1)*third
		if c == 2 {
			hi = n
		}
		for i := lo + 1; i < hi; i++ {
			must(g.AddEdge(NodeID(i-1), NodeID(i), 1+rng.Float64()*9))
		}
		for k := 0; k < (hi-lo)/2; k++ {
			u, v := lo+rng.Intn(hi-lo), lo+rng.Intn(hi-lo)
			if u == v {
				continue
			}
			if _, ok := g.EdgeWeight(NodeID(u), NodeID(v)); ok {
				continue
			}
			must(g.AddEdge(NodeID(u), NodeID(v), 1+rng.Float64()*9))
		}
	}
	return g
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// randomDelta draws a random delta that is valid against g: weight drift,
// edge churn, node churn — including removals that split components and
// inserts that merge them.
func randomDelta(rng *rand.Rand, g *Graph) *Delta {
	d := &Delta{}
	ids := g.Nodes()
	if len(ids) == 0 {
		d.AddNodes = append(d.AddNodes, NodeDelta{ID: 0, Weight: 5})
		return d
	}
	edges := g.Edges()
	pick := func() NodeID { return ids[rng.Intn(len(ids))] }

	seenRemove := map[[2]NodeID]bool{}
	for i := 0; i < rng.Intn(4) && len(edges) > 0; i++ {
		e := edges[rng.Intn(len(edges))]
		k := [2]NodeID{e.U, e.V}
		if seenRemove[k] {
			continue
		}
		seenRemove[k] = true
		d.RemoveEdges = append(d.RemoveEdges, EdgePair{U: e.U, V: e.V})
	}
	seenNode := map[NodeID]bool{}
	for i := 0; i < rng.Intn(3); i++ {
		id := pick()
		if seenNode[id] {
			continue
		}
		seenNode[id] = true
		d.RemoveNodes = append(d.RemoveNodes, id)
	}
	for i := 0; i < rng.Intn(3); i++ {
		id := NodeID(1000 + rng.Intn(50))
		if g.HasNode(id) || seenNode[id] {
			continue
		}
		seenNode[id] = true
		d.AddNodes = append(d.AddNodes, NodeDelta{ID: id, Weight: rng.Float64() * 100})
	}
	seenW := map[NodeID]bool{}
	for i := 0; i < rng.Intn(4); i++ {
		id := pick()
		if removedNotReadded(d, id) || seenW[id] {
			continue
		}
		seenW[id] = true
		d.SetNodeWeights = append(d.SetNodeWeights, NodeDelta{ID: id, Weight: rng.Float64() * 100})
	}
	// Set edges between any two surviving or added nodes (merging
	// components is the interesting case).
	alive := make([]NodeID, 0, len(ids)+len(d.AddNodes))
	for _, id := range ids {
		if !removedNotReadded(d, id) {
			alive = append(alive, id)
		}
	}
	for _, n := range d.AddNodes {
		alive = append(alive, n.ID)
	}
	seenSet := map[[2]NodeID]bool{}
	for i := 0; i < rng.Intn(5) && len(alive) > 1; i++ {
		u, v := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seenSet[[2]NodeID{u, v}] {
			continue
		}
		seenSet[[2]NodeID{u, v}] = true
		d.SetEdges = append(d.SetEdges, EdgeDelta{U: u, V: v, Weight: rng.Float64() * 20})
	}
	return d
}

// removedNotReadded reports whether d removes id without re-adding it.
func removedNotReadded(d *Delta, id NodeID) bool {
	rm := false
	for _, r := range d.RemoveNodes {
		if r == id {
			rm = true
		}
	}
	if !rm {
		return false
	}
	for _, n := range d.AddNodes {
		if n.ID == id {
			return false
		}
	}
	return true
}

func TestPatchMatchesCompileOnRandomDeltas(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%60) + 9
		g := deltaTestGraph(seed, n)
		c := g.Compile()
		for step := 0; step < 4; step++ {
			d := randomDelta(rng, g)
			if err := d.Apply(g); err != nil {
				t.Logf("apply: %v", err)
				return false
			}
			patched, info, err := c.Patch(d)
			if err != nil {
				t.Logf("patch: %v", err)
				return false
			}
			if err := patched.Validate(); err != nil {
				t.Logf("validate: %v", err)
				return false
			}
			want := g.Compile()
			if !csrIdentical(t, patched, want) {
				return false
			}
			if len(info.OldCompOf) != len(patched.comps) {
				t.Logf("OldCompOf len %d, want %d", len(info.OldCompOf), len(patched.comps))
				return false
			}
			// Every clean component's members must map to an old component
			// with identical content at their shifted indices.
			for nc, oc := range info.OldCompOf {
				if oc < 0 {
					continue
				}
				if !cleanCompAligned(c, patched, info, nc, oc) {
					t.Logf("clean component %d misaligned with old %d", nc, oc)
					return false
				}
			}
			c = patched
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// cleanCompAligned verifies the PatchInfo contract for one clean component:
// position-aligned members with identical ids, weights and rows.
func cleanCompAligned(old, patched *CSR, info *PatchInfo, nc int, oc int32) bool {
	nm, om := patched.comps[nc], old.comps[oc]
	if len(nm) != len(om) {
		return false
	}
	for i := range nm {
		oi := nm[i]
		if info.NewToOld != nil {
			oi = info.NewToOld[nm[i]]
		}
		if oi != om[i] {
			return false
		}
		if math.Float64bits(patched.nodeW[nm[i]]) != math.Float64bits(old.nodeW[oi]) {
			return false
		}
		nt, nw := patched.Adj(nm[i])
		ot, ow := old.Adj(oi)
		if len(nt) != len(ot) {
			return false
		}
		for k := range nt {
			back := nt[k]
			if info.NewToOld != nil {
				back = info.NewToOld[nt[k]]
			}
			if back != ot[k] || math.Float64bits(nw[k]) != math.Float64bits(ow[k]) {
				return false
			}
		}
	}
	return true
}

func TestPatchSharesIndexOnWeightOnlyDeltas(t *testing.T) {
	g := deltaTestGraph(3, 30)
	c := g.Compile()
	d := &Delta{
		SetNodeWeights: []NodeDelta{{ID: 4, Weight: 7}},
		SetEdges:       []EdgeDelta{{U: 1, V: 2, Weight: 3}},
	}
	patched, info, err := c.Patch(d)
	if err != nil {
		t.Fatal(err)
	}
	if &patched.ids[0] != &c.ids[0] {
		t.Error("node-preserving patch should share the id array")
	}
	if info.NewToOld != nil || info.OldToNew != nil {
		t.Error("identity node mapping should be nil")
	}
	if info.TouchedEdges != 1 {
		t.Errorf("TouchedEdges = %d, want 1", info.TouchedEdges)
	}
}

func TestPatchValidationErrors(t *testing.T) {
	g := deltaTestGraph(1, 12)
	c := g.Compile()
	cases := []struct {
		name string
		d    *Delta
	}{
		{"remove missing node", &Delta{RemoveNodes: []NodeID{999}}},
		{"remove node twice", &Delta{RemoveNodes: []NodeID{1, 1}}},
		{"remove missing edge", &Delta{RemoveEdges: []EdgePair{{U: 0, V: 11}}}},
		{"add existing node", &Delta{AddNodes: []NodeDelta{{ID: 3, Weight: 1}}}},
		{"add node twice", &Delta{AddNodes: []NodeDelta{{ID: 500, Weight: 1}, {ID: 500, Weight: 2}}}},
		{"negative node weight", &Delta{AddNodes: []NodeDelta{{ID: 500, Weight: -1}}}},
		{"set weight of missing node", &Delta{SetNodeWeights: []NodeDelta{{ID: 999, Weight: 1}}}},
		{"negative set weight", &Delta{SetNodeWeights: []NodeDelta{{ID: 1, Weight: -2}}}},
		{"self-loop", &Delta{SetEdges: []EdgeDelta{{U: 2, V: 2, Weight: 1}}}},
		{"edge to missing node", &Delta{SetEdges: []EdgeDelta{{U: 2, V: 999, Weight: 1}}}},
		{"negative edge weight", &Delta{SetEdges: []EdgeDelta{{U: 0, V: 5, Weight: -1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := c.Patch(tc.d); err == nil {
				t.Error("Patch accepted an invalid delta")
			}
			if err := tc.d.Apply(g.Clone()); err == nil {
				t.Error("Apply accepted an invalid delta")
			}
		})
	}
}

func TestPatchDuplicateSetsLastWins(t *testing.T) {
	// Apply's semantics for repeated sets of the same node weight or edge
	// is last-wins; Patch must agree.
	g := deltaTestGraph(9, 12)
	c := g.Compile()
	d := &Delta{
		SetNodeWeights: []NodeDelta{{ID: 2, Weight: 1}, {ID: 2, Weight: 8}},
		SetEdges:       []EdgeDelta{{U: 0, V: 5, Weight: 1}, {U: 5, V: 0, Weight: 2}},
	}
	if err := d.Apply(g); err != nil {
		t.Fatal(err)
	}
	patched, _, err := c.Patch(d)
	if err != nil {
		t.Fatal(err)
	}
	if !csrIdentical(t, patched, g.Compile()) {
		t.Error("duplicate-set patch diverges from Compile")
	}
	if w, _ := g.NodeWeight(2); w != 8 {
		t.Errorf("node 2 weight = %v, want 8", w)
	}
	if w, _ := g.EdgeWeight(0, 5); w != 2 {
		t.Errorf("edge {0,5} weight = %v, want 2", w)
	}
}

// TestSetEdgeNegativeZeroStoresPlusZero: SetEdge and Patch store a set
// weight of -0 as AddEdge and every decode do, +0, on an existing edge and
// a new one, so the graph has one fingerprint whichever path built it.
func TestSetEdgeNegativeZeroStoresPlusZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	g := deltaTestGraph(9, 12)
	c := g.Compile()
	existing := g.Edges()[0]
	d := &Delta{SetEdges: []EdgeDelta{{U: existing.U, V: existing.V, Weight: negZero}, {U: 0, V: 8, Weight: negZero}}}
	if _, ok := g.EdgeWeight(0, 8); ok {
		t.Fatal("edge {0,8} exists; the test needs it new")
	}
	patched, _, err := c.Patch(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(g); err != nil {
		t.Fatal(err)
	}
	added := deltaTestGraph(9, 12)
	if !added.RemoveEdge(existing.U, existing.V) {
		t.Fatal("remove edge")
	}
	for _, e := range d.SetEdges {
		if err := added.AddEdge(e.U, e.V, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range d.SetEdges {
		if w, _ := g.EdgeWeight(e.U, e.V); math.Signbit(w) {
			t.Errorf("SetEdge stored edge {%d,%d} as -0", e.U, e.V)
		}
	}
	want := added.Compile()
	if !csrIdentical(t, patched, want) || !csrIdentical(t, g.Compile(), want) {
		t.Fatal("a -0 set differs from the same edges added")
	}
	fp, err := added.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]*CSR{"Patch": patched, "Apply": g.Compile()} {
		if got, err := v.Fingerprint(); err != nil || got != fp {
			t.Errorf("%s: fingerprint %s (%v), AddEdge's %s", name, got, err, fp)
		}
	}
}

func TestPatchRemoveAndReaddNode(t *testing.T) {
	g := deltaTestGraph(5, 15)
	c := g.Compile()
	d := &Delta{
		RemoveNodes: []NodeID{7},
		AddNodes:    []NodeDelta{{ID: 7, Weight: 42}},
		SetEdges:    []EdgeDelta{{U: 7, V: 2, Weight: 9}},
	}
	if err := d.Apply(g); err != nil {
		t.Fatal(err)
	}
	patched, _, err := c.Patch(d)
	if err != nil {
		t.Fatal(err)
	}
	if !csrIdentical(t, patched, g.Compile()) {
		t.Error("re-added node patch diverges from Compile")
	}
	if w, ok := g.EdgeWeight(7, 2); !ok || w != 9 {
		t.Errorf("edge {7,2} = (%v, %v), want (9, true)", w, ok)
	}
}

func TestPatchEmptyDelta(t *testing.T) {
	g := deltaTestGraph(2, 20)
	c := g.Compile()
	patched, info, err := c.Patch(&Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if !csrIdentical(t, patched, c) {
		t.Error("empty delta changed the view")
	}
	for nc, oc := range info.OldCompOf {
		if oc != int32(nc) {
			t.Errorf("OldCompOf[%d] = %d, want identity", nc, oc)
		}
	}
	if info.TouchedEdges != 0 {
		t.Errorf("TouchedEdges = %d, want 0", info.TouchedEdges)
	}
}

func TestPatchSplitsAndMergesComponents(t *testing.T) {
	// A path 0-1-2-3-4: cutting {1,2} splits the component; re-linking
	// {0,4} merges the halves back.
	g := New(5)
	for i := 0; i < 5; i++ {
		must(g.AddNode(NodeID(i), float64(i+1)))
	}
	for i := 1; i < 5; i++ {
		must(g.AddEdge(NodeID(i-1), NodeID(i), 1))
	}
	c := g.Compile()
	split := &Delta{RemoveEdges: []EdgePair{{U: 1, V: 2}}}
	if err := split.Apply(g); err != nil {
		t.Fatal(err)
	}
	c2, info, err := c.Patch(split)
	if err != nil {
		t.Fatal(err)
	}
	if !csrIdentical(t, c2, g.Compile()) {
		t.Fatal("split patch diverges from Compile")
	}
	if len(c2.comps) != 2 {
		t.Fatalf("components after split = %d, want 2", len(c2.comps))
	}
	for nc, oc := range info.OldCompOf {
		if oc != -1 {
			t.Errorf("OldCompOf[%d] = %d, want -1 (both halves touched)", nc, oc)
		}
	}
	merge := &Delta{SetEdges: []EdgeDelta{{U: 0, V: 4, Weight: 2}}}
	if err := merge.Apply(g); err != nil {
		t.Fatal(err)
	}
	c3, _, err := c2.Patch(merge)
	if err != nil {
		t.Fatal(err)
	}
	if !csrIdentical(t, c3, g.Compile()) {
		t.Fatal("merge patch diverges from Compile")
	}
	if len(c3.comps) != 1 {
		t.Fatalf("components after merge = %d, want 1", len(c3.comps))
	}
}
