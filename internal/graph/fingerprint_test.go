package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// fpGraph builds a small weighted graph for fingerprint tests.
func fpGraph(t *testing.T) *Graph {
	t.Helper()
	g := New(0)
	for i, w := range []float64{50, 120, 200, 30} {
		if err := g.AddNode(NodeID(i), w); err != nil {
			t.Fatalf("AddNode(%d): %v", i, err)
		}
	}
	for _, e := range [][3]float64{{0, 1, 40}, {1, 2, 5}, {2, 3, 60}} {
		if err := g.AddEdge(NodeID(e[0]), NodeID(e[1]), e[2]); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g
}

func TestFingerprintDeterministic(t *testing.T) {
	g := fpGraph(t)
	a, err := g.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	b, err := g.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	if a != b {
		t.Fatalf("same graph fingerprinted twice: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint length = %d, want 64 hex chars", len(a))
	}
}

func TestFingerprintCloneAndInsertionOrder(t *testing.T) {
	g := fpGraph(t)
	want, err := g.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}

	if got, err := g.Clone().Fingerprint(); err != nil || got != want {
		t.Fatalf("clone fingerprint = %s (%v), want %s", got, err, want)
	}

	// Same content built in a different insertion order.
	h := New(0)
	for _, i := range []int{3, 1, 0, 2} {
		w := []float64{50, 120, 200, 30}[i]
		if err := h.AddNode(NodeID(i), w); err != nil {
			t.Fatalf("AddNode(%d): %v", i, err)
		}
	}
	for _, e := range [][3]float64{{2, 3, 60}, {0, 1, 40}, {1, 2, 5}} {
		if err := h.AddEdge(NodeID(e[0]), NodeID(e[1]), e[2]); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	if !g.Equal(h) {
		t.Fatal("test graphs should be equal")
	}
	if got, err := h.Fingerprint(); err != nil || got != want {
		t.Fatalf("reordered-build fingerprint = %s (%v), want %s", got, err, want)
	}
}

func TestFingerprintSurvivesCodecRoundTrips(t *testing.T) {
	g := fpGraph(t)
	want, err := g.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}

	// JSON round trip.
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var fromJSON Graph
	if err := json.Unmarshal(data, &fromJSON); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got, err := fromJSON.Fingerprint(); err != nil || got != want {
		t.Fatalf("JSON round-trip fingerprint = %s (%v), want %s", got, err, want)
	}

	// Binary round trip.
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	fromBin, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if got, err := fromBin.Fingerprint(); err != nil || got != want {
		t.Fatalf("binary round-trip fingerprint = %s (%v), want %s", got, err, want)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpGraph(t)
	want, err := base.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(g *Graph) error
	}{
		{"node weight", func(g *Graph) error { return g.SetNodeWeight(1, 121) }},
		{"extra node", func(g *Graph) error { return g.AddNode(9, 1) }},
		{"extra edge", func(g *Graph) error { return g.AddEdge(0, 3, 1) }},
		{"removed edge", func(g *Graph) error {
			if !g.RemoveEdge(1, 2) {
				t.Fatal("RemoveEdge(1,2) = false")
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := base.Clone()
			if err := tc.mutate(g); err != nil {
				t.Fatalf("mutate: %v", err)
			}
			got, err := g.Fingerprint()
			if err != nil {
				t.Fatalf("Fingerprint: %v", err)
			}
			if got == want {
				t.Fatalf("mutated graph kept fingerprint %s", want)
			}
		})
	}
}

// TestFingerprintGolden pins the digest strings themselves: journals and
// snapshots persist them, so an encoder change that keeps fingerprints
// self-consistent but moves the bytes would orphan every stored record. The
// format v2 digests were computed by an independent script from the
// definition in fingerprint.go (all but the NaN case, whose NaN bits the
// script does not reproduce). Every entry point is held to them — the map
// graph, its record, its compiled view, and a view patched by a delta and
// then by its inverse, which re-hashes only its stale chunks — because they
// share one chunk loop, so a change to it moves them all together. Every
// writer of the record lays the same bytes. A v2 fingerprint is never the
// SHA-256 of the v1 definition, the whole binary encoding: the headers
// differ.
func TestFingerprintGolden(t *testing.T) {
	build := func(nodes []NodeDelta, edges []EdgeDelta) *Graph {
		g := New(len(nodes))
		for _, n := range nodes {
			if err := g.AddNode(n.ID, n.Weight); err != nil {
				t.Fatalf("AddNode(%d): %v", n.ID, err)
			}
		}
		for _, e := range edges {
			if err := g.AddEdge(e.U, e.V, e.Weight); err != nil {
				t.Fatalf("AddEdge(%d,%d): %v", e.U, e.V, err)
			}
		}
		return g
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		want string
	}{
		{"dense ids", fpGraph(t), "1e34c1631ad2c3243d8f191b20173984c8b5c9740d145cebc9cbfd9c2d023b0e"},
		{"sparse and negative ids", build(
			[]NodeDelta{{-1 << 31, 1.5}, {-7, 0}, {3, 2.25}, {1000, 1e-300}, {1<<31 - 1, 1e300}},
			[]EdgeDelta{{-7, 3, 0.125}, {1<<31 - 1, -1 << 31, 7}, {1000, 3, 0}, {-7, 1000, 42}},
		), "1d850d79cf4bc69207ffb817c800b06233eb9cb4247a50b3ff337e8c2f1db748"},
		{"NaN and +Inf weights", build(
			[]NodeDelta{{0, math.NaN()}, {1, math.Inf(1)}, {2, 1}, {3, 0}},
			[]EdgeDelta{{0, 1, math.NaN()}, {1, 2, math.Inf(1)}, {2, 3, 4}, {0, 3, math.MaxFloat64}},
		), "e41fa5bb1b1f56e1f80875e5407ddada2efa847af78e29902cc14d4504f470ce"},
		{"three chunks: a 70-node cycle", cycle70(t), "21642f6ac6a5dd48e1b97ed853ab67dcf83929fc154bf3aae683e66da3892252"},
	} {
		got, err := tc.g.Fingerprint()
		if err != nil {
			t.Fatalf("%s: Fingerprint: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: fingerprint = %s, want %s", tc.name, got, tc.want)
		}
		rec := tc.g.AppendBinary(nil)
		if got, err := FingerprintBinary(rec); err != nil || got != tc.want {
			t.Errorf("%s: FingerprintBinary = %s (%v), want %s", tc.name, got, err, tc.want)
		}
		view := tc.g.Compile()
		if got, err := view.Fingerprint(); err != nil || got != tc.want {
			t.Errorf("%s: CSR.Fingerprint = %s (%v), want %s", tc.name, got, err, tc.want)
		}
		if got := rekeyedRoundTrip(t, tc.g, view); got != tc.want {
			t.Errorf("%s: patched-and-restored view's Fingerprint = %s, want %s", tc.name, got, tc.want)
		}
		var w bytes.Buffer
		if err := tc.g.WriteBinary(&w); err != nil {
			t.Fatalf("%s: WriteBinary: %v", tc.name, err)
		}
		if !bytes.Equal(view.AppendBinary(nil), rec) || !bytes.Equal(w.Bytes(), rec) {
			t.Errorf("%s: Graph.AppendBinary, CSR.AppendBinary and WriteBinary lay different bytes", tc.name)
		}
		v1 := sha256.Sum256(rec)
		if got == hex.EncodeToString(v1[:]) {
			t.Errorf("%s: the v2 fingerprint is the SHA-256 of the v1 encoding", tc.name)
		}
	}
}

// rekeyedRoundTrip returns the Fingerprint of view, the fingerprinted view
// of g, patched by a delta that re-weights its first and last nodes and then
// by the delta's inverse: each patch re-hashes only the chunks it marked
// stale from its source's digests. The view between the two must key as g
// with the delta applied.
func rekeyedRoundTrip(t *testing.T, g *Graph, view *CSR) string {
	t.Helper()
	first, last := view.ids[0], view.ids[len(view.ids)-1]
	fwd := &Delta{SetNodeWeights: []NodeDelta{{first, 0.5}, {last, 0.25}}}
	inv := &Delta{SetNodeWeights: []NodeDelta{{first, view.nodeW[0]}, {last, view.nodeW[len(view.ids)-1]}}}
	mid := g.Clone()
	if err := fwd.Apply(mid); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	wantMid, err := mid.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	var fp string
	for i, d := range []*Delta{fwd, inv} {
		next, _, err := view.Patch(d)
		if err != nil {
			t.Fatalf("Patch: %v", err)
		}
		if next.fp.seed == nil {
			t.Fatal("Patch of a fingerprinted view seeded no chunk digests")
		}
		if fp, err = next.Fingerprint(); err != nil {
			t.Fatalf("Fingerprint: %v", err)
		}
		if i == 0 && fp != wantMid {
			t.Errorf("patched view's Fingerprint = %s, want the applied graph's %s", fp, wantMid)
		}
		view = next
	}
	return fp
}

// cycle70 is the 70-node cycle with node i weighing i and edge {i, i+1}
// weighing i + 0.5, closed by edge {0, 69} of weight 3: three chunks, the
// last one short.
func cycle70(t *testing.T) *Graph {
	t.Helper()
	g := New(70)
	for i := 0; i < 70; i++ {
		if err := g.AddNode(NodeID(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 69; i++ {
		if err := g.AddEdge(NodeID(i), NodeID(i+1), float64(i)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(0, 69, 3); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCSRFingerprintMatchesGraph holds CSR.Fingerprint to Graph.Fingerprint
// on compiled views and on views Patch built, over the shapes the index
// arithmetic could get wrong: sparse and negative ids, isolated nodes, a
// graph with no edges, and deltas that shift every index by adding and
// removing nodes. A fused view of two graphs has no single fingerprint.
func TestCSRFingerprintMatchesGraph(t *testing.T) {
	build := func(nodes []NodeDelta, edges []EdgeDelta) *Graph {
		g := New(len(nodes))
		for _, n := range nodes {
			if err := g.AddNode(n.ID, n.Weight); err != nil {
				t.Fatalf("AddNode(%d): %v", n.ID, err)
			}
		}
		for _, e := range edges {
			if err := g.SetEdge(e.U, e.V, e.Weight); err != nil {
				t.Fatalf("SetEdge(%d,%d): %v", e.U, e.V, err)
			}
		}
		return g
	}
	sparse := func() *Graph {
		return build(
			[]NodeDelta{{-1 << 31, 1.5}, {-7, 0}, {-2, 8}, {3, 2.25}, {1000, 1e-300}, {1<<31 - 1, 1e300}},
			[]EdgeDelta{{-7, 3, 0.125}, {1<<31 - 1, -1 << 31, 7}, {1000, 3, 0}, {-7, 1000, 42}},
		)
	}
	// wide is an id past 32 bits where int is 64 bits wide; on a 32-bit
	// platform it falls between the sparse graph's ids.
	const wide = NodeID(math.MaxInt >> 1)
	for _, tc := range []struct {
		name  string
		g     *Graph
		delta *Delta // nil: the compiled view alone
	}{
		{"dense ids", fpGraph(t), nil},
		{"sparse and negative ids, isolated node", sparse(), nil},
		{"isolated nodes", build([]NodeDelta{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {9, 5}}, []EdgeDelta{{1, 2, 6}}), nil},
		{"edgeless", build([]NodeDelta{{-4, 1}, {2, 2}, {5, 3}}, nil), nil},
		{"empty", New(0), nil},
		{"weights and edges only", fpGraph(t), &Delta{
			SetNodeWeights: []NodeDelta{{2, 11}},
			SetEdges:       []EdgeDelta{{0, 3, 9}, {1, 2, 0.5}},
			RemoveEdges:    []EdgePair{{2, 3}},
		}},
		{"remove nodes", sparse(), &Delta{RemoveNodes: []NodeID{-7, 1000}}},
		{"add nodes below, between and above", sparse(), &Delta{
			AddNodes: []NodeDelta{{-1<<31 + 1, 4}, {0, 5}, {wide, 6}},
			SetEdges: []EdgeDelta{{0, -2, 1}, {wide, -1 << 31, 2}, {-1<<31 + 1, 3, 3}},
		}},
		{"remove and re-add", sparse(), &Delta{
			RemoveNodes: []NodeID{3},
			AddNodes:    []NodeDelta{{3, 77}, {4, 1}},
			SetEdges:    []EdgeDelta{{3, 4, 2}},
		}},
		{"delta to edgeless", fpGraph(t), &Delta{RemoveEdges: []EdgePair{{0, 1}, {1, 2}, {2, 3}}}},
		{"delta to one node", fpGraph(t), &Delta{RemoveNodes: []NodeID{0, 1, 3}}},
	} {
		view := tc.g.Compile()
		if tc.delta != nil {
			var err error
			if view, _, err = view.Patch(tc.delta); err != nil {
				t.Fatalf("%s: Patch: %v", tc.name, err)
			}
			if err := tc.delta.Apply(tc.g); err != nil {
				t.Fatalf("%s: Apply: %v", tc.name, err)
			}
		}
		want, err := tc.g.Fingerprint()
		if err != nil {
			t.Fatalf("%s: Graph.Fingerprint: %v", tc.name, err)
		}
		if got, err := view.Fingerprint(); err != nil || got != want {
			t.Errorf("%s: CSR.Fingerprint = %s (%v), want %s", tc.name, got, err, want)
		}
	}

	if fp, err := Fuse([]*Graph{fpGraph(t), sparse()}).View.Fingerprint(); err == nil {
		t.Errorf("fused view of two graphs fingerprinted as %s, want an error", fp)
	}
}

func TestValidFingerprint(t *testing.T) {
	fp, err := fpGraph(t).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]bool{
		fp:                            true,
		strings.Repeat("0", 64):       true,
		"":                            false,
		fp[:63]:                       false,
		fp + "0":                      false,
		strings.ToUpper(fp):           false,
		"g" + fp[1:]:                  false,
		strings.Repeat("é", 32):       false, // 64 bytes, not hex
		" " + fp[1:]:                  false,
		strings.Repeat("0", 63) + "/": false,
	}
	for s, want := range cases {
		if got := ValidFingerprint(s); got != want {
			t.Errorf("ValidFingerprint(%q) = %v, want %v", s, got, want)
		}
	}
}

// chunkShapes are graphs whose chunking the fingerprint could get wrong:
// fewer rows than a chunk, sparse and negative ids over three chunks (the
// last one short), a row count that is a multiple of the chunk size, and no
// edges at all.
func chunkShapes(t interface{ Fatal(args ...any) }) []*Graph {
	rng := rand.New(rand.NewSource(3))
	shape := func(ids []NodeID, edges int) *Graph {
		g := New(len(ids))
		for _, id := range ids {
			if err := g.AddNode(id, 1+99*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		for g.NumEdges() < edges {
			u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if u == v {
				continue
			}
			if err := g.SetEdge(u, v, 1+99*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	ids := func(n int, id func(i int) NodeID) []NodeID {
		out := make([]NodeID, n)
		for i := range out {
			out[i] = id(i)
		}
		return out
	}
	return []*Graph{
		shape(ids(20, func(i int) NodeID { return NodeID(i) }), 30),
		shape(ids(70, func(i int) NodeID { return NodeID((i - 35) * (i - 35) * (i - 35) * 1_000_003) }), 150),
		shape(ids(64, func(i int) NodeID { return NodeID(i) }), 120),
		shape(ids(40, func(i int) NodeID { return NodeID(3*i - 60) }), 0),
	}
}

// TestFingerprintDeltaChains walks random delta chains over chunkShapes —
// node adds and removes among them — and holds the patched view's
// fingerprint to the applied graph's, its compiled view's and its
// encoding's at every step. On even seeds the base view is fingerprinted
// before the first patch, so every step re-hashes only its marked chunks; on
// odd seeds the first patch has no digests to inherit.
func TestFingerprintDeltaChains(t *testing.T) {
	for si, shape := range chunkShapes(t) {
		for seed := int64(1); seed <= 40; seed++ {
			g := shape.Clone()
			view := g.Compile()
			if seed%2 == 0 {
				if _, err := view.Fingerprint(); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 8; step++ {
				d := randomDelta(rng, g)
				if err := d.Apply(g); err != nil {
					t.Fatalf("shape %d seed %d step %d: Apply: %v", si, seed, step, err)
				}
				var err error
				if view, _, err = view.Patch(d); err != nil {
					t.Fatalf("shape %d seed %d step %d: Patch: %v", si, seed, step, err)
				}
				fingerprintsAgree(t, view, g)
			}
		}
	}
}

// TestPatchMarksChunks patches a fingerprinted view of cycle70 and checks
// which chunks the patched view re-hashes: the chunk of an edited weight, the
// chunk of an edited or dropped edge's smaller endpoint (also when the drop
// comes from removing the larger one), and every chunk from the first
// shifted index on — and that the result is the applied graph's fingerprint.
func TestPatchMarksChunks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delta *Delta
		stale []bool
	}{
		{"one weight", &Delta{SetNodeWeights: []NodeDelta{{5, 9}}}, []bool{true, false, false}},
		{"edge across chunks", &Delta{SetEdges: []EdgeDelta{{40, 3, 1}}}, []bool{true, false, false}},
		{"removed closing edge", &Delta{RemoveEdges: []EdgePair{{69, 0}}}, []bool{true, false, false}},
		{"remove the last node", &Delta{RemoveNodes: []NodeID{69}}, []bool{true, false, true}},
		{"remove a middle node", &Delta{RemoveNodes: []NodeID{40}}, []bool{false, true, true}},
		{"append a node", &Delta{AddNodes: []NodeDelta{{1000, 1}}}, []bool{false, false, true}},
		{"shrink by a chunk", &Delta{RemoveNodes: []NodeID{64, 65, 66, 67, 68, 69}}, []bool{true, true}},
		{"grow by a chunk", &Delta{AddNodes: []NodeDelta{{-1, 1}, {-2, 2}}}, []bool{true, true, true}},
	} {
		g := cycle70(t)
		base := g.Compile()
		if _, err := base.Fingerprint(); err != nil {
			t.Fatal(err)
		}
		view, _, err := base.Patch(tc.delta)
		if err != nil {
			t.Fatalf("%s: Patch: %v", tc.name, err)
		}
		if !slices.Equal(view.fp.stale, tc.stale) {
			t.Errorf("%s: stale chunks %v, want %v", tc.name, view.fp.stale, tc.stale)
		}
		if err := tc.delta.Apply(g); err != nil {
			t.Fatalf("%s: Apply: %v", tc.name, err)
		}
		fingerprintsAgree(t, view, g)
	}
}

// TestFingerprintConcurrentPatches patches one shared view from 8 goroutines
// while each also fingerprints it: every patched view must fingerprint as
// its applied graph, and the shared view as its own (run under -race).
func TestFingerprintConcurrentPatches(t *testing.T) {
	g := cycle70(t)
	want, err := g.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	deltas := make([]*Delta, 8)
	wants := make([]string, len(deltas))
	for i := range deltas {
		deltas[i] = &Delta{SetNodeWeights: []NodeDelta{{NodeID(9 * i), 0.5}}}
		if i%2 == 1 {
			deltas[i].RemoveNodes = []NodeID{NodeID(9*i + 1)}
		}
		applied := g.Clone()
		if err := deltas[i].Apply(applied); err != nil {
			t.Fatal(err)
		}
		if wants[i], err = applied.Fingerprint(); err != nil {
			t.Fatal(err)
		}
	}
	shared := g.Compile()
	var wg sync.WaitGroup
	for i, d := range deltas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, _, err := shared.Patch(d)
			if err != nil {
				t.Errorf("delta %d: Patch: %v", i, err)
				return
			}
			if got, err := shared.Fingerprint(); err != nil || got != want {
				t.Errorf("delta %d: shared view fingerprint %s (%v), want %s", i, got, err, want)
			}
			if got, err := p.Fingerprint(); err != nil || got != wants[i] {
				t.Errorf("delta %d: patched view fingerprint %s (%v), want %s", i, got, err, wants[i])
			}
		}()
	}
	wg.Wait()
}
