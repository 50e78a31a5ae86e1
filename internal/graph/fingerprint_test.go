package graph

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
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
// digests were computed with the reflection-based encoder this one replaced.
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
		{"dense ids", fpGraph(t), "5636ad12fe4f47bb3dc70020681bbab30f04e1558a69bffaf1c9720a650fbe1c"},
		{"sparse and negative ids", build(
			[]NodeDelta{{-1 << 31, 1.5}, {-7, 0}, {3, 2.25}, {1000, 1e-300}, {1<<31 - 1, 1e300}},
			[]EdgeDelta{{-7, 3, 0.125}, {1<<31 - 1, -1 << 31, 7}, {1000, 3, 0}, {-7, 1000, 42}},
		), "3eff4e5dfb0dcfaee5b04e4ec643b2a485dd620134dbf064028f8eb8f0441df3"},
		{"NaN and +Inf weights", build(
			[]NodeDelta{{0, math.NaN()}, {1, math.Inf(1)}, {2, 1}, {3, 0}},
			[]EdgeDelta{{0, 1, math.NaN()}, {1, 2, math.Inf(1)}, {2, 3, 4}, {0, 3, math.MaxFloat64}},
		), "91e37bbbd55724a2422cf893eb3134207f24b8f67ac23a3335847dddeda3261b"},
	} {
		got, err := tc.g.Fingerprint()
		if err != nil {
			t.Fatalf("%s: Fingerprint: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: fingerprint = %s, want %s", tc.name, got, tc.want)
		}
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
