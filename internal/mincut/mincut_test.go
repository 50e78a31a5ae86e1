package mincut

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"copmecs/internal/graph"
)

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

// csrOf lays g out as the arrays the package takes: g's nodes in ascending
// id order are ids 0..n−1 (the tests' graphs number their nodes 0..n−1, so
// the two coincide).
func csrOf(g *graph.Graph) (off, tgt []int32, w []float64) {
	c := g.Compile()
	off = make([]int32, c.NumNodes()+1)
	for u := int32(0); u < int32(c.NumNodes()); u++ {
		t, wt := c.Adj(u)
		tgt, w = append(tgt, t...), append(w, wt...)
		off[u+1] = int32(len(tgt))
	}
	return off, tgt, w
}

// sideSet is a side list as the membership set graph.CutWeight takes.
func sideSet(side []int32) map[graph.NodeID]bool {
	set := make(map[graph.NodeID]bool, len(side))
	for _, u := range side {
		set[graph.NodeID(u)] = true
	}
	return set
}

// maskSet is a side mask as the membership set graph.CutWeight takes.
func maskSet(mask []bool) map[graph.NodeID]bool {
	set := make(map[graph.NodeID]bool)
	for u, in := range mask {
		if in {
			set[graph.NodeID(u)] = true
		}
	}
	return set
}

// randConnected builds a random connected graph.
func randConnected(rng *rand.Rand, n int, extra int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		if err := g.AddNode(graph.NodeID(i), 1); err != nil {
			panic(err)
		}
	}
	for i := 1; i < n; i++ {
		if err := g.AddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), rng.Float64()*9+1); err != nil {
			panic(err)
		}
	}
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if _, ok := g.EdgeWeight(graph.NodeID(u), graph.NodeID(v)); ok {
			continue
		}
		if err := g.AddEdge(graph.NodeID(u), graph.NodeID(v), rng.Float64()*9+1); err != nil {
			panic(err)
		}
	}
	return g
}

// bruteForceGlobalMinCut enumerates all 2^(n−1) bipartitions (small n only).
func bruteForceGlobalMinCut(g *graph.Graph) float64 {
	ids := g.Nodes()
	n := len(ids)
	best := math.Inf(1)
	for mask := 1; mask < 1<<(n-1); mask++ {
		side := make(map[graph.NodeID]bool)
		side[ids[0]] = true // fix node 0's side: halves the enumeration
		for b := 0; b < n-1; b++ {
			if mask&(1<<b) != 0 {
				side[ids[b+1]] = true
			}
		}
		if len(side) == n {
			continue
		}
		if cut := g.CutWeight(side); cut < best {
			best = cut
		}
	}
	return best
}

// bruteForceSTMinCut enumerates all s-t separating bipartitions.
func bruteForceSTMinCut(g *graph.Graph, s, t graph.NodeID) float64 {
	ids := g.Nodes()
	n := len(ids)
	best := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		side := make(map[graph.NodeID]bool)
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				side[ids[b]] = true
			}
		}
		if !side[s] || side[t] {
			continue
		}
		if cut := g.CutWeight(side); cut < best {
			best = cut
		}
	}
	return best
}

func TestMaxFlowSimplePath(t *testing.T) {
	// 0 -5- 1 -3- 2: max flow 0→2 is 3.
	off, tgt, w := csrOf(build(t, 3, []graph.Edge{{U: 0, V: 1, Weight: 5}, {U: 1, V: 2, Weight: 3}}))
	res, err := MaxFlow(off, tgt, w, 0, 2)
	if err != nil {
		t.Fatalf("MaxFlow: %v", err)
	}
	if res.Value != 3 {
		t.Errorf("flow = %v, want 3", res.Value)
	}
	if !res.SourceSide[0] || !res.SourceSide[1] || res.SourceSide[2] {
		t.Errorf("source side = %v, want {0,1}", res.SourceSide)
	}
}

func TestMaxFlowParallelPaths(t *testing.T) {
	// Two disjoint 0→3 paths with bottlenecks 2 and 4: flow 6.
	off, tgt, w := csrOf(build(t, 4, []graph.Edge{
		{U: 0, V: 1, Weight: 2}, {U: 1, V: 3, Weight: 7},
		{U: 0, V: 2, Weight: 9}, {U: 2, V: 3, Weight: 4},
	}))
	res, err := MaxFlow(off, tgt, w, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 6 {
		t.Errorf("flow = %v, want 6", res.Value)
	}
}

func TestMaxFlowErrors(t *testing.T) {
	off, tgt, w := csrOf(build(t, 2, []graph.Edge{{U: 0, V: 1, Weight: 1}}))
	eoff, etgt, ew := csrOf(graph.New(0))
	if _, err := MaxFlow(eoff, etgt, ew, 0, 1); !errors.Is(err, ErrEmptyGraph) {
		t.Errorf("empty error = %v", err)
	}
	if _, err := MaxFlow(off, tgt, w, 1, 1); !errors.Is(err, ErrSameNode) {
		t.Errorf("same-node error = %v", err)
	}
	if _, err := MaxFlow(off, tgt, w, 0, 9); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("missing sink error = %v", err)
	}
	if _, err := MaxFlow(off, tgt, w, 9, 0); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("missing source error = %v", err)
	}
}

func TestMaxFlowDisconnectedSourceSink(t *testing.T) {
	off, tgt, w := csrOf(build(t, 4, []graph.Edge{{U: 0, V: 1, Weight: 5}, {U: 2, V: 3, Weight: 5}}))
	res, err := MaxFlow(off, tgt, w, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Errorf("flow across components = %v, want 0", res.Value)
	}
}

func TestMaxFlowMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(5) // ≤ 8 nodes for the brute force
		g := randConnected(rng, n, rng.Intn(2*n))
		s, tt := graph.NodeID(0), graph.NodeID(n-1)
		off, tgt, w := csrOf(g)
		res, err := MaxFlow(off, tgt, w, int32(s), int32(tt))
		if err != nil {
			t.Fatalf("MaxFlow: %v", err)
		}
		want := bruteForceSTMinCut(g, s, tt)
		if math.Abs(res.Value-want) > 1e-9 {
			t.Errorf("trial %d: flow %v ≠ brute-force min cut %v", trial, res.Value, want)
		}
		// Duality: residual cut weight equals flow value.
		if cut := g.CutWeight(maskSet(res.SourceSide)); math.Abs(cut-res.Value) > 1e-9 {
			t.Errorf("trial %d: residual cut %v ≠ flow %v", trial, cut, res.Value)
		}
	}
}

func TestSTMinCutSides(t *testing.T) {
	off, tgt, wts := csrOf(build(t, 3, []graph.Edge{{U: 0, V: 1, Weight: 5}, {U: 1, V: 2, Weight: 3}}))
	res, err := MaxFlow(off, tgt, wts, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := split(res.SourceSide); res.Value != 3 || len(a) != 2 || len(b) != 1 {
		t.Errorf("min 0-2 cut = %v %v %v", a, b, res.Value)
	}
}

func TestMaxFlowBisectDumbbell(t *testing.T) {
	var edges []graph.Edge
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges,
				graph.Edge{U: graph.NodeID(i), V: graph.NodeID(j), Weight: 10},
				graph.Edge{U: graph.NodeID(4 + i), V: graph.NodeID(4 + j), Weight: 10})
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 4, Weight: 0.5})
	off, tgt, wts := csrOf(build(t, 8, edges))
	a, b, w, err := MaxFlowBisect(off, tgt, wts)
	if err != nil {
		t.Fatalf("MaxFlowBisect: %v", err)
	}
	if w != 0.5 {
		t.Errorf("bisect weight = %v, want 0.5", w)
	}
	if len(a) == 0 || len(b) == 0 {
		t.Error("a side is empty")
	}
}

func TestMaxFlowBisectEdgeCases(t *testing.T) {
	off, tgt, wts := csrOf(graph.New(0))
	if _, _, _, err := MaxFlowBisect(off, tgt, wts); !errors.Is(err, ErrEmptyGraph) {
		t.Errorf("empty error = %v", err)
	}
	off, tgt, wts = csrOf(build(t, 1, nil))
	a, b, w, err := MaxFlowBisect(off, tgt, wts)
	if err != nil || len(a) != 1 || len(b) != 0 || w != 0 {
		t.Errorf("single = %v %v %v %v", a, b, w, err)
	}
	off, tgt, wts = csrOf(build(t, 4, []graph.Edge{{U: 0, V: 1, Weight: 2}, {U: 2, V: 3, Weight: 2}}))
	a, b, w, err = MaxFlowBisect(off, tgt, wts)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0 || len(a)+len(b) != 4 {
		t.Errorf("disconnected bisect = %v %v %v", a, b, w)
	}
}

func TestGlobalMinCutKnown(t *testing.T) {
	// Classic Stoer–Wagner example graph (8 nodes, min cut 4).
	edges := []graph.Edge{
		{U: 0, V: 1, Weight: 2}, {U: 0, V: 4, Weight: 3},
		{U: 1, V: 2, Weight: 3}, {U: 1, V: 4, Weight: 2}, {U: 1, V: 5, Weight: 2},
		{U: 2, V: 3, Weight: 4}, {U: 2, V: 6, Weight: 2},
		{U: 3, V: 6, Weight: 2}, {U: 3, V: 7, Weight: 2},
		{U: 4, V: 5, Weight: 3},
		{U: 5, V: 6, Weight: 1},
		{U: 6, V: 7, Weight: 3},
	}
	_, _, w, err := GlobalMinCut(csrOf(build(t, 8, edges)))
	if err != nil {
		t.Fatalf("GlobalMinCut: %v", err)
	}
	if w != 4 {
		t.Errorf("min cut = %v, want 4", w)
	}
}

func TestGlobalMinCutMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(6)
		g := randConnected(rng, n, rng.Intn(2*n))
		a, b, w, err := GlobalMinCut(csrOf(g))
		if err != nil {
			t.Fatalf("GlobalMinCut: %v", err)
		}
		want := bruteForceGlobalMinCut(g)
		if math.Abs(w-want) > 1e-9 {
			t.Errorf("trial %d: stoer-wagner %v ≠ brute force %v", trial, w, want)
		}
		if len(a) == 0 || len(b) == 0 || len(a)+len(b) != n {
			t.Errorf("trial %d: bad sides %v | %v", trial, a, b)
		}
		side := sideSet(a)
		if math.Abs(g.CutWeight(side)-w) > 1e-9 {
			t.Errorf("trial %d: reported %v, recomputed %v", trial, w, g.CutWeight(side))
		}
	}
}

func TestGlobalMinCutEdgeCases(t *testing.T) {
	if _, _, _, err := GlobalMinCut(csrOf(graph.New(0))); !errors.Is(err, ErrEmptyGraph) {
		t.Errorf("empty error = %v", err)
	}
	a, b, w, err := GlobalMinCut(csrOf(build(t, 1, nil)))
	if err != nil || len(a) != 1 || len(b) != 0 || w != 0 {
		t.Errorf("single = %v %v %v %v", a, b, w, err)
	}
	_, _, w, err = GlobalMinCut(csrOf(build(t, 4, []graph.Edge{{U: 0, V: 1, Weight: 5}, {U: 2, V: 3, Weight: 5}})))
	if err != nil {
		t.Fatal(err)
	}
	if w != 0 {
		t.Errorf("disconnected min cut = %v, want 0", w)
	}
}

func TestKernighanLinBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(20)
		g := randConnected(rng, n, rng.Intn(3*n))
		a, b, w, err := KernighanLin(csrOf(g))
		if err != nil {
			t.Fatalf("KernighanLin: %v", err)
		}
		if diff := len(a) - len(b); diff < -1 || diff > 1 {
			t.Errorf("trial %d: unbalanced %d/%d", trial, len(a), len(b))
		}
		side := sideSet(a)
		if math.Abs(g.CutWeight(side)-w) > 1e-9 {
			t.Errorf("trial %d: reported %v, recomputed %v", trial, w, g.CutWeight(side))
		}
	}
}

func TestKernighanLinImprovesDumbbell(t *testing.T) {
	// Interleave clique membership across the initial ID split so KL must
	// actually swap to find the bridge cut.
	var edges []graph.Edge
	cliqueOf := func(id int) int { return id % 2 } // even IDs clique 0, odd clique 1
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if cliqueOf(i) == cliqueOf(j) {
				edges = append(edges, graph.Edge{U: graph.NodeID(i), V: graph.NodeID(j), Weight: 10})
			}
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 1, Weight: 0.5})
	_, _, w, err := KernighanLin(csrOf(build(t, 8, edges)))
	if err != nil {
		t.Fatal(err)
	}
	if w != 0.5 {
		t.Errorf("KL cut = %v, want 0.5 (the bridge)", w)
	}
}

func TestKernighanLinEdgeCases(t *testing.T) {
	if _, _, _, err := KernighanLin(csrOf(graph.New(0))); !errors.Is(err, ErrEmptyGraph) {
		t.Errorf("empty error = %v", err)
	}
	a, b, w, err := KernighanLin(csrOf(build(t, 1, nil)))
	if err != nil || len(a) != 1 || len(b) != 0 || w != 0 {
		t.Errorf("single = %v %v %v %v", a, b, w, err)
	}
	a, b, w, err = KernighanLin(csrOf(build(t, 2, []graph.Edge{{U: 0, V: 1, Weight: 3}})))
	if err != nil || len(a) != 1 || len(b) != 1 || w != 3 {
		t.Errorf("pair = %v %v %v %v", a, b, w, err)
	}
}

func TestPropertyMaxFlowLowerBoundsGlobal(t *testing.T) {
	// Any s-t cut upper-bounds nothing globally, but the global min cut is
	// ≤ every s-t min cut.
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%8) + 3
		off, tgt, w := csrOf(randConnected(rng, n, rng.Intn(n)))
		_, _, global, err := GlobalMinCut(off, tgt, w)
		if err != nil {
			return false
		}
		res, err := MaxFlow(off, tgt, w, 0, int32(n-1))
		if err != nil {
			return false
		}
		return global <= res.Value+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyKLNeverEmptySides(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%15) + 2
		a, b, _, err := KernighanLin(csrOf(randConnected(rng, n, rng.Intn(n))))
		if err != nil {
			return false
		}
		return len(a) > 0 && len(b) > 0 && len(a)+len(b) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
