package spectral

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"copmecs/internal/graph"
	"copmecs/internal/matrix"
	"copmecs/internal/numeric"
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

// csrOf lays g out as the arrays BisectCSRInto takes: g's nodes in
// ascending id order are indices 0..n−1.
func csrOf(g *graph.Graph) (off, tgt []int32, wts []float64) {
	c := g.Compile()
	off = make([]int32, c.NumNodes()+1)
	for u := int32(0); u < int32(c.NumNodes()); u++ {
		t, w := c.Adj(u)
		tgt, wts = append(tgt, t...), append(wts, w...)
		off[u+1] = int32(len(tgt))
	}
	return off, tgt, wts
}

// graphCut is a two-way split of a test graph's nodes.
type graphCut struct {
	// SideA and SideB partition the graph's nodes; both are sorted.
	SideA, SideB []graph.NodeID
	// Weight is the total weight of edges crossing the cut (formula (8)).
	Weight float64
	// Lambda2 is the second-smallest eigenvalue of the Laplacian the kernel
	// assembled.
	Lambda2 float64
}

// bisectGraph is the tests' *graph.Graph front of the CSR kernel: lay g out,
// bisect over indices, translate the sides back to NodeIDs (index order is
// NodeID order, so both sides come out sorted). Weight is summed u
// ascending, v > u ascending — graph.CutWeight's order, so the two agree to
// the last bit. Every cut it returns is held to Theorem 1's bound.
func bisectGraph(t *testing.T, g *graph.Graph, opts Options) (*graphCut, error) {
	t.Helper()
	off, tgt, wts := csrOf(g)
	n := len(off) - 1
	a, b, lambda2, err := bisectCSR(off, tgt, wts, make([]int32, max(n, 0)), opts)
	if err != nil {
		return nil, err
	}
	ids := g.Nodes()
	cut := &graphCut{Lambda2: lambda2}
	inA := make([]bool, n)
	for _, u := range a {
		cut.SideA = append(cut.SideA, ids[u])
		inA[u] = true
	}
	for _, u := range b {
		cut.SideB = append(cut.SideB, ids[u])
	}
	cut.Weight = cutWeight(off, tgt, wts, inA)
	if err := theorem1(cut.Weight, lambda2, len(a), len(b)); err != nil {
		t.Error(err)
	}
	return cut, nil
}

// cutWeight is formula (8) over the arrays, u ascending, v > u ascending.
func cutWeight(off, tgt []int32, wts []float64, inA []bool) float64 {
	var w float64
	for u := range inA {
		for e := off[u]; e < off[u+1]; e++ {
			if v := tgt[e]; int(v) > u && inA[u] != inA[v] {
				w += wts[e]
			}
		}
	}
	return w
}

// theorem1 checks Theorem 1's bound for a returned cut: with q the side-A
// indicator, qᵀLq = cut(A, B) and ‖q − (|A|/n)·1‖² = |A|·|B|/n, so the
// Courant–Fischer characterisation of λ₂ gives cut(A, B) ≥ λ₂·|A|·|B|/n.
func theorem1(cut, lambda2 float64, sizeA, sizeB int) error {
	n := float64(sizeA + sizeB)
	if bound := lambda2 * float64(sizeA) * float64(sizeB) / n; cut < bound-1e-9*(1+bound) {
		return fmt.Errorf("theorem 1: cut %v below λ₂·|A|·|B|/n = %v (λ₂ %v, |A| %d, |B| %d)", cut, bound, lambda2, sizeA, sizeB)
	}
	return nil
}

// cutFromQ evaluates Theorem 2 on the Laplacian bisectCSR assembles: given
// the side-indicator values d1 (side A) and d2 (side B), it returns
// qᵀLq/(d1−d2)², which equals the cut weight.
func cutFromQ(off, tgt []int32, wts []float64, inA []bool, d1, d2 float64) (float64, error) {
	if numeric.Eq(d1, d2) {
		return 0, fmt.Errorf("spectral: d1 ≈ d2 ≈ %g carries no cut information", d1)
	}
	n := len(off) - 1
	if n <= 0 {
		return 0, ErrEmptyGraph
	}
	q := make(matrix.Vector, n)
	for i := range q {
		if inA[i] {
			q[i] = d1
		} else {
			q[i] = d2
		}
	}
	var s bisectScratch
	if err := s.laplacian(off, tgt, wts); err != nil {
		return 0, err
	}
	lq := make(matrix.Vector, n)
	s.lap.MulVecRange(q, lq, 0, n)
	qf, err := q.Dot(lq)
	if err != nil {
		return 0, fmt.Errorf("spectral: %w", err)
	}
	return qf / ((d1 - d2) * (d1 - d2)), nil
}

// dumbbell builds two K4 cliques (heavy) joined by one weak bridge.
func dumbbell(t *testing.T) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges,
				graph.Edge{U: graph.NodeID(i), V: graph.NodeID(j), Weight: 10},
				graph.Edge{U: graph.NodeID(4 + i), V: graph.NodeID(4 + j), Weight: 10})
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 4, Weight: 0.5})
	return build(t, 8, edges)
}

func TestBisectDumbbell(t *testing.T) {
	g := dumbbell(t)
	cut, err := bisectGraph(t, g, Options{})
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if cut.Weight != 0.5 {
		t.Errorf("cut weight = %v, want 0.5 (the bridge)", cut.Weight)
	}
	if len(cut.SideA) != 4 || len(cut.SideB) != 4 {
		t.Errorf("sides = %d/%d, want 4/4", len(cut.SideA), len(cut.SideB))
	}
	// Verify the cut weight against an explicit recount.
	side := make(map[graph.NodeID]bool)
	for _, id := range cut.SideA {
		side[id] = true
	}
	if got := g.CutWeight(side); got != cut.Weight {
		t.Errorf("reported %v, recomputed %v", cut.Weight, got)
	}
}

func TestBisectErrorsAndDegenerate(t *testing.T) {
	if _, err := bisectGraph(t, graph.New(0), Options{}); !errors.Is(err, ErrEmptyGraph) {
		t.Errorf("empty error = %v, want ErrEmptyGraph", err)
	}
	single := build(t, 1, nil)
	cut, err := bisectGraph(t, single, Options{})
	if err != nil {
		t.Fatalf("single-node Bisect: %v", err)
	}
	if len(cut.SideA) != 1 || len(cut.SideB) != 0 || cut.Weight != 0 {
		t.Errorf("single-node cut = %+v", cut)
	}
}

func TestBisectPair(t *testing.T) {
	g := build(t, 2, []graph.Edge{{U: 0, V: 1, Weight: 3}})
	cut, err := bisectGraph(t, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Weight != 3 {
		t.Errorf("pair cut weight = %v, want 3", cut.Weight)
	}
	if len(cut.SideA) != 1 || len(cut.SideB) != 1 {
		t.Errorf("pair sides = %d/%d", len(cut.SideA), len(cut.SideB))
	}
}

func TestBisectDisconnected(t *testing.T) {
	// Two components: the free cut (weight 0) must be found.
	g := build(t, 4, []graph.Edge{{U: 0, V: 1, Weight: 5}, {U: 2, V: 3, Weight: 5}})
	cut, err := bisectGraph(t, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Weight != 0 {
		t.Errorf("disconnected cut weight = %v, want 0", cut.Weight)
	}
	if len(cut.SideA) == 0 || len(cut.SideB) == 0 {
		t.Errorf("one side empty: %+v", cut)
	}
}

func TestBisectSweepNoWorseThanSign(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(30)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			if err := g.AddNode(graph.NodeID(i), 1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < n; i++ {
			if err := g.AddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), rng.Float64()*10+0.1); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				if _, ok := g.EdgeWeight(graph.NodeID(u), graph.NodeID(v)); !ok {
					if err := g.AddEdge(graph.NodeID(u), graph.NodeID(v), rng.Float64()*10+0.1); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		sweep, err := bisectGraph(t, g, Options{})
		if err != nil {
			t.Fatalf("sweep Bisect: %v", err)
		}
		sign, err := bisectGraph(t, g, Options{DisableSweep: true})
		if err != nil {
			t.Fatalf("sign Bisect: %v", err)
		}
		if sweep.Weight > sign.Weight+1e-9 {
			t.Errorf("trial %d: sweep cut %v worse than sign cut %v", trial, sweep.Weight, sign.Weight)
		}
	}
}

func TestBisectNonContiguousIDs(t *testing.T) {
	g := graph.New(3)
	for _, id := range []graph.NodeID{10, 20, 30} {
		if err := g.AddNode(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(10, 20, 9); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(20, 30, 1); err != nil {
		t.Fatal(err)
	}
	cut, err := bisectGraph(t, g, Options{})
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if cut.Weight != 1 {
		t.Errorf("cut weight = %v, want 1 (split the weak edge)", cut.Weight)
	}
	total := len(cut.SideA) + len(cut.SideB)
	if total != 3 {
		t.Errorf("sides cover %d nodes, want 3", total)
	}
}

func TestCutFromQTheorem2(t *testing.T) {
	g := dumbbell(t)
	off, tgt, wts := csrOf(g)
	inA := []bool{true, true, true, true, false, false, false, false}
	want := g.CutWeight(map[graph.NodeID]bool{0: true, 1: true, 2: true, 3: true})
	for _, d := range [][2]float64{{1, -1}, {3, 7}, {-2, 5}} {
		got, err := cutFromQ(off, tgt, wts, inA, d[0], d[1])
		if err != nil {
			t.Fatalf("cutFromQ(%v): %v", d, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("cutFromQ(d1=%v,d2=%v) = %v, want %v", d[0], d[1], got, want)
		}
	}
	if _, err := cutFromQ(off, tgt, wts, inA, 2, 2); err == nil {
		t.Error("d1 == d2 accepted")
	}
	if _, err := cutFromQ([]int32{0}, nil, nil, nil, 1, -1); !errors.Is(err, ErrEmptyGraph) {
		t.Errorf("empty error = %v", err)
	}
}

func TestPropertyBisectPartitions(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%30) + 2
		g := graph.New(n)
		for i := 0; i < n; i++ {
			if err := g.AddNode(graph.NodeID(i), 1); err != nil {
				return false
			}
		}
		for i := 1; i < n; i++ {
			if err := g.AddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), rng.Float64()*5+0.1); err != nil {
				return false
			}
		}
		cut, err := bisectGraph(t, g, Options{})
		if err != nil {
			return false
		}
		// Sides partition the node set.
		seen := make(map[graph.NodeID]bool)
		for _, id := range append(append([]graph.NodeID{}, cut.SideA...), cut.SideB...) {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		if len(seen) != n || len(cut.SideA) == 0 || len(cut.SideB) == 0 {
			return false
		}
		// Reported weight is consistent.
		side := make(map[graph.NodeID]bool)
		for _, id := range cut.SideA {
			side[id] = true
		}
		return math.Abs(g.CutWeight(side)-cut.Weight) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyLambda2BoundsConnectedCut(t *testing.T) {
	// On connected graphs the returned cut is positive, λ₂ > 0, Theorem 2
	// weighs the cut on the Laplacian the kernel assembles, and Theorem 1
	// bounds it below by λ₂·|A|·|B|/n.
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%20) + 3
		g := graph.New(n)
		for i := 0; i < n; i++ {
			if err := g.AddNode(graph.NodeID(i), 1); err != nil {
				return false
			}
		}
		for i := 1; i < n; i++ {
			if err := g.AddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), rng.Float64()*5+0.5); err != nil {
				return false
			}
		}
		off, tgt, wts := csrOf(g)
		a, b, lambda2, err := bisectCSR(off, tgt, wts, make([]int32, n), Options{})
		if err != nil {
			return false
		}
		inA := make([]bool, n)
		for _, u := range a {
			inA[u] = true
		}
		cut := cutWeight(off, tgt, wts, inA)
		q, err := cutFromQ(off, tgt, wts, inA, 1, -1)
		if err != nil || math.Abs(q-cut) > 1e-9*(1+cut) {
			t.Logf("n %d: qᵀLq/4 = %v, cut %v (%v)", n, q, cut, err)
			return false
		}
		if err := theorem1(cut, lambda2, len(a), len(b)); err != nil {
			t.Logf("n %d: %v", n, err)
			return false
		}
		return lambda2 > 1e-9 && cut > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBisectRatioCutBalances(t *testing.T) {
	// A uniform ring: MinCut and RatioCut both cost 2 edges, but RatioCut
	// must pick a balanced split.
	n := 16
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: graph.NodeID(i), V: graph.NodeID((i + 1) % n), Weight: 1})
	}
	g := build(t, n, edges)
	cut, err := bisectGraph(t, g, Options{Objective: RatioCut})
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if len(cut.SideA) < n/4 || len(cut.SideB) < n/4 {
		t.Errorf("ratio cut unbalanced: %d/%d", len(cut.SideA), len(cut.SideB))
	}
	if cut.Weight != 2 {
		t.Errorf("ring cut weight = %v, want 2", cut.Weight)
	}
}

func TestBisectRatioCutStillFindsBridge(t *testing.T) {
	// The dumbbell's bridge is both the min cut and the best ratio cut.
	g := dumbbell(t)
	cut, err := bisectGraph(t, g, Options{Objective: RatioCut})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Weight != 0.5 {
		t.Errorf("ratio cut weight = %v, want 0.5", cut.Weight)
	}
	if len(cut.SideA) != 4 || len(cut.SideB) != 4 {
		t.Errorf("sides = %d/%d, want 4/4", len(cut.SideA), len(cut.SideB))
	}
}

func TestBisectRatioVsMinCutTradeoff(t *testing.T) {
	// A path with one pendant vertex on a weak edge: MinCut peels the
	// pendant, RatioCut prefers a balanced interior split.
	n := 12
	var edges []graph.Edge
	for i := 0; i < n-2; i++ {
		edges = append(edges, graph.Edge{U: graph.NodeID(i), V: graph.NodeID(i + 1), Weight: 5})
	}
	edges = append(edges, graph.Edge{U: 0, V: graph.NodeID(n - 1), Weight: 0.1})
	g := build(t, n, edges)
	minc, err := bisectGraph(t, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := bisectGraph(t, g, Options{Objective: RatioCut})
	if err != nil {
		t.Fatal(err)
	}
	if minc.Weight > ratio.Weight {
		t.Errorf("min-cut objective produced heavier cut (%v) than ratio (%v)",
			minc.Weight, ratio.Weight)
	}
	balanceMin := len(minc.SideA)
	if len(minc.SideB) < balanceMin {
		balanceMin = len(minc.SideB)
	}
	balanceRatio := len(ratio.SideA)
	if len(ratio.SideB) < balanceRatio {
		balanceRatio = len(ratio.SideB)
	}
	if balanceRatio < balanceMin {
		t.Errorf("ratio cut less balanced (%d) than min cut (%d)", balanceRatio, balanceMin)
	}
}
