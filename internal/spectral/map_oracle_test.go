package spectral

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"copmecs/internal/eigen"
	"copmecs/internal/graph"
	"copmecs/internal/matrix"
)

// bisectMap is the original map-based Bisect — triplet Laplacian, map side
// sets, sort.Slice sweep — kept as the oracle the CSR kernel must reproduce
// bit for bit.
func bisectMap(g *graph.Graph, opts Options) (*graphCut, error) {
	n := g.NumNodes()
	switch n {
	case 0:
		return nil, ErrEmptyGraph
	case 1:
		return &graphCut{SideA: g.Nodes(), Weight: 0}, nil
	}

	nodes := g.Nodes()
	index := make(map[graph.NodeID]int, n)
	for i, id := range nodes {
		index[id] = i
	}
	edges := g.Edges()
	wedges := make([]matrix.WeightedEdge, len(edges))
	for i, e := range edges {
		wedges[i] = matrix.WeightedEdge{U: index[e.U], V: index[e.V], Weight: e.Weight}
	}
	lap, err := matrix.Laplacian(n, wedges)
	if err != nil {
		return nil, fmt.Errorf("spectral: %w", err)
	}
	lambda2, vec, err := eigen.Fiedler(lap, opts.Eigen)
	if err != nil {
		return nil, fmt.Errorf("spectral: %w", err)
	}

	var side map[graph.NodeID]bool
	if opts.DisableSweep {
		side = signSplit(nodes, vec)
	} else {
		side = sweepCut(g, nodes, vec, opts.Objective)
	}
	cut := &graphCut{Lambda2: lambda2, Weight: g.CutWeight(side)}
	for _, id := range nodes {
		if side[id] {
			cut.SideA = append(cut.SideA, id)
		} else {
			cut.SideB = append(cut.SideB, id)
		}
	}
	return cut, nil
}

// signSplit assigns side A to non-negative Fiedler entries. If the split is
// degenerate (all entries one sign, possible with near-zero round-off), the
// most extreme node is peeled off so both sides are non-empty.
func signSplit(nodes []graph.NodeID, vec matrix.Vector) map[graph.NodeID]bool {
	side := make(map[graph.NodeID]bool, len(nodes))
	countA := 0
	for i, id := range nodes {
		if vec[i] >= 0 {
			side[id] = true
			countA++
		}
	}
	if countA == 0 || countA == len(nodes) {
		// Degenerate: separate the entry with the largest magnitude.
		extreme := 0
		for i := range vec {
			if abs(vec[i]) > abs(vec[extreme]) {
				extreme = i
			}
		}
		side = map[graph.NodeID]bool{nodes[extreme]: true}
	}
	return side
}

// sweepCut orders nodes by Fiedler value and returns the prefix split with
// the smallest objective, computed incrementally in O(E + V log V).
func sweepCut(g *graph.Graph, nodes []graph.NodeID, vec matrix.Vector, obj Objective) map[graph.NodeID]bool {
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		// Exact < in both directions keeps the comparator a strict weak
		// ordering (a tolerance-based equality is not transitive), with
		// node IDs as the deterministic tie-break.
		va, vb := vec[order[a]], vec[order[b]]
		if va < vb {
			return true
		}
		if vb < va {
			return false
		}
		return nodes[order[a]] < nodes[order[b]]
	})

	inPrefix := make(map[graph.NodeID]bool, len(nodes))
	n := len(nodes)
	var (
		cur     float64
		best    = math.Inf(1)
		bestLen int
	)
	for k := 0; k < len(order)-1; k++ {
		id := nodes[order[k]]
		// Moving id into the prefix flips the crossing state of its edges.
		for _, nb := range g.Neighbors(id) {
			w, _ := g.EdgeWeight(id, nb)
			if inPrefix[nb] {
				cur -= w
			} else {
				cur += w
			}
		}
		inPrefix[id] = true
		score := cur
		if obj == RatioCut {
			sizeA := float64(k + 1)
			score = cur / (sizeA * (float64(n) - sizeA))
		}
		if score < best {
			best = score
			bestLen = k + 1
		}
	}
	side := make(map[graph.NodeID]bool, bestLen)
	for k := 0; k < bestLen; k++ {
		side[nodes[order[k]]] = true
	}
	return side
}

// TestPropertyBisectMatchesMapOracle: the CSR kernel returns
// exactly what the map implementation does — sides, weight and λ₂ compared
// with ==, not a tolerance — for both sweep objectives, the raw sign split,
// sparse NodeIDs, disconnected inputs and both eigensolvers.
func TestPropertyBisectMatchesMapOracle(t *testing.T) {
	variants := []Options{
		{},
		{Objective: RatioCut},
		{DisableSweep: true},
		{Eigen: eigen.FiedlerOptions{DenseCutoff: 4}},
	}
	f := func(seed int64, nn, flags uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%40) + 1
		stride := graph.NodeID(1 + flags%3) // sparse id spaces too
		g := graph.New(n)
		for i := 0; i < n; i++ {
			if err := g.AddNode(graph.NodeID(i)*stride+7, rng.Float64()*9+1); err != nil {
				return false
			}
		}
		for i := 1; i < n; i++ {
			if flags&4 != 0 && i == n/2 {
				continue // leave the graph disconnected
			}
			if err := g.AddEdge(graph.NodeID(rng.Intn(i))*stride+7, graph.NodeID(i)*stride+7, rng.Float64()*5+0.1); err != nil {
				return false
			}
		}
		for k := 0; k < n; k++ {
			u, v := graph.NodeID(rng.Intn(n))*stride+7, graph.NodeID(rng.Intn(n))*stride+7
			if _, ok := g.EdgeWeight(u, v); u == v || ok {
				continue
			}
			if err := g.AddEdge(u, v, rng.Float64()*5+0.1); err != nil {
				return false
			}
		}
		for vi, opts := range variants {
			got, err := bisectGraph(t, g, opts)
			want, werr := bisectMap(g, opts)
			if (err == nil) != (werr == nil) {
				t.Logf("variant %d: err %v, oracle %v", vi, err, werr)
				return false
			}
			if err != nil {
				continue
			}
			if got.Weight != want.Weight || got.Lambda2 != want.Lambda2 ||
				!slices.Equal(got.SideA, want.SideA) || !slices.Equal(got.SideB, want.SideB) {
				t.Logf("variant %d n %d: got %+v, oracle %+v", vi, n, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
