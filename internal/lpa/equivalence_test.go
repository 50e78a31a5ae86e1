package lpa

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"copmecs/internal/graph"
)

// subgraphsEqual compares two compression outcomes field by field, exactly —
// no tolerances: the CSR kernels are required to be bit-identical to the map
// reference.
func subgraphsEqual(t *testing.T, a, b *Result) bool {
	t.Helper()
	if a.NodesBefore != b.NodesBefore || a.NodesAfter != b.NodesAfter ||
		a.EdgesBefore != b.EdgesBefore || a.EdgesAfter != b.EdgesAfter {
		t.Logf("counters differ: %+v vs %+v", a, b)
		return false
	}
	if len(a.Subgraphs) != len(b.Subgraphs) {
		t.Logf("subgraph count %d vs %d", len(a.Subgraphs), len(b.Subgraphs))
		return false
	}
	for i := range a.Subgraphs {
		sa, sb := &a.Subgraphs[i], &b.Subgraphs[i]
		if !sa.Graph.Equal(sb.Graph) {
			t.Logf("component %d contracted graphs differ", i)
			return false
		}
		if sa.Rounds != sb.Rounds || sa.Threshold != sb.Threshold {
			t.Logf("component %d rounds/threshold %d/%v vs %d/%v",
				i, sa.Rounds, sa.Threshold, sb.Rounds, sb.Threshold)
			return false
		}
		if len(sa.NodeOf) != len(sb.NodeOf) || len(sa.Labels) != len(sb.Labels) {
			t.Logf("component %d map sizes differ", i)
			return false
		}
		for id, super := range sa.NodeOf {
			if sb.NodeOf[id] != super {
				t.Logf("component %d NodeOf[%d] = %d vs %d", i, id, super, sb.NodeOf[id])
				return false
			}
		}
		for id, l := range sa.Labels {
			if got, ok := sb.Labels[id]; !ok || got != l {
				t.Logf("component %d Labels[%d] = %d vs %d", i, id, l, sb.Labels[id])
				return false
			}
		}
		for super, members := range sa.MembersOf {
			other := sb.MembersOf[super]
			if len(other) != len(members) {
				t.Logf("component %d MembersOf[%d] sizes differ", i, super)
				return false
			}
			for k := range members {
				if members[k] != other[k] {
					t.Logf("component %d MembersOf[%d][%d] = %d vs %d",
						i, super, k, members[k], other[k])
					return false
				}
			}
		}
	}
	return true
}

func TestPropertyCompressMatchesCompressMap(t *testing.T) {
	f := func(seed int64, nn uint8, flags uint8) bool {
		g, ok := randomTestGraph(seed, nn)
		if !ok {
			return true
		}
		opts := Options{Workers: 1 + int(flags%4)}
		if flags&8 != 0 {
			opts.WeightThreshold = 0.5
		}
		csr, err := Compress(g, opts)
		if err != nil {
			return false
		}
		ref, err := CompressMap(g, opts)
		if err != nil {
			return false
		}
		return subgraphsEqual(t, csr, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCompressMatchesCompressMapHandBuilt(t *testing.T) {
	// Deliberately awkward shape: two components, sparse ids, a hub, and
	// weights straddling the automatic threshold.
	g := graph.New(10)
	for _, n := range []struct {
		id graph.NodeID
		w  float64
	}{{2, 1}, {5, 2}, {9, 3}, {12, 4}, {13, 1}, {30, 2}, {31, 5}, {40, 1}} {
		if err := g.AddNode(n.id, n.w); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []struct {
		u, v graph.NodeID
		w    float64
	}{{2, 5, 10}, {2, 9, 0.1}, {5, 9, 10}, {9, 12, 0.2}, {12, 13, 7},
		{30, 31, 1}, {31, 40, 1}} {
		if err := g.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	csr, err := Compress(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := CompressMap(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !subgraphsEqual(t, csr, ref) {
		t.Error("CSR and map compression disagree")
	}
}

func TestQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	qs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1, 1.5}
	for trial := 0; trial < 200; trial++ {
		m := rng.Intn(400) + 1
		ws := make([]float64, m)
		for i := range ws {
			if rng.Intn(3) == 0 {
				ws[i] = float64(rng.Intn(5)) // heavy duplicate runs
			} else {
				ws[i] = rng.NormFloat64() * 100
			}
		}
		sorted := append([]float64(nil), ws...)
		sort.Float64s(sorted)
		for _, q := range qs {
			in := append([]float64(nil), ws...)
			got := quantile(in, q)
			k := 0
			switch {
			case q >= 1:
				k = m - 1
			case q > 0:
				k = int(q * float64(m-1))
			}
			if got != sorted[k] {
				t.Fatalf("trial %d m=%d q=%v: quantile = %v, sorted[%d] = %v",
					trial, m, q, got, k, sorted[k])
			}
		}
	}
}

func TestSelectKthAllOrderStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := rng.Intn(60) + 1
		ws := make([]float64, m)
		for i := range ws {
			ws[i] = float64(rng.Intn(10)) + rng.Float64()*0.01
		}
		sorted := append([]float64(nil), ws...)
		sort.Float64s(sorted)
		for k := 0; k < m; k++ {
			in := append([]float64(nil), ws...)
			if got := selectKth(in, k); got != sorted[k] {
				t.Fatalf("trial %d m=%d: selectKth(%d) = %v, want %v", trial, m, k, got, sorted[k])
			}
		}
	}
}

func TestQuantileEmpty(t *testing.T) {
	if got := quantile(nil, 0.75); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
}
