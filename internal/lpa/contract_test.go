package lpa

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"copmecs/internal/graph"
)

// refPairs holds the two super-pair indexes of the contraction contract
// replaced: an epoch-marked dense k×k table for a component that contracts
// to at most 64 supers, a map above that.
type refPairs struct {
	pairKey   map[int64]int32
	pairSlot  []int32
	pairMark  []int32
	pairEpoch int32
}

// contract is the contraction compressScratch.contract replaced, kept
// verbatim as its reference but for the pair indexes, which live in ref:
// pairs accumulate through the dense table or the map, a comparison sort
// orders them by (a, b), and the rows fill from the sorted pairs.
func (ref *refPairs) contract(s *compressScratch, c *graph.CSR, comp []int32) *Block {
	labels := s.clusterOf
	for _, u := range comp {
		s.parent[u] = u
	}
	for _, u := range comp {
		tgt, _ := c.Adj(u)
		for _, v := range tgt {
			if v > u && labels[u] == labels[v] {
				ra, rb := s.find(u), s.find(v)
				if ra < rb {
					s.parent[rb] = ra
				} else if rb < ra {
					s.parent[ra] = rb
				}
			}
		}
	}
	if cap(s.prev) < len(comp) {
		s.prev = make([]int32, len(comp))
	}
	labelAt := s.prev[:len(comp)]
	for pos, u := range comp {
		labelAt[pos] = labels[u]
		s.clusterOf[u] = -1
	}
	// A node's super id lands in its own clusterOf slot: a root's slot holds
	// its cluster's id either way, and no lookup reads a non-root's.
	superOf := s.clusterOf
	k := int32(0)
	for _, u := range comp {
		r := s.find(u)
		cl := s.clusterOf[r]
		if cl < 0 {
			cl = k
			k++
			s.clusterOf[r] = cl
		}
		superOf[u] = cl
	}

	// Contracted edges: accumulate per super-pair in the original (u, v)
	// edge order — the same order the map oracle coalesces in — then sort
	// pairs for the CSR fill. Slot assignment order (pair first-seen order)
	// is identical through either index, so both produce the same pairs
	// slice; the dense index just skips the per-edge map probes for the
	// many-small-components regime.
	s.pairs = s.pairs[:0]
	const densePairCap = 64
	if k <= densePairCap {
		need := int(k) * int(k)
		if cap(ref.pairSlot) < need {
			ref.pairSlot = make([]int32, need)
			ref.pairMark = make([]int32, need)
			ref.pairEpoch = 0
		}
		slot, mark := ref.pairSlot[:need], ref.pairMark[:need]
		epoch := nextEpoch(&ref.pairEpoch, ref.pairMark)
		for _, u := range comp {
			tgt, w := c.Adj(u)
			for ki, v := range tgt {
				if v < u {
					continue
				}
				a, b := superOf[u], superOf[v]
				if a == b {
					continue // intra-cluster communication vanishes after merging
				}
				if a > b {
					a, b = b, a
				}
				d := a*k + b
				if mark[d] != epoch {
					mark[d] = epoch
					slot[d] = int32(len(s.pairs))
					s.pairs = append(s.pairs, superEdge{a: a, b: b})
				}
				s.pairs[slot[d]].w += w[ki]
			}
		}
	} else {
		if ref.pairKey == nil {
			ref.pairKey = make(map[int64]int32)
		}
		clear(ref.pairKey)
		for _, u := range comp {
			tgt, w := c.Adj(u)
			for ki, v := range tgt {
				if v < u {
					continue
				}
				a, b := superOf[u], superOf[v]
				if a == b {
					continue // intra-cluster communication vanishes after merging
				}
				if a > b {
					a, b = b, a
				}
				key := int64(a)<<32 | int64(b)
				slot, ok := ref.pairKey[key]
				if !ok {
					slot = int32(len(s.pairs))
					ref.pairKey[key] = slot
					s.pairs = append(s.pairs, superEdge{a: a, b: b})
				}
				s.pairs[slot].w += w[ki]
			}
		}
	}
	// Pair keys are unique — accumulation dedups through the pair index — so
	// the sorted sequence is a unique permutation.
	slices.SortFunc(s.pairs, func(x, y superEdge) int {
		if c := cmp.Compare(x.a, y.a); c != 0 {
			return c
		}
		return cmp.Compare(x.b, y.b)
	})

	// The block's arrays are two allocations of its own, carved by kind.
	nk, m := int(k), len(s.pairs)
	ints := make([]int32, 2*(nk+1)+2*m+2*len(comp))
	carve := func(n int) []int32 {
		w := ints[:n:n]
		ints = ints[n:]
		return w
	}
	floats := make([]float64, nk+2*m)
	b := &Block{
		NodeW: floats[:nk:nk], W: floats[nk:],
		Off: carve(nk + 1), Tgt: carve(2 * m),
		MemberOff: carve(nk + 1), Members: carve(len(comp)), Labels: carve(len(comp)),
	}
	nodeW := c.NodeWeights()
	for _, u := range comp {
		b.NodeW[superOf[u]] += nodeW[u]
		b.MemberOff[superOf[u]+1]++
	}
	copy(b.Labels, labelAt)
	for _, p := range s.pairs {
		b.Off[p.a+1]++
		b.Off[p.b+1]++
	}
	for sup := 0; sup < nk; sup++ {
		b.Off[sup+1] += b.Off[sup]
		b.MemberOff[sup+1] += b.MemberOff[sup]
	}
	if cap(s.cursor) < nk {
		s.cursor = make([]int32, nk)
	}
	cursor := s.cursor[:nk]
	copy(cursor, b.Off)
	// pairs are sorted by (a, b) with a < b, so every row's a-side neighbors
	// land before its b-side neighbors and both ascend: rows come out sorted.
	for _, p := range s.pairs {
		b.Tgt[cursor[p.a]], b.W[cursor[p.a]] = p.b, p.w
		cursor[p.a]++
		b.Tgt[cursor[p.b]], b.W[cursor[p.b]] = p.a, p.w
		cursor[p.b]++
	}
	// Member lists: the ascending position scan keeps each list ascending.
	copy(cursor, b.MemberOff)
	for pos, u := range comp {
		sup := superOf[u]
		b.Members[cursor[sup]] = int32(pos)
		cursor[sup]++
	}
	return b
}

// compressBlock is compressBlock over the reference contraction.
func (ref *refPairs) compressBlock(c *graph.CSR, comp []int32, opts Options, s *compressScratch) *Block {
	threshold, order := s.prepare(c, comp, opts)
	rounds := s.propagate(c, comp, order, threshold, opts, s.clusterOf)
	b := ref.contract(s, c, comp)
	b.Rounds, b.Threshold = rounds, threshold
	return b
}

// blocksIdentical compares every field of two blocks, floats by their bits.
func blocksIdentical(a, b *Block) bool {
	bitsEq := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	return bitsEq(a.NodeW, b.NodeW) && bitsEq(a.W, b.W) &&
		slices.Equal(a.Off, b.Off) && slices.Equal(a.Tgt, b.Tgt) &&
		slices.Equal(a.MemberOff, b.MemberOff) && slices.Equal(a.Members, b.Members) &&
		slices.Equal(a.Labels, b.Labels) && a.Rounds == b.Rounds &&
		math.Float64bits(a.Threshold) == math.Float64bits(b.Threshold)
}

// contractAll contracts every component of c under the given labels (a
// label per node, as propagation leaves them in clusterOf) on scratch s,
// with the production contraction or, given ref, the reference.
func contractAll(c *graph.CSR, labels []int32, s *compressScratch, ref *refPairs) []*Block {
	s.ensure(c.NumNodes())
	copy(s.clusterOf, labels)
	var blocks []*Block
	for _, comp := range c.Components() {
		if ref != nil {
			blocks = append(blocks, ref.contract(s, c, comp))
		} else {
			blocks = append(blocks, s.contract(c, comp))
		}
	}
	return blocks
}

// checkContract holds the contraction of c under labels to the reference,
// block for block and bit for bit, on the shared scratch s (reused across
// calls, so stale pair-index entries from an earlier component or graph
// would show) and on a fresh one.
func checkContract(t *testing.T, name string, c *graph.CSR, labels []int32, s *compressScratch) []*Block {
	t.Helper()
	want := contractAll(c, labels, new(compressScratch), new(refPairs))
	for _, sc := range []*compressScratch{s, new(compressScratch)} {
		got := contractAll(c, labels, sc, nil)
		for i := range want {
			if !blocksIdentical(got[i], want[i]) {
				t.Fatalf("%s: component %d: block %+v, reference %+v", name, i, got[i], want[i])
			}
		}
	}
	return want
}

// contractWeights are edge weights that stress the per-pair sums: 1e16
// absorbs a lone 1 but not a 2, so a sum taken in another order differs;
// -0 (stored as AddEdge stores it) and subnormals sit at the bottom.
var contractWeights = []float64{1, 1e16, 1, 2, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 0.1, 3, 0.7}

// superGraph builds one component of k supers: super i is a path of size
// nodes carrying label i, consecutive supers are joined by an edge, and
// up to cross more edges join random members of random super pairs (many
// pairs several times, so they coalesce several weights). It returns the
// graph and its labels.
func superGraph(t *testing.T, rng *rand.Rand, k, size, cross int) (*graph.Graph, []int32) {
	t.Helper()
	n := k * size
	g := graph.New(n)
	labels := make([]int32, n)
	for i := 0; i < n; i++ {
		if err := g.AddNode(graph.NodeID(i), float64(1+i%7)); err != nil {
			t.Fatal(err)
		}
		labels[i] = int32(i / size)
	}
	add := func(u, v int, w float64) {
		if err := g.AddEdge(graph.NodeID(u), graph.NodeID(v), w); err != nil {
			t.Fatal(err)
		}
	}
	weight := func() float64 { return contractWeights[rng.Intn(len(contractWeights))] }
	for i := 0; i < n-1; i++ {
		add(i, i+1, weight()) // in-super path, then a link to the next super
	}
	for e := 0; e < cross && k > 1; e++ {
		a, b := rng.Intn(k), rng.Intn(k)
		if a == b {
			continue
		}
		add(a*size+rng.Intn(size), b*size+rng.Intn(size), weight())
	}
	return g, labels
}

// TestContractMatchesReference holds the one-index, sort-free contraction
// to the reference on fixed graphs: a component contracting to 1 and 2
// supers, to 64 and 65 (either side of the reference's dense-table cap),
// to hundreds, pairs whose sums depend on their order, -0 and subnormal
// weights, and real propagation labels on Table I and sparse graphs.
func TestContractMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	s := new(compressScratch)
	for _, tc := range []struct {
		k, size, cross int
	}{
		{1, 1, 0}, {1, 12, 0}, {2, 1, 0}, {2, 5, 20}, {3, 4, 40},
		{63, 2, 400}, {64, 1, 300}, {64, 3, 2000}, {65, 1, 300}, {65, 3, 2000},
		{200, 2, 3000}, {450, 1, 900}, {700, 3, 20000},
	} {
		g, labels := superGraph(t, rng, tc.k, tc.size, tc.cross)
		name := fmt.Sprintf("k=%d size=%d cross=%d", tc.k, tc.size, tc.cross)
		blocks := checkContract(t, name, g.Compile(), labels, s)
		if len(blocks) != 1 || len(blocks[0].NodeW) != tc.k {
			t.Fatalf("%s: %d blocks, first of %d supers; want one of %d", name, len(blocks), len(blocks[0].NodeW), tc.k)
		}
	}

	// The sum of one pair depends on its order: 1e16 then two 1s stays
	// 1e16, two 1s then 1e16 reaches 1e16+2.
	for _, ws := range [][]float64{{1e16, 1, 1}, {1, 1, 1e16}, {1, 1e16, 1}} {
		g := build(t, 6, []graph.Edge{
			{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1}, {U: 3, V: 4, Weight: 1}, {U: 4, V: 5, Weight: 1},
			{U: 0, V: 3, Weight: ws[0]}, {U: 1, V: 4, Weight: ws[1]}, {U: 2, V: 5, Weight: ws[2]},
		})
		blocks := checkContract(t, fmt.Sprint("order ", ws), g.Compile(), []int32{0, 0, 0, 1, 1, 1}, s)
		want := (ws[0] + ws[1]) + ws[2]
		if got := blocks[0].W[0]; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("order %v: super edge %v, want the in-order sum %v", ws, got, want)
		}
	}

	// Propagation's own labels, through the whole component compression.
	for _, g := range []*graph.Graph{tableIGraph(t, 1), tableIRowGraph(t, 3, 2), sparseGraph(t, 1<<24)} {
		c := g.Compile()
		ref := new(refPairs)
		got := compressCSRWith(t, c, Options{}, s, compressBlock)
		want := compressCSRWith(t, c, Options{}, nil, ref.compressBlock)
		if !csrResultsIdentical(t, got, want) {
			t.Errorf("%d nodes: compression differs from the reference contraction's", c.NumNodes())
		}
	}
}

// FuzzContract holds the contraction to the reference on random graphs
// and labels: up to 600 nodes, each drawing one of up to 40 labels (so some
// same-label neighbors merge and the rest stay apart), edges from the fuzz
// bytes with weights from contractWeights.
func FuzzContract(f *testing.F) {
	f.Add(int64(1), uint16(10), uint8(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(int64(2), uint16(2), uint8(2), []byte{0, 0, 0, 1, 1})
	f.Add(int64(3), uint16(64), uint8(40), make([]byte, 300))
	f.Add(int64(4), uint16(65), uint8(40), []byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Add(int64(5), uint16(599), uint8(39), make([]byte, 2000))
	spread := make([]byte, 1600) // far ends: pairs first seen out of order
	for i := range spread {
		spread[i] = byte(i * 97)
	}
	f.Add(int64(6), uint16(300), uint8(7), spread)
	f.Fuzz(func(t *testing.T, seed int64, nodes uint16, nlabels uint8, edges []byte) {
		n := 1 + int(nodes)%600
		L := 1 + int(nlabels)%40
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(n)
		labels := make([]int32, n)
		for i := range labels {
			if err := g.AddNode(graph.NodeID(i), float64(rng.Intn(5))); err != nil {
				t.Fatal(err)
			}
			labels[i] = int32(rng.Intn(L))
		}
		// Two bytes an edge: how far from a random node its other end
		// lies (near ends share labels more often), and its weight.
		for i := 0; i+1 < len(edges); i += 2 {
			u := rng.Intn(n)
			v := (u + 1 + int(edges[i])) % n
			if u == v {
				continue
			}
			w := contractWeights[int(edges[i+1])%len(contractWeights)]
			if err := g.AddEdge(graph.NodeID(u), graph.NodeID(v), w); err != nil {
				t.Fatal(err)
			}
		}
		checkContract(t, "fuzz", g.Compile(), labels, new(compressScratch))
	})
}

// BenchmarkContractSpeedup times the contraction of every component of a
// graph, under the labels propagation leaves, against the reference
// contraction, interleaved in one process, and reports the ratio: Table I
// n=2000 and n=5000, and the sparse n=2100 shape whose components contract
// to more than 64 supers. The labels are restored before each side, off
// the clock. scripts/perf_gate.sh holds a floor under it.
func BenchmarkContractSpeedup(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"table1_n=2000", tableIRowGraph(b, 3, 1)},
		{"table1_n=5000", tableIGraph(b, 1)},
		{"sparse_n=2100", sparseGraph(b, 1<<24)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := bc.g.Compile()
			s, ref := new(compressScratch), new(refPairs)
			s.ensure(c.NumNodes())
			labels, opts := make([]int32, c.NumNodes()), Options{}.withDefaults()
			for _, comp := range c.Components() {
				threshold, order := s.prepare(c, comp, opts)
				s.propagate(c, comp, order, threshold, opts, labels)
			}
			var newT, refT time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(s.clusterOf, labels)
				t0 := time.Now()
				for _, comp := range c.Components() {
					s.contract(c, comp)
				}
				newT += time.Since(t0)
				copy(s.clusterOf, labels)
				t1 := time.Now()
				for _, comp := range c.Components() {
					ref.contract(s, c, comp)
				}
				refT += time.Since(t1)
			}
			b.ReportMetric(float64(refT)/float64(newT), "speedup_x")
			b.ReportMetric(float64(newT.Nanoseconds())/float64(b.N), "new_ns")
			b.ReportMetric(float64(refT.Nanoseconds())/float64(b.N), "ref_ns")
		})
	}
}
