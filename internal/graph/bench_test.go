package graph

import (
	"math/rand"
	"testing"
	"time"
)

func benchGraph(b testing.TB, n, edges int) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := New(n)
	for i := 0; i < n; i++ {
		if err := g.AddNode(NodeID(i), rng.Float64()*100); err != nil {
			b.Fatal(err)
		}
	}
	for k := 0; k < edges; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if err := g.AddEdge(NodeID(u), NodeID(v), rng.Float64()*10); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

func BenchmarkCutWeight(b *testing.B) {
	g := benchGraph(b, 2000, 6000)
	side := make(map[NodeID]bool, g.NumNodes()/2)
	for _, id := range g.Nodes() {
		if id%2 == 0 {
			side[id] = true
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.CutWeight(side)
	}
}

func BenchmarkEdges(b *testing.B) {
	g := benchGraph(b, 2000, 6000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if es := g.Edges(); len(es) == 0 {
			b.Fatal("no edges")
		}
	}
}

// BenchmarkCompile compiles a graph of Table I's n=5000 size (5000 nodes,
// 40243 edge draws): "fresh" a graph nothing has read yet, "again" one
// already compiled. Rows are stored sorted, so a compile leaves nothing
// behind but the sorted node-id list; building that list is all the fresh
// side pays on top.
func BenchmarkCompile(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := benchGraph(b, 5000, 40243)
			b.StartTimer()
			if c := g.Compile(); c.NumNodes() != 5000 {
				b.Fatal("short view")
			}
		}
	})
	b.Run("again", func(b *testing.B) {
		g := benchGraph(b, 5000, 40243)
		g.Compile()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if c := g.Compile(); c.NumNodes() != 5000 {
				b.Fatal("short view")
			}
		}
	})
}

// BenchmarkAddEdgeHub fills one degree-10⁴ row through AddEdge: ascending,
// every insert an append; descending, every insert shifts the whole row —
// the representation's worst case (O(d²) element moves per hub).
func BenchmarkAddEdgeHub(b *testing.B) {
	const degree = 10_000
	for _, order := range []string{"ascending", "descending"} {
		b.Run(order, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := New(degree + 1)
				for id := 0; id <= degree; id++ {
					must(g.AddNode(NodeID(id), 1))
				}
				b.StartTimer()
				for k := 1; k <= degree; k++ {
					leaf := NodeID(k)
					if order == "descending" {
						leaf = NodeID(degree + 1 - k)
					}
					if err := g.AddEdge(0, leaf, 1); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// rekeyDelta draws a delta shaped like the benchmark's mutate_chain workload
// against the view c: about 1% of its edges, all inside one or two of the
// base components comps, half re-weighted, a quarter removed and a quarter
// added.
func rekeyDelta(rng *rand.Rand, c *CSR, comps [][]NodeID) *Delta {
	in := []int{rng.Intn(len(comps))}
	if other := rng.Intn(len(comps)); rng.Intn(2) == 1 && other != in[0] {
		in = append(in, other)
	}
	var edges []EdgePair
	for _, ci := range in {
		for _, u := range comps[ci] {
			i := c.IndexOf(u)
			tgt, _ := c.Adj(i)
			for _, v := range tgt {
				if v > i {
					edges = append(edges, EdgePair{U: u, V: c.IDOf(v)})
				}
			}
		}
	}
	rng.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
	ops := c.NumEdges() / 100
	d := &Delta{}
	k := 0
	for ; k < ops/2 && k < len(edges); k++ {
		d.SetEdges = append(d.SetEdges, EdgeDelta{U: edges[k].U, V: edges[k].V, Weight: 1 + 99*rng.Float64()})
	}
	for ; k < ops/2+ops/4 && k < len(edges); k++ {
		d.RemoveEdges = append(d.RemoveEdges, edges[k])
	}
	added := map[EdgePair]bool{}
	for try := 0; len(added) < ops/4 && try < 64*ops; try++ {
		comp := comps[in[rng.Intn(len(in))]]
		u, v := comp[rng.Intn(len(comp))], comp[rng.Intn(len(comp))]
		pair := EdgePair{U: min(u, v), V: max(u, v)}
		if _, exists := c.findEdge(c.IndexOf(u), c.IndexOf(v)); u == v || exists || added[pair] {
			continue
		}
		added[pair] = true
		d.SetEdges = append(d.SetEdges, EdgeDelta{U: u, V: v, Weight: 1 + 99*rng.Float64()})
	}
	return d
}

// BenchmarkFingerprintRekeySpeedup measures what keying a mutated graph
// costs: the Fingerprint of a view Patch built from a fingerprinted view,
// which re-hashes only the chunks its delta changed, against a full chunked
// hash of the same view. One chain of rekeyDelta deltas runs down a Table I
// n=2000 graph (10 components, 63 chunks); delta generation and the patch
// are outside both timed sides, which alternate which runs first. Their
// ratio is speedup_x; scripts/perf_gate.sh floors it.
func BenchmarkFingerprintRekeySpeedup(b *testing.B) {
	head := tableIShaped(3, 1).Compile()
	if _, err := head.Fingerprint(); err != nil {
		b.Fatal(err)
	}
	var comps [][]NodeID
	for _, comp := range head.Components() {
		ids := make([]NodeID, len(comp))
		for k, i := range comp {
			ids[k] = head.IDOf(i)
		}
		comps = append(comps, ids)
	}
	rng := rand.New(rand.NewSource(1))
	var rekey, full time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, _, err := head.Patch(rekeyDelta(rng, head, comps))
		if err != nil {
			b.Fatal(err)
		}
		var got, want string
		for side := 0; side < 2; side++ {
			start := time.Now()
			if (i+side)%2 == 0 {
				got, err = next.Fingerprint()
				rekey += time.Since(start)
			} else {
				want = next.hashChunks(nil, nil).fp
				full += time.Since(start)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if got != want {
			b.Fatalf("re-keyed fingerprint %s, full hash %s", got, want)
		}
		head = next
	}
	b.ReportMetric(full.Seconds()/rekey.Seconds(), "speedup_x")
	b.ReportMetric(float64(rekey.Nanoseconds())/float64(b.N), "rekey_ns")
	b.ReportMetric(float64(full.Nanoseconds())/float64(b.N), "full_ns")
}
