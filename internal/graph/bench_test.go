package graph

import (
	"math/rand"
	"testing"
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

func BenchmarkComponents(b *testing.B) {
	g := benchGraph(b, 2000, 6000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := g.Components(); len(got) == 0 {
			b.Fatal("no components")
		}
	}
}

func BenchmarkContract(b *testing.B) {
	g := benchGraph(b, 2000, 6000)
	cluster := make(map[NodeID]int, g.NumNodes())
	for _, id := range g.Nodes() {
		cluster[id] = int(id) / 10
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Contract(cluster); err != nil {
			b.Fatal(err)
		}
	}
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
