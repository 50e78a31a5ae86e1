package eigen

import (
	"testing"

	"copmecs/internal/matrix"
)

func benchLaplacian(b *testing.B, n int) *matrix.CSR {
	b.Helper()
	edges := make([]matrix.WeightedEdge, 0, 3*n)
	for i := 0; i < n-1; i++ {
		edges = append(edges, matrix.WeightedEdge{U: i, V: i + 1, Weight: 1})
		if i+7 < n {
			edges = append(edges, matrix.WeightedEdge{U: i, V: i + 7, Weight: 0.5})
		}
	}
	l, err := matrix.Laplacian(n, edges)
	if err != nil {
		b.Fatal(err)
	}
	return l
}

func BenchmarkDenseFiedler64(b *testing.B) {
	l := benchLaplacian(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Fiedler(l, FiedlerOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLanczosFiedler512(b *testing.B) {
	l := benchLaplacian(b, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Fiedler(l, FiedlerOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
