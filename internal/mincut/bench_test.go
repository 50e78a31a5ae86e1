package mincut

import (
	"math/rand"
	"testing"
)

func benchRandGraph(b *testing.B, n, extra int) (off, tgt []int32, w []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return csrOf(randConnected(rng, n, extra))
}

func BenchmarkMaxFlowBisect200(b *testing.B) {
	off, tgt, w := benchRandGraph(b, 200, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := MaxFlowBisect(off, tgt, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernighanLin200(b *testing.B) {
	off, tgt, w := benchRandGraph(b, 200, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := KernighanLin(off, tgt, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoerWagner200(b *testing.B) {
	off, tgt, w := benchRandGraph(b, 200, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := GlobalMinCut(off, tgt, w); err != nil {
			b.Fatal(err)
		}
	}
}
