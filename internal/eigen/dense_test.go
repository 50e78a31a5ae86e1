package eigen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"copmecs/internal/matrix"
)

func randLaplacian(rng *rand.Rand, n int) *matrix.CSR {
	var edges []matrix.WeightedEdge
	for i := 1; i < n; i++ {
		edges = append(edges, matrix.WeightedEdge{U: rng.Intn(i), V: i, Weight: rng.Float64()*5 + 0.5})
	}
	for k := 0; k < n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, matrix.WeightedEdge{U: u, V: v, Weight: rng.Float64()*5 + 0.5})
		}
	}
	l, err := matrix.Laplacian(n, edges)
	if err != nil {
		panic(err)
	}
	return l
}

// oracleFiedler is the Jacobi oracle's Fiedler pair of l: eigenvalue 1 of
// the full ascending decomposition and its unit eigenvector.
func oracleFiedler(t testing.TB, l *matrix.CSR) (float64, matrix.Vector) {
	t.Helper()
	vals, vecs, err := Jacobi(denseOf(l), 1e-9)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	v := vecs.Col(1)
	v.Normalize()
	return vals[1], v
}

// TestPropertyDenseFiedlerMatchesOracle pins the dense kernel to the Jacobi
// oracle on the random connected Laplacians the pipeline's compressed
// sub-graphs look like: same λ₂, same eigenvector up to sign.
func TestPropertyDenseFiedlerMatchesOracle(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%60) + 2
		l := randLaplacian(rng, n)
		refVal, refVec := oracleFiedler(t, l)
		gotVal, gotVec, err := fiedlerDense(l, nil)
		if err != nil {
			t.Logf("seed %d n %d: %v", seed, n, err)
			return false
		}
		norm := matrixNorm(l)
		if math.Abs(gotVal-refVal) > 1e-12*norm {
			t.Logf("seed %d n %d: λ₂ %v vs oracle %v", seed, n, gotVal, refVal)
			return false
		}
		// A random weighted graph has a simple λ₂, so the eigenvector is
		// determined up to sign.
		dot, err := gotVec.Dot(refVec)
		if err != nil || math.Abs(math.Abs(dot)-1) > 1e-9 {
			t.Logf("seed %d n %d: |⟨kernel, oracle⟩| = %v (%v)", seed, n, math.Abs(dot), err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// kernelTridiag returns the tridiagonal (d, e) the dense kernel reduces l to.
func kernelTridiag(l *matrix.CSR) (d, e []float64) {
	n := l.Rows()
	d, e = make([]float64, n), make([]float64, n)
	if err := laplacianTridiag(l, make([]float64, n*n), d, e, make([]float64, n), make([]float64, n)); err != nil {
		panic(err)
	}
	return d, e
}

// TestPropertySmallestEigenvalueMatchesQL: the Sturm bisection's eigenvalue
// is the minimum of SymTridiagEigen's full QL spectrum to within 16
// ulp·‖T‖, on the tridiagonals the kernel produces and on the shapes that
// trouble bisection — split (zero couplings), repeated eigenvalues, graded
// over 30 orders of magnitude, n = 1 and 2. The slack is QL's: against a
// 300-bit Sturm count, QL's minimum is off by up to 12 ulp·‖T‖ on random
// tridiagonals of n ≤ 100 and the bisection by under 1.
func TestPropertySmallestEigenvalueMatchesQL(t *testing.T) {
	const tol = 16 * ulp
	shapes := []string{"kernel", "random", "split", "repeated", "graded"}
	f := func(seed int64, nn, shape uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%100) + 1
		kind := shapes[int(shape)%len(shapes)]
		d, e := make([]float64, n), make([]float64, n)
		switch kind {
		case "kernel":
			if n < 2 {
				n = 2
			}
			d, e = kernelTridiag(randLaplacian(rng, n))
		case "random", "split":
			for i := range d {
				d[i], e[i] = rng.NormFloat64(), rng.NormFloat64()
				if kind == "split" && rng.Intn(3) == 0 {
					e[i] = 0
				}
			}
		case "repeated":
			// Copies of one 3×3 block, decoupled: every eigenvalue,
			// the smallest included, has multiplicity ⌈n/3⌉ or so.
			for i := range d {
				d[i] = []float64{2, -1, 3}[i%3]
				if i%3 != 2 {
					e[i] = 0.5
				}
			}
		case "graded":
			for i := range d {
				d[i] = math.Pow(10, -30*float64(i)/float64(n)) * (1 + rng.Float64())
				e[i] = math.Pow(10, -30*(float64(i)+0.5)/float64(n)) * rng.NormFloat64()
			}
		}
		got, tnorm := smallestEigenvalue(d, e)
		vals := append([]float64(nil), d...)
		if err := SymTridiagEigen(vals, e[:n-1], nil); err != nil {
			t.Logf("%s n=%d: QL: %v", kind, n, err)
			return false
		}
		if diff := math.Abs(got - vals[0]); diff > tol*tnorm {
			t.Logf("%s seed %d n=%d: bisection %v, QL %v: off by %.2f ulp·‖T‖", kind, seed, n, got, vals[0], diff/(ulp*tnorm))
			return false
		}
		return true
	}
	for shape := range shapes {
		for n := 1; n <= 2; n++ {
			if !f(int64(shape), uint8(n-1), uint8(shape)) {
				t.Errorf("%s n=%d failed", shapes[shape], n)
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestArenaSizeClassing(t *testing.T) {
	if got := arenaClassFor(1); got != 0 {
		t.Fatalf("class for 1 = %d, want 0", got)
	}
	if got := arenaClassFor(arenaClassCap[0]); got != 0 {
		t.Fatalf("class at cap 0 = %d, want 0", got)
	}
	if got := arenaClassFor(arenaClassCap[0] + 1); got != 1 {
		t.Fatalf("class past cap 0 = %d, want 1", got)
	}
	if got := arenaClassFor(arenaClassCap[len(arenaClassCap)-1] + 1); got != len(arenaClassCap) {
		t.Fatalf("class past last cap = %d, want %d", got, len(arenaClassCap))
	}

	// An arena that outgrows its class must shed the oversized chunks on
	// release instead of parking them in the small-class pool.
	a := getArena(16)
	a.takeDirty(arenaClassCap[0] * 4) // way past the class-0 retention budget
	if a.class != 0 {
		t.Fatalf("arena class = %d, want 0", a.class)
	}
	putArena(a)
	retained := 0
	for _, c := range a.chunks {
		retained += len(c)
	}
	if retained > arenaClassCap[0] {
		t.Fatalf("class-0 arena retained %d floats after put, budget %d", retained, arenaClassCap[0])
	}

	// Over budget, the oldest chunk goes first: the newer one exists because
	// a request did not fit the older, so it serves the class's next solve.
	c := getArena(16)
	c.takeDirty(64) // the 4096-float minimum chunk
	want := arenaClassCap[0] - 100
	c.takeDirty(want) // does not fit it
	putArena(c)
	if len(c.chunks) != 1 || len(c.chunks[0]) != want {
		t.Fatalf("class-0 arena kept %d chunks after put, want only the %d-float one", len(c.chunks), want)
	}

}

// BenchmarkArenaReuse asserts the steady-state allocation budget of the
// dense kernel: with size-classed arena pooling, repeated small solves reuse
// the same chunks — even right after a large-class arena cycled through the
// pools — so the only allocation per op is the escaping result vector, not a
// fresh 32 KB working matrix.
func BenchmarkArenaReuse(b *testing.B) {
	l := benchLaplacian(b, 64)
	// Cycle an oversized arena through the pool first: before size-classing
	// this parked a multi-megabyte buffer that every small solve then pinned.
	big := getArena(1 << 22)
	big.takeDirty(1 << 20)
	putArena(big)
	solve := func() {
		if _, _, err := fiedlerDense(l, nil); err != nil {
			b.Fatal(err)
		}
	}
	// AllocsPerRun warms up once and measures on a single P, so the arena
	// the warm-up parked is the one every measured run checks out (with
	// more Ps, a goroutine migration strands it in the other P's pool).
	if allocs := testing.AllocsPerRun(100, solve); allocs > 1 {
		b.Fatalf("steady-state dense solve: %.1f allocs/op, want 1 — arena not reused", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
}

// BenchmarkDenseFiedlerSpeedup measures the dense kernel against the Jacobi
// oracle (the algorithm it replaced) interleaved in one process, so host
// drift hits both sides of the ratio alike. speedup_x is oracle time over
// kernel time; scripts/perf_gate.sh floors the n=80 entry.
func BenchmarkDenseFiedlerSpeedup(b *testing.B) {
	for _, n := range []int{16, 48, 80, 96} {
		l := randLaplacian(rand.New(rand.NewSource(int64(n))), n)
		// Equal wall time per side needs more kernel calls than oracle calls.
		const kernelCalls = 8
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var oracle, kernel time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				oracleFiedler(b, l)
				oracle += time.Since(start)
				start = time.Now()
				for k := 0; k < kernelCalls; k++ {
					if _, _, err := fiedlerDense(l, nil); err != nil {
						b.Fatal(err)
					}
				}
				kernel += time.Since(start)
			}
			b.ReportMetric(oracle.Seconds()/(kernel.Seconds()/kernelCalls), "speedup_x")
			b.ReportMetric(float64(kernel.Nanoseconds())/float64(b.N*kernelCalls), "kernel_ns")
		})
	}
}

var benchSink float64

// BenchmarkSturmSpeedup times the step the Sturm bisection replaced in the
// dense kernel against the bisection, interleaved in one process, on the
// tridiagonals the kernel reduces BenchmarkDenseFiedlerSpeedup's Laplacians
// to: SymTridiagEigen without vectors (all n eigenvalues by QL) vs
// smallestEigenvalue. speedup_x is QL time over bisection time;
// scripts/perf_gate.sh holds it to the generic floor.
func BenchmarkSturmSpeedup(b *testing.B) {
	for _, n := range []int{16, 48, 80, 96} {
		d, e := kernelTridiag(randLaplacian(rand.New(rand.NewSource(int64(n))), n))
		vals := make([]float64, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var ql, sturm time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				copy(vals, d)
				if err := SymTridiagEigen(vals, e[:n-1], nil); err != nil {
					b.Fatal(err)
				}
				ql += time.Since(start)
				start = time.Now()
				benchSink, _ = smallestEigenvalue(d, e)
				sturm += time.Since(start)
			}
			b.ReportMetric(ql.Seconds()/sturm.Seconds(), "speedup_x")
			b.ReportMetric(float64(sturm.Nanoseconds())/float64(b.N), "sturm_ns")
		})
	}
}

// BenchmarkDenseLanczosCrossover sweeps the dimension across DenseCutoff
// with the cutoff forced to either side, on the sparse random Laplacians
// the compressed sub-graphs resemble. DESIGN §9 records where the two
// curves cross.
func BenchmarkDenseLanczosCrossover(b *testing.B) {
	for _, n := range []int{64, 96, 128, 160, 192, 256, 384, 512} {
		l := randLaplacian(rand.New(rand.NewSource(int64(n))), n)
		for _, mode := range []struct {
			name   string
			cutoff int
		}{{"dense", n}, {"lanczos", 1}} {
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := Fiedler(l, FiedlerOptions{DenseCutoff: mode.cutoff}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
