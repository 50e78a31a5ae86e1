package parallel

import (
	"errors"
	"sync/atomic"
	"testing"

	"copmecs/internal/matrix"
)

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	if err := ForEach(4, 100, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if got := sum.Load(); got != 4950 {
		t.Errorf("sum = %d, want 4950", got)
	}
	if err := ForEach(0, 0, func(int) error { return nil }); err != nil {
		t.Errorf("empty ForEach = %v", err)
	}
	wantErr := errors.New("boom")
	err := ForEach(3, 50, func(i int) error {
		if i == 10 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("ForEach error = %v, want boom", err)
	}
}

func TestForEachFirstErrorWins(t *testing.T) {
	// One worker visits indices in order, so the first failing index is the
	// error returned and nothing after it starts.
	first, second := errors.New("first"), errors.New("second")
	var ran []int
	err := ForEach(1, 10, func(i int) error {
		ran = append(ran, i)
		switch i {
		case 3:
			return first
		case 7:
			return second
		}
		return nil
	})
	if !errors.Is(err, first) {
		t.Errorf("error = %v, want first", err)
	}
	if len(ran) != 4 || ran[3] != 3 {
		t.Errorf("ran %v, want 0..3", ran)
	}
}

func TestForEachMoreWorkersThanItems(t *testing.T) {
	var visits [3]atomic.Int32
	if err := ForEach(64, len(visits), func(i int) error {
		visits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	for i := range visits {
		if got := visits[i].Load(); got != 1 {
			t.Errorf("index %d visited %d times, want 1", i, got)
		}
	}
}

// tridiagonal returns the n×n second-difference matrix and an input vector.
func tridiagonal(t *testing.T, n int) (*matrix.CSR, matrix.Vector) {
	t.Helper()
	entries := make([]matrix.Triplet, 0, 3*n)
	for i := 0; i < n; i++ {
		entries = append(entries, matrix.Triplet{Row: i, Col: i, Val: 2})
		if i+1 < n {
			entries = append(entries,
				matrix.Triplet{Row: i, Col: i + 1, Val: -1},
				matrix.Triplet{Row: i + 1, Col: i, Val: -1})
		}
	}
	m, err := matrix.NewCSR(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	in := make(matrix.Vector, n)
	for i := range in {
		in[i] = float64(i%7) - 3
	}
	return m, in
}

func TestMatVecOperatorMatchesSerial(t *testing.T) {
	// 255 takes the serial path, 256 and 1000 fan out by row block; a row's
	// dot product is the same code either way, so equality is exact.
	for _, n := range []int{3, 255, 256, 1000} {
		m, in := tridiagonal(t, n)
		serial, err := m.MulVec(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 4, 2 * n} {
			op := MatVecOperator{M: m, Workers: workers}
			if op.Dim() != n {
				t.Errorf("Dim = %d, want %d", op.Dim(), n)
			}
			out := make(matrix.Vector, n)
			op.Apply(in, out)
			for i := range out {
				if out[i] != serial[i] {
					t.Fatalf("n=%d workers=%d: row %d = %v, serial %v", n, workers, i, out[i], serial[i])
				}
			}
		}
	}
}
