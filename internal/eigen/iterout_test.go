package eigen

import "testing"

func TestLanczosIterOutAccumulates(t *testing.T) {
	l := pathLaplacian(t, 150)
	iters := 0
	opts := FiedlerOptions{DenseCutoff: 1, IterOut: &iters}
	if _, _, err := Fiedler(l, opts); err != nil {
		t.Fatal(err)
	}
	first := iters
	if first == 0 {
		t.Fatal("IterOut = 0 after a Lanczos solve")
	}
	if _, _, err := Fiedler(l, opts); err != nil {
		t.Fatal(err)
	}
	if iters != 2*first {
		t.Errorf("IterOut = %d after two identical runs, want %d", iters, 2*first)
	}
}
