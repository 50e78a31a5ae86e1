package graph

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// FuzzDeltaPatch decodes a base graph from codec bytes, draws a chain of
// random deltas from the seed (its length too, at most 6, so patched views of
// patched views — shared slabs, re-derived components — are explored), and
// holds the patch oracle at every step: CSR.Patch of the delta must Validate,
// be identical (bitwise, components included) to Compile of the mutated map
// graph, and fingerprint as that graph does. Each step's view is
// fingerprinted before the next patches it, so every step after the first
// re-hashes only the chunks its delta marked; the seeds include graphs of
// several chunks. A last, byte-derived "hostile" delta checks error-path parity:
// Patch must accept exactly the deltas Apply accepts.
func FuzzDeltaPatch(f *testing.F) {
	for i, g := range append(fuzzSeedGraphs(f), chunkShapes(f)...) {
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), int64(1))
		f.Add(buf.Bytes(), int64(5+i))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // malformed codec input is FuzzDecode's concern
		}
		if g.NumNodes() > 4096 {
			return // keep Compile cost bounded per exec
		}
		patched := g.Compile()
		if err := patched.Validate(); err != nil {
			t.Fatalf("base Validate: %v", err)
		}
		rng := rand.New(rand.NewSource(seed))
		for step, steps := 0, 1+int(uint64(seed)%6); step < steps; step++ {
			base := patched
			d := randomDelta(rng, g)
			if err := d.Apply(g); err != nil {
				t.Fatalf("step %d: randomDelta produced an invalid delta: %v", step, err)
			}
			var info *PatchInfo
			patched, info, err = base.Patch(d)
			if err != nil {
				t.Fatalf("step %d: Patch rejected a delta Apply accepted: %v", step, err)
			}
			if err := patched.Validate(); err != nil {
				t.Fatalf("step %d: patched Validate: %v", step, err)
			}
			if !csrIdentical(t, patched, g.Compile()) {
				t.Fatalf("step %d: Patch diverges from Compile of the mutated graph", step)
			}
			fingerprintsAgree(t, patched, g)
			for nc, oc := range info.OldCompOf {
				if oc >= 0 && !cleanCompAligned(base, patched, info, nc, oc) {
					t.Fatalf("step %d: clean component %d misaligned with old %d", step, nc, oc)
				}
			}
		}

		// Hostile delta: ops derived from the raw bytes, frequently invalid.
		// Patch and Apply must agree on acceptance, and on acceptance the
		// oracle must hold again.
		hostile := hostileDelta(data, seed)
		applyErr := hostile.Apply(g.Clone())
		patched2, _, patchErr := patched.Patch(hostile)
		if (applyErr == nil) != (patchErr == nil) {
			t.Fatalf("accept parity: Apply err %v, Patch err %v", applyErr, patchErr)
		}
		if patchErr == nil {
			if err := patched2.Validate(); err != nil {
				t.Fatalf("hostile patched Validate: %v", err)
			}
			if err := hostile.Apply(g); err != nil {
				t.Fatal(err)
			}
			if !csrIdentical(t, patched2, g.Compile()) {
				t.Fatal("hostile Patch diverges from Compile")
			}
			fingerprintsAgree(t, patched2, g)
		}
	})
}

// fingerprintsAgree fails unless the patched view hashes to the mutated map
// graph's fingerprint: the identity /v1/mutate keys its cache with. The
// applied graph's compiled view and its binary encoding (what a /v1/solve
// of it hashes) must agree too, and the patched view must encode to the
// applied graph's bytes: a snapshot writes the interned view's encoding.
func fingerprintsAgree(t *testing.T, patched *CSR, g *Graph) {
	t.Helper()
	want, err := g.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := patched.Fingerprint(); err != nil || got != want {
		t.Fatalf("patched view fingerprint = %s (%v), applied graph's = %s", got, err, want)
	}
	if got, err := g.Compile().Fingerprint(); err != nil || got != want {
		t.Fatalf("compiled view fingerprint = %s (%v), applied graph's = %s", got, err, want)
	}
	enc := g.AppendBinary(nil)
	if got, err := FingerprintBinary(enc); err != nil || got != want {
		t.Fatalf("encoding's fingerprint = %s (%v), applied graph's = %s", got, err, want)
	}
	if got := patched.AppendBinary([]byte{0xff}); !bytes.Equal(got[1:], enc) || got[0] != 0xff {
		t.Fatalf("patched view encodes to %d bytes unequal to the applied graph's %d", len(got)-1, len(enc))
	}
}

// hostileDelta derives a small, often-invalid delta from raw fuzz bytes:
// node ids and weights come straight from the input, so missing nodes,
// duplicates, self-loops and negative or NaN weights all occur.
func hostileDelta(data []byte, seed int64) *Delta {
	d := &Delta{}
	byteAt := func(i int) int64 {
		if len(data) == 0 {
			return seed
		}
		return int64(data[i%len(data)]) + seed
	}
	id := func(i int) NodeID { return NodeID(byteAt(i) % 40) }
	w := func(i int) float64 {
		v := float64(byteAt(i)) - 64
		if byteAt(i+1)%17 == 0 {
			return math.NaN()
		}
		if v == 0 && byteAt(i+1)%2 == 0 {
			return math.Copysign(0, -1)
		}
		return v
	}
	n := int(byteAt(0)%5) + 1
	for i := 0; i < n; i++ {
		switch byteAt(i+1) % 5 {
		case 0:
			d.RemoveEdges = append(d.RemoveEdges, EdgePair{U: id(i + 2), V: id(i + 3)})
		case 1:
			d.RemoveNodes = append(d.RemoveNodes, id(i+2))
		case 2:
			d.AddNodes = append(d.AddNodes, NodeDelta{ID: id(i + 2), Weight: w(i + 3)})
		case 3:
			d.SetNodeWeights = append(d.SetNodeWeights, NodeDelta{ID: id(i + 2), Weight: w(i + 3)})
		default:
			d.SetEdges = append(d.SetEdges, EdgeDelta{U: id(i + 2), V: id(i + 3), Weight: w(i + 4)})
		}
	}
	return d
}
