package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"
)

// build is the map-side oracle of recordFromLists: the decoded lists' Graph,
// built node by node in input order and edge by edge in stable byEndpoints
// order (edges is reordered), as the JSON decode built it before the record
// path. Its AppendBinary is the record recordFromLists must write, and its
// error the one it must give.
func build(nodes []jsonNode, edges []Edge) (*Graph, error) {
	g := New(len(nodes))
	for _, n := range nodes {
		if err := g.AddNode(n.ID, n.Weight); err != nil {
			return nil, fmt.Errorf("decode graph json: %w", err)
		}
	}
	if err := g.addEdgesSorted(edges); err != nil {
		return nil, fmt.Errorf("decode graph json: %w", err)
	}
	return g, nil
}

// listWeights are the weights the list fuzzer draws from: the signed zeros,
// negative, non-finite and NaN values build treats specially, and magnitudes
// whose coalesced sums depend on the order they are added in.
var listWeights = []float64{
	1, 0, math.Copysign(0, -1), -1, 2.5, math.NaN(), math.Inf(1), math.Inf(-1),
	1e16, 0.1, 0.2, 1e-300, math.MaxFloat64, -1e-300,
}

// listsOf reads fuzz bytes as decoded lists over a small id range, so repeats,
// gaps, dangling and parallel edges and self-loops are all common: the first
// byte is the node count, then two bytes a node (id, weight) and three an
// edge (u, v, weight).
func listsOf(data []byte) ([]jsonNode, []Edge) {
	id := func(b byte) NodeID { return NodeID(int8(b) % 24) }
	w := func(b byte) float64 { return listWeights[int(b)%len(listWeights)] }
	if len(data) == 0 {
		return nil, nil
	}
	n, data := int(data[0]%32), data[1:]
	var nodes []jsonNode
	for ; n > 0 && len(data) >= 2; n, data = n-1, data[2:] {
		nodes = append(nodes, jsonNode{ID: id(data[0]), Weight: w(data[1])})
	}
	var edges []Edge
	for ; len(data) >= 3; data = data[3:] {
		edges = append(edges, Edge{U: id(data[0]), V: id(data[1]), Weight: w(data[2])})
	}
	return nodes, edges
}

// checkRecordFromLists holds recordFromLists to build on one pair of lists:
// the same record, byte for byte, behind an untouched prefix, or the same
// error text.
func checkRecordFromLists(t *testing.T, nodes []jsonNode, edges []Edge) {
	t.Helper()
	prefix := []byte{0xC0, 0x9E}
	want, wantErr := build(slices.Clone(nodes), slices.Clone(edges))
	got, err := recordFromLists(slices.Clone(prefix), nodes, edges)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("recordFromLists error %v, build error %v", err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("recordFromLists: %v; build accepts", err)
	}
	if !bytes.Equal(got, want.AppendBinary(slices.Clone(prefix))) {
		t.Fatalf("record differs from build's AppendBinary:\n got %x\nwant %x", got, want.AppendBinary(prefix))
	}
}

// FuzzRecordFromLists holds the lists → record path to the Graph build it
// replaces. Run longer with: make fuzz
func FuzzRecordFromLists(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 1, 0, 2, 0, 0, 1, 4, 1, 2, 4})
	f.Add([]byte{2, 1, 0, 1, 3})                   // a repeated id after a clean one
	f.Add([]byte{3, 5, 0, 1, 3, 5, 3})             // negative weight before a repeat
	f.Add([]byte{2, 0, 0, 1, 0, 1, 0, 3, 0, 1, 2}) // negative edge after a sorted-first one
	f.Add([]byte{2, 0, 0, 1, 0, 0, 1, 2})          // a lone -0 edge
	f.Add([]byte{2, 0, 0, 1, 0, 0, 1, 8, 1, 0, 0, 0, 1, 0})
	f.Add([]byte{2, 4, 0, 2, 0, 2, 4, 0, 2, 9, 0, 4, 4, 0, 0, 7, 0}) // descending ids, dangling
	f.Fuzz(func(t *testing.T, data []byte) {
		nodes, edges := listsOf(data)
		checkRecordFromLists(t, nodes, edges)
	})
}

// TestRecordFromListsErrorOrder pins the three orders build's errors and sums
// come in: node errors in input order, edge errors in stable byEndpoints
// order, and parallel edges summed from +0 in input order.
func TestRecordFromListsErrorOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name  string
		nodes []jsonNode
		edges []Edge
		want  string
	}{
		{"repeat before negative", []jsonNode{{3, 1}, {1, 1}, {3, 1}, {2, -1}}, nil,
			"decode graph json: add node 3: graph: node already exists"},
		{"negative before repeat", []jsonNode{{3, 1}, {2, -1}, {1, 1}, {3, 1}}, nil,
			"decode graph json: add node 2: graph: negative weight"},
		{"negative repeat", []jsonNode{{3, 1}, {3, -1}}, nil,
			"decode graph json: add node 3: graph: negative weight"},
		{"edge errors in endpoint order", []jsonNode{{0, 1}, {1, 1}, {2, 1}},
			[]Edge{{2, 1, -1}, {1, 0, 1}, {9, 0, 1}, {1, 1, 1}},
			"decode graph json: add edge {9,0}: endpoint 9: graph: node not found"},
		{"self-loop before dangling", []jsonNode{{0, 1}, {1, 1}},
			[]Edge{{1, 7, 1}, {1, 1, 1}},
			"decode graph json: add edge {1,1}: graph: self-loops are not allowed"},
		{"lone -0 edge", []jsonNode{{0, negZero}, {1, 1}}, []Edge{{1, 0, negZero}}, ""},
		{"input-order sums", []jsonNode{{0, 1}, {1, 1}, {2, 1}},
			[]Edge{{0, 1, 1e16}, {2, 1, 3}, {1, 0, 1}, {0, 1, 1}, {1, 0, negZero}}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkRecordFromLists(t, slices.Clone(tc.nodes), slices.Clone(tc.edges))
			got := ""
			if _, err := recordFromLists(nil, tc.nodes, tc.edges); err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Fatalf("error %q, want %q", got, tc.want)
			}
		})
	}
	rec, err := recordFromLists(nil, []jsonNode{{0, 1}, {1, 1}}, []Edge{{1, 0, negZero}})
	if err != nil || math.Signbit(math.Float64frombits(binary.LittleEndian.Uint64(rec[len(rec)-8:]))) {
		t.Fatalf("a lone -0 edge is stored as %x (err %v), want +0", rec[len(rec)-8:], err)
	}
}

// compileSeeds are records CompileBinary must take — every fuzz seed graph
// and chunk shape as AppendBinary writes it, and with a -0 or a signalling-NaN
// edge weight, which it stores as ReadBinary does — and damaged copies no
// writer produces: nodes swapped, an edge reversed, an edge repeated, a
// negative node weight, a dangling endpoint, a trailing byte and counts that
// promise more than is there.
func compileSeeds(f *testing.F) [][]byte {
	var seeds [][]byte
	for _, g := range append(fuzzSeedGraphs(f), chunkShapes(f)...) {
		seeds = append(seeds, g.AppendBinary(nil))
	}
	tri := seeds[2] // nodes 0, 1, 2; edges {0,1}, {0,2}, {1,2}
	le := binary.LittleEndian
	edge := func(k int) []byte { return tri[binaryHeaderLen+3*binaryNodeLen+binaryEdgeLen*k:] }
	damage := func(fn func(rec []byte) []byte) { seeds = append(seeds, fn(slices.Clone(tri))) }
	damage(func(rec []byte) []byte {
		n := rec[binaryHeaderLen:]
		a := slices.Clone(n[:binaryNodeLen])
		copy(n, n[binaryNodeLen:2*binaryNodeLen])
		copy(n[binaryNodeLen:], a)
		return rec
	})
	damage(func(rec []byte) []byte {
		e := rec[len(rec)-len(edge(0)):]
		u, v := le.Uint64(e), le.Uint64(e[8:])
		le.PutUint64(e, v)
		le.PutUint64(e[8:], u)
		return rec
	})
	damage(func(rec []byte) []byte {
		e := rec[len(rec)-len(edge(1)):]
		copy(e[:binaryEdgeLen], edge(0)[:binaryEdgeLen])
		return rec
	})
	damage(func(rec []byte) []byte {
		le.PutUint64(rec[len(rec)-len(edge(0))+16:], math.Float64bits(math.Copysign(0, -1)))
		return rec
	})
	damage(func(rec []byte) []byte {
		le.PutUint64(rec[len(rec)-len(edge(0))+16:], 0x7ff0000000000001)
		return rec
	})
	damage(func(rec []byte) []byte {
		le.PutUint64(rec[binaryHeaderLen+8:], math.Float64bits(-1))
		return rec
	})
	damage(func(rec []byte) []byte {
		le.PutUint64(rec[len(rec)-len(edge(2))+8:], 7)
		return rec
	})
	damage(func(rec []byte) []byte { return append(rec, 0) })
	damage(func(rec []byte) []byte {
		le.PutUint32(rec[6:], math.MaxUint32)
		le.PutUint32(rec[10:], math.MaxUint32)
		return rec
	})
	return seeds
}

// FuzzCompileBinary holds CompileBinary to ReadBinary + Compile: it never
// panics, accepts every record AppendBinary writes, refuses with ErrBadFormat
// any record out of the canonical order, and builds the view Compile builds
// — the same encoding, components and fingerprint, and a view that validates.
// Run longer with: make fuzz
func FuzzCompileBinary(f *testing.F) {
	f.Add([]byte{})
	for _, rec := range compileSeeds(f) {
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := CompileBinary(data)
		g, gerr := ReadBinary(bytes.NewReader(data))
		var enc []byte
		if gerr == nil {
			enc = g.AppendBinary(nil)
		}
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("refusal outside ErrBadFormat: %v", err)
			}
			if gerr == nil && bytes.Equal(enc, data) {
				t.Fatalf("refused a record AppendBinary writes: %v", err)
			}
			return
		}
		// Accepted: data is the graph's record in the canonical order, its
		// edge weights as written, ReadBinary's each added to +0.
		if len(enc) != len(data) {
			t.Fatalf("accepted a record ReadBinary reads as %d bytes of %d (%v)", len(enc), len(data), gerr)
		}
		edges := binaryHeaderLen + binaryNodeLen*g.NumNodes()
		if !bytes.Equal(enc[:edges], data[:edges]) {
			t.Fatal("accepted a record whose nodes are out of the canonical order")
		}
		for at := edges; at < len(data); at += binaryEdgeLen {
			w := 0.0
			w += math.Float64frombits(binary.LittleEndian.Uint64(data[at+16:]))
			if !bytes.Equal(enc[at:at+16], data[at:at+16]) || math.Float64bits(w) != binary.LittleEndian.Uint64(enc[at+16:]) {
				t.Fatalf("accepted edge record %x, ReadBinary's is %x", data[at:at+binaryEdgeLen], enc[at:at+binaryEdgeLen])
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		want := g.Compile()
		if !bytes.Equal(c.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Fatal("view encodes differently from Compile's")
		}
		if !reflect.DeepEqual(c.Components(), want.Components()) {
			t.Fatalf("components %v, Compile's %v", c.Components(), want.Components())
		}
		fp, err := c.Fingerprint()
		if wantFp, werr := want.Fingerprint(); err != nil || werr != nil || fp != wantFp {
			t.Fatalf("view fingerprint %s (%v), Compile's %s (%v)", fp, err, wantFp, werr)
		}
	})
}

// recordSink and viewSink keep BenchmarkRecordDecodeSpeedup's results live.
var (
	recordSink []byte
	viewSink   *CSR
)

// BenchmarkRecordDecodeSpeedup measures the serving tier's decode from the
// scanned lists — the canonical record, then the view compiled from it
// (recordFromLists, CompileBinary) — against the map route it replaced on
// the same lists: build the Graph, encode its record, compile its view.
// Both sides alternate inside one process so host drift hits them alike.
// speedup_x is map time over record time; scripts/perf_gate.sh floors it.
func BenchmarkRecordDecodeSpeedup(b *testing.B) {
	for _, bc := range []struct {
		name string
		body []byte
	}{{"n=100", smallBody(b)}, {"n=2000", tableBody(b)}} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewScanner(bc.body)
			nodes, edges, ok := s.lists()
			// Sorted lists, as the wire form sends them, are read and never
			// reordered, so every iteration sees the same input.
			if !ok || !s.Done() || !slices.IsSortedFunc(edges, byEndpoints) {
				b.Fatal("scanner does not take the benchmark body in wire order")
			}
			var viaMap, viaRecord time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				g, err := build(nodes, edges)
				if err != nil {
					b.Fatal(err)
				}
				recordSink = g.AppendBinary(make([]byte, 0, binaryHeaderLen+binaryNodeLen*g.NumNodes()+binaryEdgeLen*g.NumEdges()))
				viewSink = g.Compile()
				viaMap += time.Since(start)
				start = time.Now()
				recordSink, err = recordFromLists(nil, nodes, edges)
				if err == nil {
					viewSink, err = CompileBinary(recordSink)
				}
				if err != nil {
					b.Fatal(err)
				}
				viaRecord += time.Since(start)
			}
			b.ReportMetric(viaMap.Seconds()/viaRecord.Seconds(), "speedup_x")
			b.ReportMetric(float64(viaRecord.Nanoseconds())/float64(b.N), "record_ns")
		})
	}
}
