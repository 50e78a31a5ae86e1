package graph

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestJSONRoundTrip(t *testing.T) {
	g := paperFig1(t)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !g.Equal(&back) {
		t.Errorf("JSON round trip lost data:\n in: %v\nout: %v", g, &back)
	}
}

func TestJSONEmptyGraph(t *testing.T) {
	g := New(0)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.NumNodes() != 0 || back.NumEdges() != 0 {
		t.Errorf("empty round trip = %v", &back)
	}
}

func TestJSONRejectsGarbage(t *testing.T) {
	var g Graph
	if err := json.Unmarshal([]byte(`{"nodes": "x"}`), &g); err == nil {
		t.Error("garbage JSON accepted")
	}
	// Edge referencing a missing node must fail.
	bad := `{"nodes":[{"id":0,"weight":1}],"edges":[{"u":0,"v":9,"weight":1}]}`
	if err := json.Unmarshal([]byte(bad), &g); err == nil {
		t.Error("edge to missing node accepted")
	}
}

func TestJSONDeterministic(t *testing.T) {
	g := paperFig1(t)
	a, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("MarshalJSON not deterministic")
	}
	if !strings.Contains(string(a), `"nodes"`) {
		t.Errorf("unexpected JSON shape: %s", a)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := paperFig1(t)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !g.Equal(back) {
		t.Errorf("binary round trip lost data:\n in: %v\nout: %v", g, back)
	}
}

func TestBinaryEmpty(t *testing.T) {
	g := New(0)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 0 {
		t.Errorf("empty binary round trip = %v", back)
	}
}

func TestBinaryRejectsForeign(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph at all....."))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("foreign input error = %v, want ErrBadFormat", err)
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	g := paperFig1(t)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 10, len(full) / 2, len(full) - 1} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated input at %d bytes accepted", cut)
		}
	}
}

// edgeListEncodings hand-encodes nodes 0..n-1 (weight 1) and the given edge
// list, in the order given, in both wire forms — the one way to put a
// non-canonical edge order in front of the decoders.
func edgeListEncodings(n int, es []Edge) (jsonBody, binBody []byte) {
	var js bytes.Buffer
	js.WriteString(`{"nodes":[`)
	bin := binary.LittleEndian.AppendUint32(nil, binaryMagic)
	bin = binary.LittleEndian.AppendUint16(bin, binaryVersion)
	bin = binary.LittleEndian.AppendUint32(bin, uint32(n))
	bin = binary.LittleEndian.AppendUint32(bin, uint32(len(es)))
	for id := 0; id < n; id++ {
		if id > 0 {
			js.WriteByte(',')
		}
		fmt.Fprintf(&js, `{"id":%d,"weight":1}`, id)
		bin = binary.LittleEndian.AppendUint64(bin, uint64(id))
		bin = binary.LittleEndian.AppendUint64(bin, math.Float64bits(1))
	}
	js.WriteString(`],"edges":[`)
	for i, e := range es {
		if i > 0 {
			js.WriteByte(',')
		}
		fmt.Fprintf(&js, `{"u":%d,"v":%d,"weight":%v}`, e.U, e.V, e.Weight)
		bin = binary.LittleEndian.AppendUint64(bin, uint64(e.U))
		bin = binary.LittleEndian.AppendUint64(bin, uint64(e.V))
		bin = binary.LittleEndian.AppendUint64(bin, math.Float64bits(e.Weight))
	}
	js.WriteString(`]}`)
	return js.Bytes(), bin
}

// TestDecodeHubOrderIndependent decodes a star at serve's default node limit
// whose edges arrive nearest-leaf-first and farthest-leaf-first. Inserted as
// listed, the second order shifts the hub's whole row per edge (seconds of
// work); the decoders sort first, so both orders must cost about the same
// and decode to the same graph.
func TestDecodeHubOrderIndependent(t *testing.T) {
	const leaves = 100_000
	asc := make([]Edge, leaves)
	for i := range asc {
		asc[i] = Edge{U: 0, V: NodeID(i + 1), Weight: float64(i%7 + 1)}
	}
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	ascJSON, ascBin := edgeListEncodings(leaves+1, asc)
	descJSON, descBin := edgeListEncodings(leaves+1, desc)

	decoders := []struct {
		name      string
		asc, desc []byte
		decode    func([]byte) (*Graph, error)
	}{
		{"json", ascJSON, descJSON, func(b []byte) (*Graph, error) {
			g := new(Graph)
			return g, json.Unmarshal(b, g)
		}},
		{"binary", ascBin, descBin, func(b []byte) (*Graph, error) {
			return ReadBinary(bytes.NewReader(b))
		}},
	}
	for _, d := range decoders {
		// Best of three per order: the bound is on the work, not on what a
		// busy machine does to one run.
		timed := func(body []byte) (*Graph, time.Duration) {
			var g *Graph
			best := time.Duration(math.MaxInt64)
			for run := 0; run < 3; run++ {
				start := time.Now()
				var err error
				if g, err = d.decode(body); err != nil {
					t.Fatalf("%s: %v", d.name, err)
				}
				best = min(best, time.Since(start))
			}
			return g, best
		}
		ga, ta := timed(d.asc)
		gd, td := timed(d.desc)
		t.Logf("%s: asc %v desc %v", d.name, ta, td)
		if td > 3*ta {
			t.Errorf("%s: descending star decoded in %v, ascending in %v: more than 3x", d.name, td, ta)
		}
		if !ga.Equal(gd) || ga.NumEdges() != leaves {
			t.Errorf("%s: the two orders decode to different graphs: %v vs %v", d.name, ga, gd)
		}
		fa, erra := ga.Fingerprint()
		fd, errd := gd.Fingerprint()
		if erra != nil || errd != nil || fa != fd {
			t.Errorf("%s: fingerprints differ across edge orders: %v %v / %v %v", d.name, fa, erra, fd, errd)
		}
		if err := gd.Validate(); err != nil {
			t.Errorf("%s: %v", d.name, err)
		}
	}
}

// TestDecodeCoalescesInInputOrder lists parallel edges out of canonical
// order, both endpoint orders mixed: the decoders' sort is stable, so each
// pair's weights are summed in the order listed and the result is bit for
// bit what inserting the list as given produces.
func TestDecodeCoalescesInInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 12
	es := make([]Edge, 0, 400)
	for len(es) < cap(es) {
		if u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); u != v {
			es = append(es, Edge{U: u, V: v, Weight: rng.Float64() * 10})
		}
	}
	want := New(n)
	for id := 0; id < n; id++ {
		must(want.AddNode(NodeID(id), 1))
	}
	for _, e := range es {
		must(want.AddEdge(e.U, e.V, e.Weight))
	}
	jsonBody, binBody := edgeListEncodings(n, es)
	var fromJSON Graph
	if err := json.Unmarshal(jsonBody, &fromJSON); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(bytes.NewReader(binBody))
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(&fromJSON) || !want.Equal(fromBin) {
		t.Errorf("decoded sums differ from in-order insertion: json %v, binary %v, want %v", &fromJSON, fromBin, want)
	}
}
