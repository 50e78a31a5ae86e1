package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

// jsonSeeds reads testdata/graph_json_seeds.json, the hand-written graph
// documents (a JSON array of strings) this package's scanner fuzz test and
// internal/serve's request fuzz test both start from: canonical and
// reordered keys, exotic whitespace, ids and weights at and past the edges
// of the number grammar and range, duplicate / case-folded / escaped /
// unknown keys, nulls, empty and missing members, parallel and descending
// hub edges, and structural damage.
func jsonSeeds(t testing.TB) []string {
	t.Helper()
	data, err := os.ReadFile("testdata/graph_json_seeds.json")
	if err != nil {
		t.Fatal(err)
	}
	var seeds []string
	if err := json.Unmarshal(data, &seeds); err != nil {
		t.Fatal(err)
	}
	return seeds
}

// wireBody marshals benchGraph(n, edges): random full-precision float
// weights, which is what a request body carries. (netgen imports this
// package, so its generator cannot be used here.)
func wireBody(t testing.TB, n, edges int) []byte {
	t.Helper()
	body, err := json.Marshal(benchGraph(t, n, edges))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// smallBody has the serving benchmark's request graph size (n=100, 480
// edges); tableBody the size of Table I's n=2000 row (9578 edges).
func smallBody(t testing.TB) []byte { return wireBody(t, 100, 480) }

func tableBody(t testing.TB) []byte { return wireBody(t, 2000, 9578) }

// decodeScanned decodes data with the one-pass scanner alone; ok is false
// when the scanner declines it. decodeStdlib decodes through encoding/json
// alone — what UnmarshalJSON was before the scanner, and still is for
// everything the scanner declines.
func decodeScanned(data []byte) (g *Graph, ok bool, err error) {
	s := NewScanner(data)
	nodes, edges, ok := s.lists()
	if !ok || !s.Done() {
		return nil, false, nil
	}
	g, err = build(nodes, edges)
	return g, true, err
}

func decodeStdlib(data []byte) (*Graph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, fmt.Errorf("decode graph json: %w", err)
	}
	return build(jg.Nodes, jg.Edges)
}

// checkScanMatchesStdlib is the scanner's whole contract on one input: if
// it accepts, encoding/json accepts too and both build the same graph (or
// fail graph validation with the same error); what encoding/json rejects
// the scanner therefore declined.
func checkScanMatchesStdlib(t *testing.T, data []byte) (scanned bool) {
	t.Helper()
	want, wantErr := decodeStdlib(data)
	got, ok, gotErr := decodeScanned(data)
	if !ok {
		return false
	}
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("scanner accepted %q: error %v, encoding/json path %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return true
	}
	if !got.Equal(want) {
		t.Fatalf("scanner and encoding/json decode %q to different graphs:\n%v\n%v", data, got, want)
	}
	gotFp, err := got.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if wantFp, _ := want.Fingerprint(); gotFp != wantFp {
		t.Fatalf("fingerprints differ on %q: %s vs %s", data, gotFp, wantFp)
	}
	return true
}

// FuzzGraphJSONMatchesStdlib holds the scanner to encoding/json on
// arbitrary bytes. Run longer with: make fuzz
func FuzzGraphJSONMatchesStdlib(f *testing.F) {
	for _, s := range jsonSeeds(f) {
		f.Add([]byte(s))
	}
	f.Add(smallBody(f))
	f.Add(wireBody(f, 12, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScanMatchesStdlib(t, data)
	})
}

// TestScanAcceptsWireForm: the scanner must actually take the documents the
// system produces and the harmless variations of them — a decline is
// correct but silently costs the whole speedup.
func TestScanAcceptsWireForm(t *testing.T) {
	bodies := map[string][]byte{
		"small":  smallBody(t),
		"table1": tableBody(t),
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, bodies["small"], "\t", "  "); err != nil {
		t.Fatal(err)
	}
	bodies["indented"] = indented.Bytes()
	for _, s := range []string{
		`{"edges":[{"weight":0.5,"v":1,"u":0}],"nodes":[{"weight":1,"id":0},{"weight":2.5,"id":1}]}`,
		" {\r\n\"nodes\" :\t[ { \"id\" : -0 , \"weight\" : 1E+2 } ] , \"edges\" : [ ] }\n",
		`{"nodes":[{"id":3}]}`,
		`{"edges":[]}`,
	} {
		bodies[s] = []byte(s)
	}
	for name, body := range bodies {
		if !checkScanMatchesStdlib(t, body) {
			t.Errorf("%s: scanner declined a canonical document", name)
		}
	}
}

// TestScanDeclineFallsBack pins every decline reason: the scanner steps
// aside, and UnmarshalJSON answers exactly as the encoding/json path does —
// the same graph, or the same error text as before the scanner existed.
func TestScanDeclineFallsBack(t *testing.T) {
	for _, tc := range []struct {
		reason, doc string
		wantErr     string // "" = decodes; otherwise the full error text
	}{
		{"unknown key", `{"nodes":[{"id":0,"weight":1,"label":"f"}],"edges":[],"meta":{}}`, ""},
		{"duplicate top-level key", `{"nodes":[{"id":0,"weight":1}],"nodes":[{"id":5,"weight":2}],"edges":[]}`, ""},
		{"duplicate member key", `{"nodes":[{"id":0,"id":1,"weight":1}],"edges":[]}`, ""},
		{"case-folded key", `{"Nodes":[{"ID":4,"Weight":1}],"EDGES":[]}`, ""},
		{"escaped key", `{"n\u006fdes":[{"id":4,"weight":1}],"edges":[]}`, ""},
		{"top-level null", `null`, ""},
		{"null member", `{"nodes":null,"edges":null}`, ""},
		{"null value", `{"nodes":[{"id":null,"weight":2}],"edges":[]}`, ""},
		{"empty top-level object", `{}`, ""},
		{"empty element object", `{"nodes":[{}],"edges":[]}`, ""},
		{"non-integer id", `{"nodes":[{"id":1.0,"weight":1}],"edges":[]}`,
			"decode graph json: json: cannot unmarshal number 1.0 into Go struct field jsonNode.nodes.id of type graph.NodeID"},
		{"exponent id", `{"nodes":[{"id":1e3,"weight":1}],"edges":[]}`,
			"decode graph json: json: cannot unmarshal number 1e3 into Go struct field jsonNode.nodes.id of type graph.NodeID"},
		{"string id", `{"nodes":[{"id":"1","weight":1}],"edges":[]}`,
			"decode graph json: json: cannot unmarshal string into Go struct field jsonNode.nodes.id of type graph.NodeID"},
		{"out-of-range id", `{"nodes":[{"id":9223372036854775808,"weight":1}],"edges":[]}`,
			"decode graph json: json: cannot unmarshal number 9223372036854775808 into Go struct field jsonNode.nodes.id of type graph.NodeID"},
		{"out-of-range weight", `{"nodes":[{"id":0,"weight":1e999}],"edges":[]}`,
			"decode graph json: json: cannot unmarshal number 1e999 into Go struct field jsonNode.nodes.weight of type float64"},
		{"leading zero", `{"nodes":[{"id":01,"weight":1}],"edges":[]}`,
			"decode graph json: invalid character '1' after object key:value pair"},
		{"trailing bytes", `{"nodes":[{"id":0,"weight":1}],"edges":[]} x`,
			"decode graph json: invalid character 'x' after top-level value"},
		{"trailing comma", `{"nodes":[{"id":0,"weight":1},],"edges":[]}`,
			"decode graph json: invalid character ']' looking for beginning of value"},
		{"truncated", `{"nodes":[{"id":0,"weight":1}],"edges":[`,
			"decode graph json: unexpected end of JSON input"},
		{"empty input", ``, "decode graph json: unexpected end of JSON input"},
	} {
		t.Run(tc.reason, func(t *testing.T) {
			doc := []byte(tc.doc)
			if _, ok, _ := decodeScanned(doc); ok {
				t.Fatal("scanner accepted the document")
			}
			want, wantErr := decodeStdlib(doc)
			got := New(0)
			gotErr := got.UnmarshalJSON(doc)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("UnmarshalJSON error %v, encoding/json path %v", gotErr, wantErr)
			}
			if tc.wantErr != "" {
				if gotErr == nil || gotErr.Error() != tc.wantErr {
					t.Fatalf("error %v, want %q", gotErr, tc.wantErr)
				}
				return
			}
			if gotErr != nil {
				t.Fatalf("unexpected error: %v", gotErr)
			}
			if !got.Equal(want) {
				t.Fatalf("fallback decoded a different graph:\n%v\n%v", got, want)
			}
		})
	}
}

// TestScanSharesGraphValidation: what AddNode and AddEdge reject, they
// reject with the same text whichever path produced the lists.
func TestScanSharesGraphValidation(t *testing.T) {
	for _, doc := range []string{
		`{"nodes":[{"id":0,"weight":1}],"edges":[{"u":0,"v":0,"weight":1}]}`,
		`{"nodes":[{"id":0,"weight":1}],"edges":[{"u":0,"v":9,"weight":1}]}`,
		`{"nodes":[{"id":0,"weight":-1}],"edges":[]}`,
		`{"nodes":[{"id":0,"weight":1},{"id":0,"weight":2}],"edges":[]}`,
		`{"nodes":[{"id":0,"weight":1},{"id":1,"weight":1}],"edges":[{"u":0,"v":1,"weight":-2}]}`,
	} {
		_, ok, err := decodeScanned([]byte(doc))
		if !ok || err == nil {
			t.Errorf("%s: scanned=%v err=%v, want a scanned document failing validation", doc, ok, err)
			continue
		}
		if _, wantErr := decodeStdlib([]byte(doc)); wantErr == nil || wantErr.Error() != err.Error() {
			t.Errorf("%s: scanner path %v, encoding/json path %v", doc, err, wantErr)
		}
	}
}

// BenchmarkGraphUnmarshalSpeedup measures Graph.UnmarshalJSON (scanner
// path) against the retained encoding/json path on the same bodies,
// alternating inside one process so host drift hits both sides alike.
// decode_x is encoding/json time over scanner time; scripts/perf_gate.sh
// floors it.
func BenchmarkGraphUnmarshalSpeedup(b *testing.B) {
	for _, bc := range []struct {
		name string
		body []byte
	}{{"n=100", smallBody(b)}, {"n=2000", tableBody(b)}} {
		b.Run(bc.name, func(b *testing.B) {
			if _, ok, err := decodeScanned(bc.body); !ok || err != nil {
				b.Fatalf("scanner does not take the benchmark body (ok=%v, err=%v)", ok, err)
			}
			var stdlib, scan time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if _, err := decodeStdlib(bc.body); err != nil {
					b.Fatal(err)
				}
				stdlib += time.Since(start)
				start = time.Now()
				if err := New(0).UnmarshalJSON(bc.body); err != nil {
					b.Fatal(err)
				}
				scan += time.Since(start)
			}
			b.ReportMetric(stdlib.Seconds()/scan.Seconds(), "decode_x")
			b.ReportMetric(float64(scan.Nanoseconds())/float64(b.N), "scan_ns")
		})
	}
}
