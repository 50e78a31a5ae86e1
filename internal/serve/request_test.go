package serve

import (
	"errors"
	"strings"
	"testing"

	"copmecs/internal/mec"
)

const goodBody = `{"graph":{"nodes":[{"id":0,"weight":50},{"id":1,"weight":120}],"edges":[{"u":0,"v":1,"weight":40}]}}`

func TestDecodeSolveRequestOK(t *testing.T) {
	req, err := DecodeSolveRequest(strings.NewReader(goodBody), DecodeLimits{})
	if err != nil {
		t.Fatalf("DecodeSolveRequest: %v", err)
	}
	if req.Graph == nil || req.Graph.NumNodes() != 2 || req.Graph.NumEdges() != 1 {
		t.Fatalf("decoded graph = %v", req.Graph)
	}
}

func TestDecodeSolveRequestOverrides(t *testing.T) {
	body := `{"graph":{"nodes":[{"id":0,"weight":5}],"edges":[]},` +
		`"params":{"server_capacity":9000},"fixed_local_work":10,"bandwidth":300}`
	req, err := DecodeSolveRequest(strings.NewReader(body), DecodeLimits{})
	if err != nil {
		t.Fatalf("DecodeSolveRequest: %v", err)
	}
	if req.Params == nil || req.Params.ServerCapacity != 9000 {
		t.Fatalf("params = %+v", req.Params)
	}
	if req.FixedLocalWork != 10 || req.Bandwidth != 300 {
		t.Fatalf("overrides = %+v", req)
	}
	merged := req.Params.merge(mec.Defaults())
	if merged.ServerCapacity != 9000 {
		t.Fatalf("merged ServerCapacity = %v", merged.ServerCapacity)
	}
	if def := mec.Defaults(); merged.DeviceCompute != def.DeviceCompute {
		t.Fatalf("merge clobbered DeviceCompute: %v", merged.DeviceCompute)
	}
}

func TestDecodeSolveRequestRejects(t *testing.T) {
	cases := []struct {
		name    string
		body    string
		limits  DecodeLimits
		wantErr error
	}{
		{"empty", "", DecodeLimits{}, ErrBadRequest},
		{"malformed", `{"graph":`, DecodeLimits{}, ErrBadRequest},
		{"not json", "hello", DecodeLimits{}, ErrBadRequest},
		{"unknown field", `{"graph":{"nodes":[{"id":0,"weight":1}],"edges":[]},"bogus":1}`, DecodeLimits{}, ErrBadRequest},
		{"trailing data", goodBody + `{"x":1}`, DecodeLimits{}, ErrBadRequest},
		{"no graph", `{}`, DecodeLimits{}, ErrNoGraph},
		{"null graph", `{"graph":null}`, DecodeLimits{}, ErrNoGraph},
		{"empty graph", `{"graph":{"nodes":[],"edges":[]}}`, DecodeLimits{}, ErrNoGraph},
		{"too many nodes", goodBody, DecodeLimits{MaxNodes: 1}, ErrTooLarge},
		{"too many edges", goodBody, DecodeLimits{MaxNodes: 2, MaxEdges: 1}, nil}, // exactly at limit: OK
		{"negative override", `{"graph":{"nodes":[{"id":0,"weight":1}],"edges":[]},"bandwidth":-1}`, DecodeLimits{}, ErrBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := DecodeSolveRequest(strings.NewReader(tc.body), tc.limits)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("DecodeSolveRequest: %v", err)
				}
				return
			}
			if req != nil {
				t.Fatalf("rejected decode returned request %+v", req)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			// The whole family maps to 400.
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("err = %v does not wrap ErrBadRequest", err)
			}
		})
	}
}

func TestDecodeEdgeLimit(t *testing.T) {
	body := `{"graph":{"nodes":[{"id":0,"weight":1},{"id":1,"weight":1},{"id":2,"weight":1}],` +
		`"edges":[{"u":0,"v":1,"weight":1},{"u":1,"v":2,"weight":1}]}}`
	_, err := DecodeSolveRequest(strings.NewReader(body), DecodeLimits{MaxEdges: 1})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestRequestKeyStability(t *testing.T) {
	params := mec.Defaults()
	req, err := DecodeSolveRequest(strings.NewReader(goodBody), DecodeLimits{})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	ka, fa, _ := liveKey(t, []byte(goodBody), params)
	if kb, fb, _ := liveKey(t, []byte(goodBody), params); ka != kb || fa != fb {
		t.Fatalf("equal requests keyed differently: (%s, %s) vs (%s, %s)", ka, fa, kb, fb)
	}
	// The record's fingerprint must match graph.Fingerprint — it is the
	// graph-intern key, and mutate bases and router placement use it too.
	if want, err := req.Graph.Fingerprint(); err != nil || fa != want {
		t.Fatalf("fingerprint = %s (err %v), want %s", fa, err, want)
	}
	if fp, err := FingerprintSolveBody([]byte(goodBody), DecodeLimits{}); err != nil || fp != fa {
		t.Fatalf("FingerprintSolveBody = %s (err %v), want %s", fp, err, fa)
	}
	if want, _, err := oracleKey(req, params); err != nil || ka != want {
		t.Fatalf("key = %s (err %v), the map Graph's %s", ka, err, want)
	}

	// Any input that changes the solve must change the key — but not the
	// graph fingerprint, which identifies the graph alone.
	p2 := params
	p2.ServerCapacity *= 2
	if k2, f2, _ := liveKey(t, []byte(goodBody), p2); k2 == ka || f2 != fa {
		t.Fatalf("params change: key %s fp %s, want new key, same fp", k2, f2)
	}
	overridden := goodBody[:len(goodBody)-1] + `,"fixed_local_work":5}`
	if k3, f3, _ := liveKey(t, []byte(overridden), params); k3 == ka || f3 != fa {
		t.Fatalf("override change: key %s fp %s, want new key, same fp", k3, f3)
	}
}

func TestParamsDigestPartitions(t *testing.T) {
	a, b := mec.Defaults(), mec.Defaults()
	if paramsDigest(a) != paramsDigest(b) {
		t.Fatal("equal params digested differently")
	}
	b.Bandwidth++
	if paramsDigest(a) == paramsDigest(b) {
		t.Fatal("different params share a digest")
	}
}
