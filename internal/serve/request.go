package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"copmecs/internal/graph"
	"copmecs/internal/mec"
)

// Decode limits. DefaultMaxNodes and DefaultMaxEdges are overridable via
// Config.Limits; the body cap is a constant of the service.
const (
	// DefaultMaxBodyBytes caps one request body.
	DefaultMaxBodyBytes = 8 << 20
	// DefaultMaxNodes caps the decoded graph's node count.
	DefaultMaxNodes = 100_000
	// DefaultMaxEdges caps the decoded graph's edge count.
	DefaultMaxEdges = 1_000_000
)

// Decoder errors. Handlers map all of them to 400 Bad Request.
var (
	// ErrBadRequest wraps every malformed-body failure.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrTooLarge is returned when the graph exceeds the configured node or
	// edge limits (or the body exceeds the byte cap).
	ErrTooLarge = errors.New("serve: request too large")
	// ErrNoGraph is returned when the body carries no graph.
	ErrNoGraph = errors.New("serve: request has no graph")
)

// ParamsJSON optionally overrides the daemon-wide mec.Params for the
// request's solve round. Zero fields keep the server's defaults; requests
// are micro-batched only with requests sharing the same resolved Params
// (contention is only meaningful between users of the same edge server).
type ParamsJSON struct {
	// ServerCapacity overrides Params.ServerCapacity when positive.
	ServerCapacity float64 `json:"server_capacity,omitempty"`
	// DeviceCompute overrides Params.DeviceCompute when positive.
	DeviceCompute float64 `json:"device_compute,omitempty"`
	// PowerCompute overrides Params.PowerCompute when positive.
	PowerCompute float64 `json:"power_compute,omitempty"`
	// PowerTransmit overrides Params.PowerTransmit when positive.
	PowerTransmit float64 `json:"power_transmit,omitempty"`
	// Bandwidth overrides Params.Bandwidth when positive.
	Bandwidth float64 `json:"bandwidth,omitempty"`
}

// merge resolves the override against the server defaults.
func (p ParamsJSON) merge(base mec.Params) mec.Params {
	if p.ServerCapacity > 0 {
		base.ServerCapacity = p.ServerCapacity
	}
	if p.DeviceCompute > 0 {
		base.DeviceCompute = p.DeviceCompute
	}
	if p.PowerCompute > 0 {
		base.PowerCompute = p.PowerCompute
	}
	if p.PowerTransmit > 0 {
		base.PowerTransmit = p.PowerTransmit
	}
	if p.Bandwidth > 0 {
		base.Bandwidth = p.Bandwidth
	}
	return base
}

// SolveRequest is the POST /v1/solve body: one user's function data-flow
// graph plus the optional overrides.
type SolveRequest struct {
	// Graph is the user's function data-flow graph (required).
	Graph *graph.Graph `json:"graph"`
	UserOverrides
}

// UserOverrides are the optional fields both POST bodies carry, inline:
// system-parameter overrides for the round the request is solved in, and
// per-user overrides (the heterogeneous-link generalisation of
// core.UserInput).
type UserOverrides struct {
	// Params optionally overrides the daemon's mec.Params.
	Params *ParamsJSON `json:"params,omitempty"`
	// FixedLocalWork is computation pinned to the device.
	FixedLocalWork float64 `json:"fixed_local_work,omitempty"`
	// DeviceCompute overrides the default device speed when positive.
	DeviceCompute float64 `json:"device_compute,omitempty"`
	// Bandwidth overrides the default uplink rate when positive.
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// PowerTransmit overrides the default radio power when positive.
	PowerTransmit float64 `json:"power_transmit,omitempty"`
}

// DecodeLimits bounds what DecodeSolveRequest accepts. The zero value means
// the package defaults.
type DecodeLimits struct {
	// MaxNodes caps the graph's node count (≤ 0 means DefaultMaxNodes).
	MaxNodes int
	// MaxEdges caps the graph's edge count (≤ 0 means DefaultMaxEdges).
	MaxEdges int
}

// withDefaults resolves zero fields to the package defaults.
func (l DecodeLimits) withDefaults() DecodeLimits {
	if l.MaxNodes <= 0 {
		l.MaxNodes = DefaultMaxNodes
	}
	if l.MaxEdges <= 0 {
		l.MaxEdges = DefaultMaxEdges
	}
	return l
}

// check rejects a graph that is empty or over the limits; like every
// decode error it wraps ErrBadRequest.
func (l DecodeLimits) check(g *graph.Graph) error {
	l = l.withDefaults()
	switch n, m := g.NumNodes(), g.NumEdges(); {
	case n == 0:
		return fmt.Errorf("%w: %w", ErrBadRequest, ErrNoGraph)
	case n > l.MaxNodes:
		return fmt.Errorf("%w: %w: %d nodes (limit %d)", ErrBadRequest, ErrTooLarge, n, l.MaxNodes)
	case m > l.MaxEdges:
		return fmt.Errorf("%w: %w: %d edges (limit %d)", ErrBadRequest, ErrTooLarge, m, l.MaxEdges)
	}
	return nil
}

// decodeStrict reads exactly one JSON value from r into v: unknown fields
// and trailing data are errors.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// A second JSON value after the request is a framing error.
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: trailing data after request", ErrBadRequest)
	}
	return nil
}

// validate rejects negative per-user and params overrides.
func (o UserOverrides) validate() error {
	if o.FixedLocalWork < 0 || o.DeviceCompute < 0 || o.Bandwidth < 0 || o.PowerTransmit < 0 {
		return fmt.Errorf("%w: negative override", ErrBadRequest)
	}
	if p := o.Params; p != nil &&
		(p.ServerCapacity < 0 || p.DeviceCompute < 0 || p.PowerCompute < 0 ||
			p.PowerTransmit < 0 || p.Bandwidth < 0) {
		return fmt.Errorf("%w: negative params override", ErrBadRequest)
	}
	return nil
}

// DecodeSolveRequest reads one JSON request body, rejecting malformed JSON,
// unknown fields, missing graphs, and graphs over the limits. Every error
// wraps ErrBadRequest (ErrTooLarge and ErrNoGraph do too), so handlers can
// map the whole family to one status code; it never panics on hostile
// input (fuzzed in fuzz_test.go).
func DecodeSolveRequest(r io.Reader, limits DecodeLimits) (*SolveRequest, error) {
	var req SolveRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if req.Graph == nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, ErrNoGraph)
	}
	if err := limits.check(req.Graph); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// paramsDigest hashes the resolved system parameters; requests are batched
// into solve rounds only with requests sharing this digest.
func paramsDigest(p mec.Params) string {
	h := sha256.New()
	writeFloats(h, p.ServerCapacity, p.DeviceCompute, p.PowerCompute, p.PowerTransmit, p.Bandwidth)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// requestKey computes the request's two cache identities in one graph
// encoding pass: fp is the canonical graph fingerprint (the graph-intern
// key, matching graph.Fingerprint), and key — fp plus the resolved params
// and the per-user overrides — is the solution-cache and singleflight key.
// Two requests with equal keys are interchangeable: same graph content,
// same system constants, same device/link overrides.
func requestKey(req *SolveRequest, params mec.Params) (key, fp string, err error) {
	gh := sha256.New()
	if err := req.Graph.WriteBinary(gh); err != nil {
		return "", "", fmt.Errorf("%w: request key: %v", ErrBadRequest, err)
	}
	fp = hex.EncodeToString(gh.Sum(nil))
	h := sha256.New()
	_, _ = io.WriteString(h, fp)
	putFloatBlock(h, params, req.UserOverrides)
	return hex.EncodeToString(h.Sum(nil)), fp, nil
}

// putFloatBlock writes the resolved params and the per-user overrides in
// their canonical order: the tail of the cache key, and (durability.go)
// the float block of a journal record — the same bytes, so replaying a
// record reproduces the live request's cache identity.
func putFloatBlock(w io.Writer, p mec.Params, o UserOverrides) {
	writeFloats(w,
		p.ServerCapacity, p.DeviceCompute, p.PowerCompute, p.PowerTransmit, p.Bandwidth,
		o.FixedLocalWork, o.DeviceCompute, o.Bandwidth, o.PowerTransmit)
}

// writeFloats appends the canonical little-endian encoding of each value
// to the hash. Hash writes never fail.
func writeFloats(w io.Writer, vals ...float64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, _ = w.Write(buf[:])
	}
}
