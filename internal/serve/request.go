package serve

import (
	"bytes"
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

// scanMember is ParamsJSON's key → field table over the shared scanner.
func (p *ParamsJSON) scanMember(s *graph.Scanner, key []byte) uint8 {
	switch string(key) {
	case "server_capacity":
		return s.Float(&p.ServerCapacity, 1)
	case "device_compute":
		return s.Float(&p.DeviceCompute, 2)
	case "power_compute":
		return s.Float(&p.PowerCompute, 4)
	case "power_transmit":
		return s.Float(&p.PowerTransmit, 8)
	case "bandwidth":
		return s.Float(&p.Bandwidth, 16)
	}
	return 0
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

// scanMember is the key → field table of the members both POST bodies share;
// its bits leave 1 and 64 to the embedding request's own members.
func (o *UserOverrides) scanMember(s *graph.Scanner, key []byte) uint8 {
	switch string(key) {
	case "params":
		o.Params = new(ParamsJSON)
		if s.Members(func(key []byte) uint8 { return o.Params.scanMember(s, key) }) {
			return 2
		}
	case "fixed_local_work":
		return s.Float(&o.FixedLocalWork, 4)
	case "device_compute":
		return s.Float(&o.DeviceCompute, 8)
	case "bandwidth":
		return s.Float(&o.Bandwidth, 16)
	case "power_transmit":
		return s.Float(&o.PowerTransmit, 32)
	}
	return 0
}

// decodedSolve is a /v1/solve body as the server reads it: SolveRequest with
// the graph decoded straight into its canonical binary record, no Graph
// built (graph.AppendRecordJSON). It is the only form the serving tier and
// the router decode a body into.
type decodedSolve struct {
	Graph *graphRecord `json:"graph"`
	UserOverrides
}

// graphRecord is a graph member as decodedSolve holds it: acceptedGraphOffset
// bytes of room, which accepted fills with the recAccepted header, then the
// graph's canonical binary record.
type graphRecord []byte

// UnmarshalJSON is decodeStrict's way into the record: graph.AppendRecordJSON,
// whose errors are the ones Graph.UnmarshalJSON gives.
func (r *graphRecord) UnmarshalJSON(data []byte) error {
	rec, err := graph.AppendRecordJSON(make([]byte, acceptedGraphOffset), data)
	*r = rec
	return err
}

// record is req's graph as its canonical binary record.
func (req *decodedSolve) record() []byte { return (*req.Graph)[acceptedGraphOffset:] }

// scan reads body as one /v1/solve request in a single pass over its bytes,
// the graph's record written in place. False declines (see graph.Scanner):
// body is then decodeStrict's to accept or reject.
func (req *decodedSolve) scan(body []byte) bool {
	s := graph.NewScanner(body)
	return s.Members(func(key []byte) uint8 {
		if string(key) != "graph" {
			return req.scanMember(s, key)
		}
		rec, ok := s.Record(make([]byte, acceptedGraphOffset))
		if !ok {
			return 0
		}
		req.Graph = (*graphRecord)(&rec)
		return 1
	}) && s.Done()
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

// check rejects a graph of n nodes and m edges that is empty or over the
// limits; like every decode error it wraps ErrBadRequest.
func (l DecodeLimits) check(n, m int) error {
	l = l.withDefaults()
	switch {
	case n == 0:
		return fmt.Errorf("%w: %w", ErrBadRequest, ErrNoGraph)
	case n > l.MaxNodes:
		return fmt.Errorf("%w: %w: %d nodes (limit %d)", ErrBadRequest, ErrTooLarge, n, l.MaxNodes)
	case m > l.MaxEdges:
		return fmt.Errorf("%w: %w: %d edges (limit %d)", ErrBadRequest, ErrTooLarge, m, l.MaxEdges)
	}
	return nil
}

// decodeStrict reads exactly one JSON value from body into v: unknown fields
// and trailing data are errors. It defines what a request body may be and
// what each malformed one is answered with; the scan methods only get to the
// same value sooner.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
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

// readBody reads r to its end, in one allocation when r knows its length (a
// bytes.Reader, strings.Reader or bytes.Buffer does).
func readBody(r io.Reader) ([]byte, error) {
	if sized, ok := r.(interface{ Len() int }); ok {
		body := make([]byte, sized.Len())
		_, err := io.ReadFull(r, body)
		return body, err
	}
	return io.ReadAll(r)
}

// DecodeSolveRequest is DecodeSolveBody over a reader, read to its end.
func DecodeSolveRequest(r io.Reader, limits DecodeLimits) (*SolveRequest, error) {
	body, err := readBody(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return DecodeSolveBody(body, limits)
}

// DecodeSolveBody decodes one JSON request body, rejecting malformed JSON,
// unknown fields, missing graphs, and graphs over the limits. Every error
// wraps ErrBadRequest (ErrTooLarge and ErrNoGraph do too), so handlers can
// map the whole family to one status code; it never panics on hostile
// input (fuzzed in fuzz_test.go). body is not retained. It is the server's
// decode (decodeSolve) with the graph read back from its record: the server
// itself builds no Graph.
func DecodeSolveBody(body []byte, limits DecodeLimits) (*SolveRequest, error) {
	req, err := decodeSolve(body, limits)
	if err != nil {
		return nil, err
	}
	g, err := graph.ReadBinary(bytes.NewReader(req.record()))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return &SolveRequest{Graph: g, UserOverrides: req.UserOverrides}, nil
}

// decodeSolve defines what a /v1/solve body may be: the one-pass scan when it
// takes the body, decodeStrict when it declines, then check.
func decodeSolve(body []byte, limits DecodeLimits) (*decodedSolve, error) {
	var req decodedSolve
	if !req.scan(body) {
		// Named as the wire type is, which encoding/json's type errors quote.
		type SolveRequest decodedSolve
		var wire SolveRequest
		if err := decodeStrict(body, &wire); err != nil {
			return nil, err
		}
		req = decodedSolve(wire)
	}
	if err := req.check(limits); err != nil {
		return nil, err
	}
	return &req, nil
}

// FingerprintSolveBody decodes a /v1/solve body as the server does and
// returns its graph's fingerprint, hashed off the record: a router's key for
// placing the request.
func FingerprintSolveBody(body []byte, limits DecodeLimits) (string, error) {
	req, err := decodeSolve(body, limits)
	if err != nil {
		return "", err
	}
	fp, err := graph.FingerprintBinary(req.record())
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return fp, nil
}

// check applies what a decoded body must still satisfy: a graph, within the
// limits, and no negative override.
func (req *decodedSolve) check(limits DecodeLimits) error {
	if req.Graph == nil {
		return fmt.Errorf("%w: %w", ErrBadRequest, ErrNoGraph)
	}
	n, m, err := graph.BinaryCounts(req.record())
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err := limits.check(n, m); err != nil {
		return err
	}
	return req.validate()
}

// paramsDigest hashes the resolved system parameters; requests are batched
// into solve rounds only with requests sharing this digest.
func paramsDigest(p mec.Params) string {
	blk := floatBlock(p, UserOverrides{})
	sum := sha256.Sum256(blk[:5*8])
	return hex.EncodeToString(sum[:16])
}

// cacheKey is the solution-cache and singleflight key of the graph
// fingerprinted fp solved under params and o: the digest of fp and the float
// block.
func cacheKey(fp string, params mec.Params, o UserOverrides) string {
	blk := floatBlock(params, o)
	sum := sha256.Sum256(append(append(make([]byte, 0, graph.FingerprintLen+floatBlockLen), fp...), blk[:]...))
	return hex.EncodeToString(sum[:])
}

// floatBlockLen is the byte length of floatBlock: five resolved system params
// and four per-user overrides, little-endian float64s.
const floatBlockLen = 9 * 8

// floatBlock is the resolved params and the per-user overrides in their
// canonical order: the tail of the cache key, and (durability.go) the block
// behind the type byte of both journal record kinds — the same bytes, so
// replaying a record reproduces the live request's cache identity.
func floatBlock(p mec.Params, o UserOverrides) (blk [floatBlockLen]byte) {
	for i, v := range [...]float64{
		p.ServerCapacity, p.DeviceCompute, p.PowerCompute, p.PowerTransmit, p.Bandwidth,
		o.FixedLocalWork, o.DeviceCompute, o.Bandwidth, o.PowerTransmit,
	} {
		binary.LittleEndian.PutUint64(blk[i*8:], math.Float64bits(v))
	}
	return blk
}
