package graph

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
)

// jsonGraph is the wire form used by MarshalJSON/UnmarshalJSON.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []Edge     `json:"edges"`
}

type jsonNode struct {
	ID     NodeID  `json:"id"`
	Weight float64 `json:"weight"`
}

var (
	_ json.Marshaler   = (*Graph)(nil)
	_ json.Unmarshaler = (*Graph)(nil)
)

// MarshalJSON encodes the graph as {"nodes": [...], "edges": [...]} with
// deterministic ordering.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{
		Nodes: make([]jsonNode, 0, g.NumNodes()),
		Edges: g.Edges(),
	}
	for _, id := range g.Nodes() {
		w, err := g.NodeWeight(id)
		if err != nil {
			return nil, err
		}
		jg.Nodes = append(jg.Nodes, jsonNode{ID: id, Weight: w})
	}
	return json.Marshal(jg)
}

// UnmarshalJSON decodes the form produced by MarshalJSON, replacing the
// receiver's contents. scanGraphJSON reads the canonical wire form in one
// pass; whatever it declines goes through encoding/json, which alone defines
// the accepted language and every decode error. Graph validation (AddNode,
// AddEdge) is shared by both.
func (g *Graph) UnmarshalJSON(data []byte) error {
	nodes, edges, ok := scanGraphJSON(data)
	if !ok {
		var jg jsonGraph
		if err := json.Unmarshal(data, &jg); err != nil {
			return fmt.Errorf("decode graph json: %w", err)
		}
		nodes, edges = jg.Nodes, jg.Edges
	}
	return g.adopt(nodes, edges)
}

// adopt replaces g's contents with the decoded lists' graph (edges is reordered).
func (g *Graph) adopt(nodes []jsonNode, edges []Edge) error {
	fresh := New(len(nodes))
	for _, n := range nodes {
		if err := fresh.AddNode(n.ID, n.Weight); err != nil {
			return fmt.Errorf("decode graph json: %w", err)
		}
	}
	if err := fresh.addEdgesSorted(edges); err != nil {
		return fmt.Errorf("decode graph json: %w", err)
	}
	// Adopt fresh's contents field by field: a struct assignment would
	// copy the nodeList latch, which must not be moved once published.
	g.nodes = fresh.nodes
	g.edgeCount = fresh.edgeCount
	g.totalEdgeWeight = fresh.totalEdgeWeight
	g.nodeList.Store(fresh.nodeList.Load())
	return nil
}

// graphScanner reads exactly one shape straight off the bytes — an object
// whose "nodes" and "edges" members are arrays of {"id","weight"} and
// {"u","v","weight"} objects, keys in any order, JSON whitespace anywhere,
// numbers in JSON grammar — and declines everything else (an unknown,
// repeated, escaped or case-folded key, null, an empty object, a non-integer
// or out-of-range number, trailing bytes) rather than guess what
// encoding/json would make of it.
type graphScanner struct {
	b []byte
	i int
}

// next skips JSON whitespace and returns the byte it stops on, 0 at the end.
func (s *graphScanner) next() byte {
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next non-space byte.
func (s *graphScanner) eat(c byte) bool {
	if s.next() != c {
		return false
	}
	s.i++
	return true
}

// key consumes `"name":` and returns name, nil unless name is all lower-case
// ASCII letters (every key of the wire form is).
func (s *graphScanner) key() []byte {
	if !s.eat('"') {
		return nil
	}
	start := s.i
	for s.i < len(s.b) && 'a' <= s.b[s.i] && s.b[s.i] <= 'z' {
		s.i++
	}
	if name := s.b[start:s.i]; s.i < len(s.b) && s.b[s.i] == '"' {
		if s.i++; s.eat(':') {
			return name
		}
	}
	return nil
}

// number consumes one JSON-grammar number and returns its text (nil: not one).
func (s *graphScanner) number() []byte {
	s.next()
	b, i := s.b, s.i
	digits := func() bool {
		from := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil
		}
	}
	tok := b[s.i:i]
	s.i = i
	return tok
}

// integer reads the next value as encoding/json reads an int field (NodeID
// is an int: IntSize) and returns bit, or 0 to decline.
func (s *graphScanner) integer(dst *NodeID, bit uint8) uint8 {
	v, err := strconv.ParseInt(string(s.number()), 10, strconv.IntSize)
	if err != nil {
		return 0
	}
	*dst = NodeID(v)
	return bit
}

// float is integer for a float64 field.
func (s *graphScanner) float(dst *float64, bit uint8) uint8 {
	v, err := strconv.ParseFloat(string(s.number()), 64)
	if err != nil {
		return 0
	}
	*dst = v
	return bit
}

// members consumes a non-empty object. member gets each key with the scanner
// on its value, consumes the value and returns the key's bit (0 declines; so
// does a bit seen twice).
func (s *graphScanner) members(member func(key []byte) uint8) bool {
	if !s.eat('{') {
		return false
	}
	for seen := uint8(0); ; {
		bit := member(s.key())
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// array consumes an array of objects: members on each, then emit.
func (s *graphScanner) array(member func(key []byte) uint8, emit func()) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !s.members(member) {
			return false
		}
		emit()
		if s.eat(']') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// scanGraphJSON decodes data in one pass into the node and edge lists
// encoding/json would produce, or reports false: data is then for
// encoding/json to accept or reject. A member an object leaves out is zero
// on both paths.
func scanGraphJSON(data []byte) (nodes []jsonNode, edges []Edge, ok bool) {
	s := graphScanner{b: data}
	var n jsonNode
	var e Edge
	ok = s.members(func(key []byte) uint8 {
		switch string(key) {
		case "nodes":
			if s.array(func(key []byte) uint8 {
				switch string(key) {
				case "id":
					return s.integer(&n.ID, 1)
				case "weight":
					return s.float(&n.Weight, 2)
				}
				return 0
			}, func() { nodes, n = append(nodes, n), jsonNode{} }) {
				return 1
			}
		case "edges":
			if s.array(func(key []byte) uint8 {
				switch string(key) {
				case "u":
					return s.integer(&e.U, 1)
				case "v":
					return s.integer(&e.V, 2)
				case "weight":
					return s.float(&e.Weight, 4)
				}
				return 0
			}, func() { edges, e = append(edges, e), Edge{} }) {
				return 2
			}
		}
		return 0
	})
	s.next() // trailing whitespace is all that may follow
	return nodes, edges, ok && s.i == len(data)
}

// addEdgesSorted adds es to a graph that has no edges yet, reordering es by
// (smaller endpoint, larger endpoint) first. In that order every row insert
// is an append, so a decode is O(m log m) whatever order the input lists its
// edges in — far-to-near around a hub would otherwise be O(d²). The sort is
// stable: parallel edges coalesce in input order, so their sums are the ones
// in-order insertion gives.
func (g *Graph) addEdgesSorted(es []Edge) error {
	slices.SortStableFunc(es, func(a, b Edge) int {
		return cmp.Or(
			cmp.Compare(min(a.U, a.V), min(b.U, b.V)),
			cmp.Compare(max(a.U, a.V), max(b.U, b.V)),
		)
	})
	for _, e := range es {
		if err := g.AddEdge(e.U, e.V, e.Weight); err != nil {
			return err
		}
	}
	return nil
}

// binaryMagic guards the compact binary format against foreign input.
const binaryMagic = 0x434f5047 // "COPG"

const binaryVersion = 1

// ErrBadFormat is returned by ReadBinary for malformed or foreign input.
var ErrBadFormat = errors.New("graph: bad binary format")

// WriteBinary writes a compact little-endian binary encoding of g:
//
//	magic u32 | version u16 | numNodes u32 | numEdges u32
//	numNodes × (id i64 | weight f64)
//	numEdges × (u i64 | v i64 | weight f64)
//
// Ordering is deterministic (ascending IDs / edge pairs).
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	// One fixed buffer, filled field by field: binary.Write would reflect on
	// and allocate for every value, three times per edge.
	var buf [24]byte
	le := binary.LittleEndian
	le.PutUint32(buf[0:], binaryMagic)
	le.PutUint16(buf[4:], binaryVersion)
	le.PutUint32(buf[6:], uint32(g.NumNodes()))
	le.PutUint32(buf[10:], uint32(g.NumEdges()))
	if _, err := bw.Write(buf[:14]); err != nil {
		return fmt.Errorf("write graph header: %w", err)
	}
	for _, id := range g.sortedNodes() {
		le.PutUint64(buf[0:], uint64(id))
		le.PutUint64(buf[8:], math.Float64bits(g.nodes[id].weight))
		if _, err := bw.Write(buf[:16]); err != nil {
			return fmt.Errorf("write node: %w", err)
		}
	}
	// Edges stream straight off the rows; no edge list is materialised on
	// the fingerprint and journal paths. A bufio.Writer's error is sticky,
	// so the first failure is the one every later Write reports too.
	var werr error
	g.eachEdge(func(u, v NodeID, w float64) {
		le.PutUint64(buf[0:], uint64(u))
		le.PutUint64(buf[8:], uint64(v))
		le.PutUint64(buf[16:], math.Float64bits(w))
		_, werr = bw.Write(buf[:24])
	})
	if werr != nil {
		return fmt.Errorf("write edge: %w", werr)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("flush graph: %w", err)
	}
	return nil
}

// ReadBinary decodes a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	// One fixed buffer read field by field, the mirror of WriteBinary:
	// binary.Read would reflect on and allocate for every value.
	var buf [24]byte
	le := binary.LittleEndian
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, fmt.Errorf("read graph header: %w", err)
	}
	if magic := le.Uint32(buf[:]); magic != binaryMagic {
		return nil, fmt.Errorf("%w: magic %#x", ErrBadFormat, magic)
	}
	if _, err := io.ReadFull(br, buf[:2]); err != nil {
		return nil, fmt.Errorf("read graph header: %w", err)
	}
	if version := le.Uint16(buf[:]); version != binaryVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadFormat, version)
	}
	if _, err := io.ReadFull(br, buf[:8]); err != nil {
		return nil, fmt.Errorf("read graph header: %w", err)
	}
	numNodes, numEdges := le.Uint32(buf[0:]), le.Uint32(buf[4:])
	// The counts are attacker-controlled until the body checks out, so cap
	// the pre-allocation hints; both containers still grow to the real size
	// on demand.
	g := New(int(min(numNodes, 1<<20)))
	for i := uint32(0); i < numNodes; i++ {
		if _, err := io.ReadFull(br, buf[:16]); err != nil {
			return nil, fmt.Errorf("read node %d: %w", i, err)
		}
		id, weight := NodeID(int64(le.Uint64(buf[0:]))), math.Float64frombits(le.Uint64(buf[8:]))
		if err := g.AddNode(id, weight); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
	}
	es := make([]Edge, 0, min(numEdges, 1<<16))
	for i := uint32(0); i < numEdges; i++ {
		if _, err := io.ReadFull(br, buf[:24]); err != nil {
			return nil, fmt.Errorf("read edge %d: %w", i, err)
		}
		es = append(es, Edge{
			U:      NodeID(int64(le.Uint64(buf[0:]))),
			V:      NodeID(int64(le.Uint64(buf[8:]))),
			Weight: math.Float64frombits(le.Uint64(buf[16:])),
		})
	}
	if err := g.addEdgesSorted(es); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	return g, nil
}
