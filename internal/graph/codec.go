package graph

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// jsonGraph is the wire form used by MarshalJSON/UnmarshalJSON.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	ID     NodeID  `json:"id"`
	Weight float64 `json:"weight"`
}

type jsonEdge struct {
	U      NodeID  `json:"u"`
	V      NodeID  `json:"v"`
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
		Edges: make([]jsonEdge, 0, g.NumEdges()),
	}
	for _, id := range g.Nodes() {
		w, err := g.NodeWeight(id)
		if err != nil {
			return nil, err
		}
		jg.Nodes = append(jg.Nodes, jsonNode{ID: id, Weight: w})
	}
	for _, e := range g.Edges() {
		jg.Edges = append(jg.Edges, jsonEdge{U: e.U, V: e.V, Weight: e.Weight})
	}
	return json.Marshal(jg)
}

// UnmarshalJSON decodes the form produced by MarshalJSON, replacing the
// receiver's contents.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("decode graph json: %w", err)
	}
	fresh := New(len(jg.Nodes))
	for _, n := range jg.Nodes {
		if err := fresh.AddNode(n.ID, n.Weight); err != nil {
			return fmt.Errorf("decode graph json: %w", err)
		}
	}
	for _, e := range jg.Edges {
		if err := fresh.AddEdge(e.U, e.V, e.Weight); err != nil {
			return fmt.Errorf("decode graph json: %w", err)
		}
	}
	// Adopt fresh's contents field by field: a struct assignment would
	// copy the nodeList latch, which must not be moved once published.
	g.nodes = fresh.nodes
	g.edgeCount = fresh.edgeCount
	g.totalEdgeWeight = fresh.totalEdgeWeight
	g.nodeList.Store(fresh.nodeList.Load())
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
	for _, e := range g.Edges() {
		le.PutUint64(buf[0:], uint64(e.U))
		le.PutUint64(buf[8:], uint64(e.V))
		le.PutUint64(buf[16:], math.Float64bits(e.Weight))
		if _, err := bw.Write(buf[:24]); err != nil {
			return fmt.Errorf("write edge: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("flush graph: %w", err)
	}
	return nil
}

// ReadBinary decodes a graph written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var (
		magic    uint32
		version  uint16
		numNodes uint32
		numEdges uint32
	)
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("read graph header: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("%w: magic %#x", ErrBadFormat, magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("read graph header: %w", err)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadFormat, version)
	}
	if err := binary.Read(br, binary.LittleEndian, &numNodes); err != nil {
		return nil, fmt.Errorf("read graph header: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &numEdges); err != nil {
		return nil, fmt.Errorf("read graph header: %w", err)
	}
	// The count is attacker-controlled until the body checks out, so cap the
	// pre-allocation hint; the map still grows to the real size on demand.
	g := New(int(min(numNodes, 1<<20)))
	for i := uint32(0); i < numNodes; i++ {
		var id int64
		var bits uint64
		if err := binary.Read(br, binary.LittleEndian, &id); err != nil {
			return nil, fmt.Errorf("read node %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
			return nil, fmt.Errorf("read node %d: %w", i, err)
		}
		if err := g.AddNode(NodeID(id), math.Float64frombits(bits)); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
	}
	for i := uint32(0); i < numEdges; i++ {
		var u, v int64
		var bits uint64
		if err := binary.Read(br, binary.LittleEndian, &u); err != nil {
			return nil, fmt.Errorf("read edge %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
			return nil, fmt.Errorf("read edge %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
			return nil, fmt.Errorf("read edge %d: %w", i, err)
		}
		if err := g.AddEdge(NodeID(u), NodeID(v), math.Float64frombits(bits)); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
	}
	return g, nil
}
