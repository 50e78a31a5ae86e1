package graph

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
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
// receiver's contents: the document's canonical record (AppendRecordJSON,
// which defines the accepted language and every decode error), read back.
func (g *Graph) UnmarshalJSON(data []byte) error {
	rec, err := AppendRecordJSON(nil, data)
	if err != nil {
		return err
	}
	fresh, err := ReadBinary(bytes.NewReader(rec))
	if err != nil {
		return fmt.Errorf("decode graph json: %w", err)
	}
	// Adopt fresh's contents field by field: a struct assignment would
	// copy the atomics, which must not be moved once published. g takes
	// fresh's token with its records, slot ids and map, so it owns them as
	// fresh did.
	g.recs, g.ids, g.slot, g.slotOwner = fresh.recs, fresh.ids, fresh.slot, fresh.slotOwner
	g.edgeCount = fresh.edgeCount
	g.totalEdgeWeight = fresh.totalEdgeWeight
	g.nodeList.Store(fresh.nodeList.Load())
	g.token.Store(fresh.token.Load())
	return nil
}

// byEndpoints orders edges by (smaller endpoint, larger endpoint): the order
// Edges and MarshalJSON emit.
func byEndpoints(a, b Edge) int {
	return cmp.Or(
		cmp.Compare(min(a.U, a.V), min(b.U, b.V)),
		cmp.Compare(max(a.U, a.V), max(b.U, b.V)),
	)
}

// addEdgesSorted adds es to a graph that has its nodes and no edges yet, as
// AddEdge on each would — the same checks and errors, parallel edges
// coalesced by the same additions — but with every row reserved at its final
// length. es is first put in byEndpoints order (a list that arrives so, as
// the wire forms do, skips the sort), which makes a decode O(m log m) whatever
// order the input lists its edges in — far-to-near around a hub would
// otherwise be O(d²) — and makes every row insert an append: a node's smaller
// neighbors all precede its larger ones. The sort is stable, so parallel
// edges coalesce in input order and their sums are the ones in-order
// insertion gives. One pass checks the edges and counts degrees, the rows are
// carved out of two slabs, a second pass fills them.
//
// Every row's capacity is its length (three-index slices): the rows of one
// decoded graph share the two slabs, and an insert into any of them — on the
// graph itself or, after the copy, on a clone — reallocates that row rather
// than write into its neighbor's.
func (g *Graph) addEdgesSorted(es []Edge) error {
	if !slices.IsSortedFunc(es, byEndpoints) {
		slices.SortStableFunc(es, byEndpoints)
	}
	// Nodes are addressed by their position in the ascending id list (which
	// the encoders need next anyway) through indexIn: arithmetic when the ids
	// are contiguous, a binary search otherwise, no map probe per endpoint.
	ids := g.sortedNodes()
	// fresh reports that es[k] starts a new edge rather than adding to the one
	// before it: parallel edges are adjacent in byEndpoints order.
	fresh := func(k int) bool { return k == 0 || byEndpoints(es[k-1], es[k]) != 0 }

	deg := make([]int32, len(ids))
	distinct := 0
	for k, e := range es {
		iu, iv := indexIn(ids, e.U), indexIn(ids, e.V)
		if err := edgeError(e, iu, iv); err != nil {
			return err
		}
		if fresh(k) {
			deg[iu]++
			deg[iv]++
			distinct++
		}
	}

	recs := make([]*nodeRec, len(ids))
	nbr, w := make([]NodeID, 2*distinct), make([]float64, 2*distinct)
	off := 0
	for i, id := range ids {
		rec, end := g.rec(id), off+int(deg[i])
		rec.nbr, rec.w = nbr[off:off:end], w[off:off:end]
		recs[i], off = rec, end
	}
	for k, e := range es {
		ru, rv := recs[indexIn(ids, e.U)], recs[indexIn(ids, e.V)]
		if fresh(k) {
			// A new edge starts at +0 and takes its weight by addition, as in
			// AddEdge: the stored bits do not depend on which call created it.
			ru.nbr, ru.w = append(ru.nbr, e.V), append(ru.w, 0)
			rv.nbr, rv.w = append(rv.nbr, e.U), append(rv.w, 0)
		}
		ru.w[len(ru.w)-1] += e.Weight
		rv.w[len(rv.w)-1] += e.Weight
		g.totalEdgeWeight += e.Weight
	}
	g.edgeCount = distinct
	return nil
}

// edgeError is the error AddEdge gives adding e, nil when it gives none; iu
// and iv are e's endpoints' positions, -1 when absent.
func edgeError(e Edge, iu, iv int32) error {
	switch {
	case e.U == e.V:
		return fmt.Errorf("add edge {%d,%d}: %w", e.U, e.V, ErrSelfLoop)
	case e.Weight < 0:
		return fmt.Errorf("add edge {%d,%d}: %w", e.U, e.V, ErrNegativeWeight)
	case iu < 0:
		return fmt.Errorf("add edge {%d,%d}: endpoint %d: %w", e.U, e.V, e.U, ErrNodeNotFound)
	case iv < 0:
		return fmt.Errorf("add edge {%d,%d}: endpoint %d: %w", e.U, e.V, e.V, ErrNodeNotFound)
	}
	return nil
}

// binaryMagic guards the compact binary format against foreign input.
const binaryMagic = 0x434f5047 // "COPG"

const binaryVersion = 1

// ErrBadFormat is returned by ReadBinary for malformed or foreign input.
var ErrBadFormat = errors.New("graph: bad binary format")

// The binary layout, defined once: WriteBinary and the fingerprints stream
// these records, and AppendBinary lays the same ones end to end.
//
//	magic u32 | version u16 | numNodes u32 | numEdges u32
//	numNodes × (id i64 | weight f64)
//	numEdges × (u i64 | v i64 | weight f64)
//
// Ordering is deterministic (ascending IDs / edge pairs).
const (
	binaryHeaderLen = 14
	binaryNodeLen   = 16
	binaryEdgeLen   = 24
)

func appendBinaryHeader(dst []byte, nodes, edges int) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, binaryMagic)
	dst = le.AppendUint16(dst, binaryVersion)
	dst = le.AppendUint32(dst, uint32(nodes))
	return le.AppendUint32(dst, uint32(edges))
}

func appendBinaryNode(dst []byte, id NodeID, weight float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(id))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(weight))
}

func appendBinaryEdge(dst []byte, u, v NodeID, weight float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(u))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(weight))
}

// AppendBinary appends g's binary encoding — the bytes WriteBinary writes —
// to dst. With room for the encoding in dst it allocates nothing.
func (g *Graph) AppendBinary(dst []byte) []byte {
	dst = appendBinaryHeader(dst, g.NumNodes(), g.NumEdges())
	for _, id := range g.sortedNodes() {
		dst = appendBinaryNode(dst, id, g.rec(id).weight)
	}
	g.eachEdge(func(u, v NodeID, w float64) { dst = appendBinaryEdge(dst, u, v, w) })
	return dst
}

// AppendBinary appends the binary encoding of the graph c is the view of —
// the bytes that graph's WriteBinary writes — to dst: the header, then every
// row's records as the fingerprint streams them (index order is NodeID
// order). c must be the view of one graph, not a fused view of several.
func (c *CSR) AppendBinary(dst []byte) []byte {
	buf := bytes.NewBuffer(dst)
	e := &binaryEmitter{w: buf}
	e.header(c.NumNodes(), c.NumEdges())
	c.emitRows(e, 0, c.NumNodes())
	_ = e.flush() // a bytes.Buffer write does not fail
	return buf.Bytes()
}

// WriteBinary writes a compact little-endian binary encoding of g (layout
// above), streamed: no whole-graph buffer is built.
func (g *Graph) WriteBinary(w io.Writer) error {
	if err := g.emitBinary(&binaryEmitter{w: w}); err != nil {
		return fmt.Errorf("write graph: %w", err)
	}
	return nil
}

// emitBinary streams g's binary encoding through e in eachEdge's order,
// without a call per edge.
func (g *Graph) emitBinary(e *binaryEmitter) error {
	e.header(g.NumNodes(), g.NumEdges())
	ids := g.sortedNodes()
	for _, id := range ids {
		e.node(id, g.rec(id).weight)
	}
	for _, u := range ids {
		rec := g.rec(u)
		for i, v := range rec.nbr {
			if u < v {
				e.edge(u, v, rec.w[i])
			}
		}
	}
	return e.flush()
}

// binaryEmitter streams binary-layout records to w through one fixed chunk,
// written out whole as it fills: the shared back end of WriteBinary,
// Graph.Fingerprint and CSR.Fingerprint, so a graph and its view encode
// through the same bytes. Each record is laid by the append functions above;
// binary.Write would reflect on and allocate for every value. The first
// write error is sticky.
type binaryEmitter struct {
	w   io.Writer
	err error
	n   int
	// buf leaves 64 bytes of 4 KiB for the fields above and the heap's
	// per-object header: the emitter escapes through w.Write, and this way it
	// is one 4 KiB allocation, not the next size class up (4.75 KiB).
	buf [4096 - 64]byte
}

// room returns the filled part of the chunk with k bytes of spare capacity,
// flushing first if they are not there.
func (e *binaryEmitter) room(k int) []byte {
	if e.n+k > len(e.buf) {
		_ = e.flush() // sticky: the final flush reports it
	}
	return e.buf[:e.n]
}

func (e *binaryEmitter) header(nodes, edges int) {
	e.n = len(appendBinaryHeader(e.room(binaryHeaderLen), nodes, edges))
}

func (e *binaryEmitter) node(id NodeID, weight float64) {
	e.n = len(appendBinaryNode(e.room(binaryNodeLen), id, weight))
}

func (e *binaryEmitter) edge(u, v NodeID, weight float64) {
	e.n = len(appendBinaryEdge(e.room(binaryEdgeLen), u, v, weight))
}

// flush writes the filled chunk out and reports the first write error.
func (e *binaryEmitter) flush() error {
	if e.n > 0 && e.err == nil {
		_, e.err = e.w.Write(e.buf[:e.n])
	}
	e.n = 0
	return e.err
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
