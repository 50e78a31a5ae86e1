package graph

import (
	"bytes"
	"math"
	"strconv"
)

// Scanner reads the repository's JSON wire shapes straight off the bytes, one
// pass, no reflection: an object is a key → field table (Members), a member
// value a number (Float), a plain string (String), a nested table, or one of
// the two shapes this package owns (Record, Delta). internal/serve describes
// its request bodies over the same scanner.
//
// It is an accelerator, never the definition: it takes keys of lower-case
// ASCII letters and '_', JSON whitespace anywhere, numbers in JSON grammar,
// and declines everything else — an unknown, repeated, escaped or case-folded
// key, null, an empty object, a non-integer or out-of-range number, a syntax
// error — rather than guess what encoding/json would make of it. A caller
// whose scan is declined decodes the same bytes with encoding/json, which
// alone defines the accepted language and every error text; a scan that is
// accepted has produced exactly the value encoding/json would (fuzzed).
type Scanner struct {
	b []byte
	i int
}

// NewScanner returns a scanner at the start of data.
func NewScanner(data []byte) *Scanner { return &Scanner{b: data} }

// next skips JSON whitespace and returns the byte it stops on, 0 at the end.
func (s *Scanner) next() byte {
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next non-space byte.
func (s *Scanner) eat(c byte) bool {
	if s.next() != c {
		return false
	}
	s.i++
	return true
}

// Done reports that only whitespace is left: the scanned value was the whole
// document.
func (s *Scanner) Done() bool {
	s.next()
	return s.i == len(s.b)
}

// key consumes `"name":` and returns name, nil unless name is all lower-case
// ASCII letters and underscores (every key of the wire forms is).
func (s *Scanner) key() []byte {
	if !s.eat('"') {
		return nil
	}
	start := s.i
	for s.i < len(s.b) && ('a' <= s.b[s.i] && s.b[s.i] <= 'z' || s.b[s.i] == '_') {
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
func (s *Scanner) number() []byte {
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

// integer reads the next value as encoding/json reads an int field (NodeID is
// an int) and returns bit, or 0 to decline: a fraction or exponent, which
// encoding/json rejects for an int, and — conservatively — the last decimal
// digit's worth of the int range.
func (s *Scanner) integer(dst *NodeID, bit uint8) uint8 {
	s.next()
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start, v := i, 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if v > (math.MaxInt-9)/10 {
			return 0
		}
		v = v*10 + int(b[i]-'0')
	}
	if i == start || (b[start] == '0' && i > start+1) ||
		(i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E')) {
		return 0
	}
	if neg {
		v = -v
	}
	*dst, s.i = NodeID(v), i
	return bit
}

// Float reads the next value as encoding/json reads a float64 field and
// returns bit, or 0 to decline. The number is converted in the pass that
// delimits it (scanFloat); what that pass leaves undecided is number's text
// through strconv.ParseFloat, as encoding/json converts it.
func (s *Scanner) Float(dst *float64, bit uint8) uint8 {
	s.next()
	if v, n, ok := scanFloat(s.b[s.i:]); ok {
		*dst, s.i = v, s.i+n
		return bit
	}
	v, err := strconv.ParseFloat(string(s.number()), 64)
	if err != nil {
		return 0
	}
	*dst = v
	return bit
}

// String reads the next value as a string that needs no decoding — printable
// ASCII, no escape — and returns bit, or 0 to decline.
func (s *Scanner) String(dst *string, bit uint8) uint8 {
	if !s.eat('"') {
		return 0
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			*dst = string(s.b[start:s.i])
			s.i++
			return bit
		case c < ' ' || c > '~' || c == '\\':
			return 0
		}
	}
	return 0
}

// Members consumes a non-empty object. member gets each key with the scanner
// on its value, consumes the value and returns the key's bit (0 declines; so
// does a bit seen twice).
func (s *Scanner) Members(member func(key []byte) uint8) bool {
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

// array consumes an array: element consumes one element and reports whether
// it took it.
func (s *Scanner) array(element func() bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !element() {
			return false
		}
		if s.eat(']') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// maxReserve caps how many elements a list reserves on the word of bytes not
// yet scanned; a longer list grows by append from there.
const maxReserve = 1 << 16

// objects consumes an array of objects into *list: each element is built in
// *elem — reset to the zero T, filled by Members(member), which writes through
// elem — and appended. An empty array leaves an empty, non-nil list, as
// encoding/json does. The list is reserved at the count of '{' before the
// next ']': its final length when the elements are the flat objects every
// table here describes, and otherwise the scan declines anyway.
func objects[T any](s *Scanner, list *[]T, elem *T, member func(key []byte) uint8) bool {
	rest := s.b[s.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	*list = make([]T, 0, min(bytes.Count(rest, []byte{'{'}), maxReserve))
	return s.array(func() bool {
		*elem = *new(T)
		if !s.Members(member) {
			return false
		}
		*list = append(*list, *elem)
		return true
	})
}

// The element tables. A member an object leaves out is zero here and in
// encoding/json alike. Graph nodes and delta nodes share one table, and so do
// graph edges and delta edges: the struct pairs differ in name only.

func (s *Scanner) nodeMember(n *NodeDelta, key []byte) uint8 {
	switch string(key) {
	case "id":
		return s.integer(&n.ID, 1)
	case "weight":
		return s.Float(&n.Weight, 2)
	}
	return 0
}

func (s *Scanner) edgeMember(e *Edge, key []byte) uint8 {
	switch string(key) {
	case "u":
		return s.integer(&e.U, 1)
	case "v":
		return s.integer(&e.V, 2)
	case "weight":
		return s.Float(&e.Weight, 4)
	}
	return 0
}

func (s *Scanner) nodes(list *[]NodeDelta) bool {
	var n NodeDelta
	return objects(s, list, &n, func(key []byte) uint8 { return s.nodeMember(&n, key) })
}

// lists reads a graph value — the shape MarshalJSON writes, members in any
// order — into the node and edge lists encoding/json would produce.
func (s *Scanner) lists() (nodes []jsonNode, edges []Edge, ok bool) {
	var n jsonNode
	var e Edge
	ok = s.Members(func(key []byte) uint8 {
		switch string(key) {
		case "nodes":
			if objects(s, &nodes, &n, func(key []byte) uint8 { return s.nodeMember((*NodeDelta)(&n), key) }) {
				return 1
			}
		case "edges":
			if objects(s, &edges, &e, func(key []byte) uint8 { return s.edgeMember(&e, key) }) {
				return 2
			}
		}
		return 0
	})
	return nodes, edges, ok
}

// Delta reads the delta value at the scanner's position as encoding/json
// reads a Delta, and leaves the scanner just past it. False declines.
func (s *Scanner) Delta() (*Delta, bool) {
	d := new(Delta)
	ok := s.Members(func(key []byte) uint8 {
		switch string(key) {
		case "remove_edges":
			var p EdgePair
			if objects(s, &d.RemoveEdges, &p, func(key []byte) uint8 {
				switch string(key) {
				case "u":
					return s.integer(&p.U, 1)
				case "v":
					return s.integer(&p.V, 2)
				}
				return 0
			}) {
				return 1
			}
		case "remove_nodes":
			d.RemoveNodes = []NodeID{}
			if s.array(func() bool {
				var id NodeID
				if s.integer(&id, 1) == 0 {
					return false
				}
				d.RemoveNodes = append(d.RemoveNodes, id)
				return true
			}) {
				return 2
			}
		case "add_nodes":
			if s.nodes(&d.AddNodes) {
				return 4
			}
		case "set_node_weights":
			if s.nodes(&d.SetNodeWeights) {
				return 8
			}
		case "set_edges":
			var e EdgeDelta
			if objects(s, &d.SetEdges, &e, func(key []byte) uint8 { return s.edgeMember((*Edge)(&e), key) }) {
				return 16
			}
		}
		return 0
	})
	return d, ok
}
