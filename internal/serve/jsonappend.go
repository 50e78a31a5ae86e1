package serve

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"copmecs/internal/graph"
)

// The appenders below write, without reflection, the bytes json.Marshal
// writes for the two shapes a mutate emits on its hot path: the cached-hit
// reply (renderHit) and the delta its journal record carries (appendRound).
// FuzzRenderHitMatchesStdlib and TestAppendRoundMatchesMarshaledDelta hold
// them to encoding/json byte for byte.

// appendFloat appends f as encoding/json encodes a float64: the shortest
// digits that round-trip, in 'e' form below 1e-6 and from 1e21 on (with a
// two-digit negative exponent cut to one, e-09 to e-9), in 'f' form
// otherwise. NaN and the infinities have no JSON form; they fail with the
// error json.Marshal returns.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendString appends s as a JSON string the way json.Marshal writes it.
// Printable ASCII with nothing to escape — every fingerprint and engine
// name — is copied between quotes; anything else is encoded by
// encoding/json, whose escaping (quotes, backslashes, control bytes, <, >
// and &, invalid UTF-8, U+2028 and U+2029) it therefore matches.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendIDs appends ids as a JSON array of numbers, null when nil.
func appendIDs(b []byte, ids []graph.NodeID) []byte {
	if ids == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}

// appendDelta appends d as json.Marshal encodes a graph.Delta: its members in
// field order, an empty or nil list left out (omitempty). A non-finite
// weight fails as it does there.
func appendDelta(b []byte, d *graph.Delta) ([]byte, error) {
	open := len(b)
	b = append(b, '{')
	member := func(b []byte, key string) []byte {
		if len(b) > open+1 {
			b = append(b, ',')
		}
		return append(b, key...)
	}
	if len(d.RemoveEdges) > 0 {
		b = append(member(b, `"remove_edges":`), '[')
		for i, e := range d.RemoveEdges {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"u":`...), int64(e.U), 10)
			b = append(strconv.AppendInt(append(b, `,"v":`...), int64(e.V), 10), '}')
		}
		b = append(b, ']')
	}
	if len(d.RemoveNodes) > 0 {
		b = appendIDs(member(b, `"remove_nodes":`), d.RemoveNodes)
	}
	var err error
	for _, m := range [...]struct {
		key   string
		nodes []graph.NodeDelta
	}{{`"add_nodes":`, d.AddNodes}, {`"set_node_weights":`, d.SetNodeWeights}} {
		if len(m.nodes) == 0 {
			continue
		}
		b = append(member(b, m.key), '[')
		for i, n := range m.nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"id":`...), int64(n.ID), 10)
			if b, err = appendFloat(append(b, `,"weight":`...), n.Weight); err != nil {
				return b, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(d.SetEdges) > 0 {
		b = append(member(b, `"set_edges":`), '[')
		for i, e := range d.SetEdges {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"u":`...), int64(e.U), 10)
			b = strconv.AppendInt(append(b, `,"v":`...), int64(e.V), 10)
			if b, err = appendFloat(append(b, `,"weight":`...), e.Weight); err != nil {
				return b, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}
