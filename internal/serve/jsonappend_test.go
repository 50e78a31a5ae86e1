package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"copmecs/internal/graph"
	"copmecs/internal/mec"
)

// idBytes packs ids as the little-endian int64s FuzzRenderHitMatchesStdlib
// reads its remote list from.
func idBytes(ids ...int64) []byte {
	var b []byte
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	return b
}

// FuzzRenderHitMatchesStdlib holds renderHit to the encoding it replaced:
// json.Marshal of the cached-hit SolveResponse plus a newline, in a buffer
// of exactly that length, or json.Marshal's error wherever that fails (a
// NaN or an infinity anywhere).
func FuzzRenderHitMatchesStdlib(f *testing.F) {
	fp := strings.Repeat("ab", graph.FingerprintLen/2)
	negZero := math.Copysign(0, -1)
	seq := make([]int64, 2000)
	for i := range seq {
		seq[i] = int64(3 * i)
	}
	for _, s := range []struct {
		graph, engine string
		ids           []byte
		nilRemote     bool
		fl            [11]float64
		users, active int64
	}{
		{fp, "spectral", idBytes(2, 5, 9), false, [11]float64{10.5, 99, 7.25, 0.1, 1.5, 0.25, 3, 12.5, 1.0 / 3, 0.25, 123.456}, 3, 2},
		{fp, "spectral", nil, true, [11]float64{0, negZero, 0, negZero}, 1, 0},
		{fp, "kl", nil, false, [11]float64{1e-7, 1e21, 5e-324, 1e-6, 9.999999999999999e20, -1e-7, 1e20, -1e21, 2.2250738585072014e-308, math.MaxFloat64, -math.SmallestNonzeroFloat64}, 0, 0},
		{"", `<&> "q" \ ` + "\n\t\x01\x7f  é\xff", idBytes(math.MinInt64, -1, 0, 1, math.MaxInt64), false, [11]float64{1e-9, 1e-10, 1e300, 123456789012345678, 0.000001}, -1, math.MaxInt64},
		{fp, "spectral", idBytes(seq...), false, [11]float64{31000.5, 68000.25, 412.75, 0.01, 0.02, 0.003, 0.04, 0.5, 0.06, 0.7, 8}, 64, 12},
		{fp, "spectral", idBytes(1), false, [11]float64{math.NaN()}, 1, 1},
		{fp, "spectral", idBytes(1), false, [11]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, math.Inf(1)}, 1, 1},
		{fp, "spectral", nil, true, [11]float64{1, 2, 3, 4, 5, math.Inf(-1)}, 1, 1},
	} {
		fl := s.fl
		f.Add(s.graph, s.engine, s.ids, s.nilRemote, fl[0], fl[1], fl[2], fl[3], fl[4], fl[5], fl[6], fl[7], fl[8], fl[9], fl[10], s.users, s.active)
	}
	f.Fuzz(func(t *testing.T, graphFP, engine string, ids []byte, nilRemote bool,
		lw, rw, cw, lt, rt, wt, tt, le, te, ss, obj float64, users, active int64) {
		dec := &Decision{
			Graph: graphFP, LocalWork: lw, RemoteWork: rw, CutWeight: cw,
			Cost: mec.UserCost{LocalTime: lt, RemoteTime: rt, WaitTime: wt, TransmissionTime: tt,
				LocalEnergy: le, TransmissionEnergy: te, ServerShare: ss},
			Objective: obj, BatchUsers: int(users), ActiveUsers: int(active), Engine: engine,
		}
		if !nilRemote {
			dec.Remote = make([]graph.NodeID, 0, len(ids)/8)
			for ; len(ids) >= 8; ids = ids[8:] {
				dec.Remote = append(dec.Remote, graph.NodeID(int64(binary.LittleEndian.Uint64(ids))))
			}
		}
		got, err := renderHit(dec)
		want, wantErr := json.Marshal(solveResponseFor(dec, true, false))
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("renderHit error %v, json.Marshal's %v", err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("renderHit: %v; json.Marshal encodes it", err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("renderHit\n got %s\nwant %s", got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("renderHit allocated %d bytes for a %d-byte body", cap(got), len(got))
		}
	})
}

// appendRoundReference is the reference appendRound is held to: the same
// record, a mutate member's delta encoded by json.Marshal.
func appendRoundReference(buf []byte, round []*solveTask) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(append(buf, recRound), uint32(len(round)))
	for _, t := range round {
		at := len(buf)
		buf = binary.LittleEndian.AppendUint32(append(buf, 0, 0, 0, 0), uint32(t.mult))
		if t.mutate == nil {
			buf = append(buf, t.rec...)
		} else if body, err := json.Marshal(t.mutate.Delta); err != nil {
			return buf, fmt.Errorf("serve: encode mutate: %w", err)
		} else {
			blk := floatBlock(t.params, t.mutate.UserOverrides)
			buf = binary.LittleEndian.AppendUint32(append(append(buf, recMutate), blk[:]...), uint32(len(t.mutate.Base)))
			buf = append(append(buf, t.mutate.Base...), body...)
		}
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	return buf, nil
}

// randomDelta draws a delta with every op kind, each list nil, empty or
// holding up to four entries, ids of any sign and size and weights from the
// float edge cases of the JSON number format.
func randomDelta(rng *rand.Rand) *graph.Delta {
	weights := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e21, 9.999999999999999e20, 5e-324, -2.5, 77, 1.0 / 3, 1e-300}
	weight := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.Float64() * 100
		}
		return weights[rng.Intn(len(weights))]
	}
	id := func() graph.NodeID {
		switch rng.Intn(4) {
		case 0:
			return graph.NodeID(rng.Int63() - rng.Int63())
		case 1:
			return graph.NodeID(-rng.Intn(100))
		}
		return graph.NodeID(rng.Intn(5000))
	}
	size := func() int { // -1 nil, 0 empty, else that many
		return rng.Intn(6) - 1
	}
	d := &graph.Delta{}
	if n := size(); n >= 0 {
		d.RemoveEdges = make([]graph.EdgePair, n)
		for i := range d.RemoveEdges {
			d.RemoveEdges[i] = graph.EdgePair{U: id(), V: id()}
		}
	}
	if n := size(); n >= 0 {
		d.RemoveNodes = make([]graph.NodeID, n)
		for i := range d.RemoveNodes {
			d.RemoveNodes[i] = id()
		}
	}
	for _, list := range []*[]graph.NodeDelta{&d.AddNodes, &d.SetNodeWeights} {
		if n := size(); n >= 0 {
			*list = make([]graph.NodeDelta, n)
			for i := range *list {
				(*list)[i] = graph.NodeDelta{ID: id(), Weight: weight()}
			}
		}
	}
	if n := size(); n >= 0 {
		d.SetEdges = make([]graph.EdgeDelta, n)
		for i := range d.SetEdges {
			d.SetEdges[i] = graph.EdgeDelta{U: id(), V: id(), Weight: weight()}
		}
	}
	return d
}

// TestAppendRoundMatchesMarshaledDelta holds appendRound's bytes to
// appendRoundReference's for rounds of random mutates (beside an accepted
// solve), so the journal's bytes do not change with the appender; a
// non-finite weight fails both with the same error.
func TestAppendRoundMatchesMarshaledDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	accepted := oracleRecord(chainGraph(t, 5), mec.Defaults(), UserOverrides{Bandwidth: 2})
	base := strings.Repeat("0f", graph.FingerprintLen/2)
	for i := 0; i < 500; i++ {
		round := []*solveTask{{rec: accepted, mult: 2}}
		for k := 0; k <= rng.Intn(3); k++ {
			req := &MutateRequest{Base: base, Delta: randomDelta(rng), UserOverrides: UserOverrides{FixedLocalWork: float64(k)}}
			round = append(round, &solveTask{mutate: req, params: mec.Defaults(), mult: 1 + k})
		}
		if i%2 == 1 {
			round = round[1:]
		}
		got, err := appendRound([]byte("prefix"), round)
		want, wantErr := appendRoundReference([]byte("prefix"), round)
		if err != nil || wantErr != nil {
			t.Fatalf("round %d: append error %v, reference error %v", i, err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: appendRound\n got %q\nwant %q", i, got, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, d := range []*graph.Delta{
			{AddNodes: []graph.NodeDelta{{ID: 1, Weight: bad}}},
			{RemoveNodes: []graph.NodeID{3}, SetNodeWeights: []graph.NodeDelta{{ID: 1, Weight: 2}, {ID: 2, Weight: bad}}},
			{SetEdges: []graph.EdgeDelta{{U: 1, V: 2, Weight: bad}}},
		} {
			round := []*solveTask{{mutate: &MutateRequest{Base: base, Delta: d}, params: mec.Defaults(), mult: 1}}
			_, err := appendRound(nil, round)
			_, wantErr := appendRoundReference(nil, round)
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("weight %v: append error %v, reference error %v", bad, err, wantErr)
			}
		}
	}
}

// BenchmarkRenderHitSpeedup times the cached-hit body of a decision with
// 2,000 remote ids (a Table I n = 2000 user's scale): renderHit's appender
// against the json.Marshal encoding it replaced, interleaved, sides
// alternating which runs first. speedup_x is marshal/append;
// scripts/perf_gate.sh floors it.
func BenchmarkRenderHitSpeedup(b *testing.B) {
	dec := &Decision{
		Graph: strings.Repeat("5e", graph.FingerprintLen/2), LocalWork: 31044.25, RemoteWork: 1.0226351e6, CutWeight: 412.5,
		Cost: mec.UserCost{LocalTime: 0.031, RemoteTime: 0.2045270, WaitTime: 0.0012, TransmissionTime: 0.0825,
			LocalEnergy: 1.1, TransmissionEnergy: 0.0412, ServerShare: 5000},
		Objective: 1.4556, BatchUsers: 1, ActiveUsers: 1, Engine: "spectral",
	}
	for i := 0; i < 2000; i++ {
		dec.Remote = append(dec.Remote, graph.NodeID(i))
	}
	var appended, marshaled time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got, want []byte
		var err error
		for side := 0; side < 2; side++ {
			start := time.Now()
			if (i+side)%2 == 0 {
				got, err = renderHit(dec)
				appended += time.Since(start)
			} else {
				if want, err = json.Marshal(solveResponseFor(dec, true, false)); err == nil {
					want = append(want, '\n')
				}
				marshaled += time.Since(start)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if !bytes.Equal(got, want) {
			b.Fatal("renderHit differs from json.Marshal")
		}
	}
	b.ReportMetric(marshaled.Seconds()/appended.Seconds(), "speedup_x")
	b.ReportMetric(float64(appended.Nanoseconds())/float64(b.N), "append_ns")
	b.ReportMetric(float64(marshaled.Nanoseconds())/float64(b.N), "marshal_ns")
}
