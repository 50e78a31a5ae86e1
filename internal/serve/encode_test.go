package serve

import (
	"testing"

	"copmecs/internal/graph"
	"copmecs/internal/mec"
)

// encodeAccepted renders one accepted request as the recAccepted payload a
// round record carries as its member.
func encodeAccepted(req *SolveRequest, params mec.Params) ([]byte, error) {
	return oracleRecord(req.Graph, params, req.UserOverrides), nil
}

// oracleRecord is the recAccepted payload of g solved under params and o,
// written from the map Graph — the record type, the float block, then
// g.AppendBinary — as the server wrote it before it decoded bodies straight
// into records. A live solve of g's body writes the same bytes
// (TestSolveEncodesOnce).
func oracleRecord(g *graph.Graph, params mec.Params, o UserOverrides) []byte {
	blk := floatBlock(params, o)
	return g.AppendBinary(append([]byte{recAccepted}, blk[:]...))
}

// oracleKey is a request's two cache identities computed off its map Graph:
// fp is Graph.Fingerprint, the graph-intern key, and key the cacheKey of fp
// under params and the overrides. The serving path's record-hashed
// identities are held to it.
func oracleKey(req *SolveRequest, params mec.Params) (key, fp string, err error) {
	fp, err = req.Graph.Fingerprint()
	if err != nil {
		return "", "", err
	}
	return cacheKey(fp, params, req.UserOverrides), fp, nil
}

// liveKey is the identities the serving path gives body under params: the
// decoded record's fingerprint and the cache key, and the record itself.
func liveKey(t testing.TB, body []byte, params mec.Params) (key, fp string, rec []byte) {
	t.Helper()
	req, err := decodeSolve(body, DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	rec = req.accepted(params)
	if fp, err = recordFingerprint(rec); err != nil {
		t.Fatal(err)
	}
	return cacheKey(fp, params, req.UserOverrides), fp, rec
}

// encodeMutate renders one accepted mutate as the recMutate payload a round
// record carries as its member: the member appendRound writes for it,
// without the round's header (type, member count), the member's length
// prefix or its multiplicity.
func encodeMutate(req *MutateRequest, params mec.Params) ([]byte, error) {
	rec, err := appendRound(nil, []*solveTask{{mutate: req, params: params, mult: 1}})
	if err != nil {
		return nil, err
	}
	return rec[1+4+4+4:], nil
}

// roundOf wraps one member payload (encodeAccepted's or encodeMutate's) in
// the round of one a live server journals for it.
func roundOf(t testing.TB, member []byte) []byte {
	t.Helper()
	rec, err := appendRound(nil, []*solveTask{{rec: member, mult: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// taskOf is the task a live solve of g under params, keyed key, puts on the
// batcher: its accepted record, fingerprint and params digest, no view yet.
func taskOf(t testing.TB, key string, g *graph.Graph, params mec.Params) *solveTask {
	t.Helper()
	rec := oracleRecord(g, params, UserOverrides{})
	fp, err := recordFingerprint(rec)
	if err != nil {
		t.Fatal(err)
	}
	return &solveTask{p: newPending(key), rec: rec, params: params, pkey: paramsDigest(params), fp: fp}
}
