package serve

import (
	"testing"

	"copmecs/internal/mec"
)

// encodeAccepted renders one accepted request as the recAccepted payload a
// round record carries as its member.
func encodeAccepted(req *SolveRequest, params mec.Params) ([]byte, error) {
	return newAcceptedRecord(req.Graph, params, req.UserOverrides), nil
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
