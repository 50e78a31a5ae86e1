package serve

import "copmecs/internal/mec"

// encodeAccepted renders one accepted request as a bare recAccepted journal
// payload — what binaries before round records journaled per request, and
// what recovery still replays as a round of one.
func encodeAccepted(req *SolveRequest, params mec.Params) ([]byte, error) {
	return newAcceptedRecord(req.Graph, params, req.UserOverrides), nil
}

// encodeMutate renders one accepted mutate as a bare recMutate journal
// payload — what binaries before round records journaled per mutate, and
// what recovery still replays as a round of one: the member appendRound
// writes for it, without the round's header (type, member count), the
// member's length prefix or its multiplicity.
func encodeMutate(req *MutateRequest, params mec.Params) ([]byte, error) {
	rec, err := appendRound(nil, []*solveTask{{mutate: req, params: params, mult: 1}})
	if err != nil {
		return nil, err
	}
	return rec[1+4+4+4:], nil
}
