package serve

import "copmecs/internal/mec"

// encodeAccepted renders one accepted request as a bare recAccepted journal
// payload — what binaries before round records journaled per request, and
// what recovery still replays as a round of one.
func encodeAccepted(req *SolveRequest, params mec.Params) ([]byte, error) {
	return newAcceptedRecord(req.Graph, params, req.UserOverrides), nil
}
