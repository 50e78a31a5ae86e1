package serve

import "copmecs/internal/mec"

// encodeAccepted renders one accepted request as a journal payload in one
// call, as the record tests want it; solve builds the same payload in two
// steps around its cache lookups.
func encodeAccepted(req *SolveRequest, params mec.Params) ([]byte, error) {
	return sealAccepted(newAcceptedRecord(req.Graph), params, req.UserOverrides), nil
}
