package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"copmecs/internal/core"
	"copmecs/internal/graph"
	"copmecs/internal/mec"
)

// mutateResponseFor is the reference mutateReply's bytes are held to: the
// wire struct of one mutate outcome, for encoding/json to encode.
func mutateResponseFor(fp, base string, dec *Decision, ds core.DeltaStats, cached, deduped bool) MutateResponse {
	return MutateResponse{
		Graph:             fp,
		Base:              base,
		SolveResponse:     solveResponseFor(dec, cached, deduped),
		Incremental:       ds.Incremental,
		ColdFallback:      ds.ColdFallback,
		FallbackReason:    ds.FallbackReason,
		CleanComponents:   ds.CleanComponents,
		DirtyComponents:   ds.DirtyComponents,
		TouchedEdges:      ds.TouchedEdges,
		LanczosItersSaved: ds.LanczosItersSaved,
	}
}

// TestRepliesAreTheWireStructsEncoded holds every reply rewritten from a
// decision's rendered hit — solve solved and deduped, mutate hit, solved,
// delta, cold fallback and deduped — byte-equal to json.NewEncoder of the
// SolveResponse or MutateResponse it stands for, including a decision
// restored from a snapshot written before decisions carried their graph.
func TestRepliesAreTheWireStructsEncoded(t *testing.T) {
	fp, base := strings.Repeat("ab", graph.FingerprintLen/2), strings.Repeat("0f", graph.FingerprintLen/2)
	cost := mec.UserCost{LocalTime: 0.1, RemoteTime: 1e-7, WaitTime: 3, TransmissionTime: 1e21,
		LocalEnergy: 12.5, TransmissionEnergy: 1.0 / 3, ServerShare: 0.25}
	decisions := map[string]*Decision{
		"solved": {Graph: fp, Remote: []graph.NodeID{2, 5, 9}, LocalWork: 10.5, RemoteWork: 99, CutWeight: 7.25,
			Cost: cost, Objective: 123.456, BatchUsers: 3, ActiveUsers: 2, Engine: "spectral"},
		"all local":                {Graph: fp, Remote: []graph.NodeID{}, LocalWork: 4, Engine: "spectral"},
		"restored without graph":   {Remote: []graph.NodeID{1}, Cost: cost, BatchUsers: 1, ActiveUsers: 1, Engine: "kl"},
		"restored with nil remote": {Graph: fp, BatchUsers: 1, Engine: "spectral"},
	}
	stats := map[string]core.DeltaStats{
		"not run here": {},
		"delta":        {Incremental: true, CleanComponents: 9, DirtyComponents: 1, TouchedEdges: 95, LanczosItersSaved: 4321},
		"cold fallback": {ColdFallback: true,
			FallbackReason: `touched-edge fraction 0.500 above threshold 0.300 <&> "quoted"`},
	}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for dname, dec := range decisions {
		hit, err := renderHit(dec)
		if err != nil {
			t.Fatal(err)
		}
		if want := encode(solveResponseFor(dec, true, false)); !bytes.Equal(hit, want) {
			t.Errorf("%s: hit\n got %s\nwant %s", dname, hit, want)
		}
		for _, deduped := range []bool{false, true} {
			got := solveReply(hit, deduped)
			if want := encode(solveResponseFor(dec, false, deduped)); !bytes.Equal(bytes.Join(got[:], nil), want) {
				t.Errorf("%s: solve deduped=%v\n got %s\nwant %s", dname, deduped, got, want)
			}
			for sname, ds := range stats {
				for _, cached := range []bool{false, true} {
					got := mutateReply(hit, fp, base, ds, cached, deduped)
					want := encode(mutateResponseFor(fp, base, dec, ds, cached, deduped))
					if !bytes.Equal(bytes.Join(got[:], nil), want) {
						t.Errorf("%s, %s: mutate cached=%v deduped=%v\n got %s\nwant %s", dname, sname, cached, deduped, got, want)
					}
				}
			}
		}
	}
}
