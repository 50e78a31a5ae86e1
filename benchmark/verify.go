package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"

	"copmecs/internal/core"
	"copmecs/internal/graph"
	"copmecs/internal/mec"
	"copmecs/internal/serve"
)

// decision is what the correctness gate compares field for field between the
// system under test and the offline solver: the graph's fingerprint, the
// offloaded set, the work split, the cut weight and the seven cost terms.
type decision struct {
	fingerprint string
	remote      []graph.NodeID
	local, away float64
	cut         float64
	cost        [7]float64
}

// encode renders d canonically; floats go in bit for bit, so two decisions
// are equal exactly when their encodings are.
func (d decision) encode() []byte {
	var b bytes.Buffer
	b.WriteString(d.fingerprint)
	put := func(v uint64) {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], v)
		b.Write(w[:])
	}
	put(uint64(len(d.remote)))
	for _, id := range d.remote {
		put(uint64(id))
	}
	for _, f := range append([]float64{d.local, d.away, d.cut}, d.cost[:]...) {
		put(math.Float64bits(f))
	}
	return b.Bytes()
}

func costArray(c mec.UserCost) [7]float64 {
	return [7]float64{c.LocalTime, c.RemoteTime, c.WaitTime, c.TransmissionTime,
		c.LocalEnergy, c.TransmissionEnergy, c.ServerShare}
}

// solutionDecision extracts user u's decision from a solution, the way
// serve derives the one it caches and sends.
func solutionDecision(sol *core.Solution, u int) (decision, error) {
	pl := sol.Placements[u]
	fp, err := pl.Graph.Fingerprint()
	if err != nil {
		return decision{}, err
	}
	st := pl.State()
	d := decision{
		fingerprint: fp, local: st.LocalWork, away: st.RemoteWork, cut: st.CutWeight,
		cost: costArray(sol.Eval.PerUser[u]),
	}
	for id, in := range pl.Remote {
		if in {
			d.remote = append(d.remote, id)
		}
	}
	sort.Slice(d.remote, func(a, b int) bool { return d.remote[a] < d.remote[b] })
	return d, nil
}

// offlineDecision is the oracle: a one-user cold core.Solve of g.
func offlineDecision(ctx context.Context, g *graph.Graph) (decision, error) {
	sol, err := core.Solve(ctx, []core.UserInput{{Graph: g}}, core.Options{})
	if err != nil {
		return decision{}, err
	}
	return solutionDecision(sol, 0)
}

// responseDecision is the decision a reply carries. fingerprint is the
// reply's top-level graph handle (a mutate reply shadows the embedded one).
func responseDecision(fingerprint string, r *serve.SolveResponse) decision {
	c := r.Cost
	return decision{
		fingerprint: fingerprint, remote: r.Remote,
		local: r.LocalWork, away: r.RemoteWork, cut: r.CutWeight,
		cost: [7]float64{c.LocalTime, c.RemoteTime, c.WaitTime, c.TransmissionTime,
			c.LocalEnergy, c.TransmissionEnergy, c.ServerShare},
	}
}

// gate accumulates the verified decisions of one run into decision_digest
// and counts mismatches.
type gate struct {
	h          hash.Hash
	checked    int
	mismatches int
	firstDiff  string
}

func newGate() *gate { return &gate{h: sha256.New()} }

// match compares a decision of the system under test with the oracle's.
func (g *gate) match(what string, got, want decision) {
	g.checked++
	ge, we := got.encode(), want.encode()
	g.h.Write(we)
	if !bytes.Equal(ge, we) {
		g.mismatches++
		if g.firstDiff == "" {
			g.firstDiff = fmt.Sprintf("%s: got %+v want %+v", what, got, want)
		}
	}
}

func (g *gate) digest() string { return hex.EncodeToString(g.h.Sum(nil)) }

// sound is the cheap check made on every measured operation: the work split
// adds up to the graph's total node weight and the offloaded set is an
// ascending list of the graph's nodes. Generated graphs number their nodes
// 0..nodes-1.
func sound(remote []graph.NodeID, local, away, totalWeight float64, nodes int) bool {
	if math.Abs(local+away-totalWeight) > 1e-9*math.Max(1, totalWeight) {
		return false
	}
	prev := graph.NodeID(-1)
	for _, id := range remote {
		if id <= prev || int(id) >= nodes {
			return false
		}
		prev = id
	}
	return true
}
