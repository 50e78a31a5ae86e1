package core

import (
	"copmecs/internal/mec"
	"copmecs/internal/numeric"
)

// greedyState carries the aggregates needed to evaluate a candidate move in
// O(1). With processor sharing at the server, Σtˢ = k·ΣR/capacity where k is
// the number of users with offloaded work and ΣR the total offloaded work,
// so the objective
//
//	E + T = Σᵤ localᵤ/devᵤ·(pᶜ+1) + Σᵤ cutᵤ·(pᵗ+1)/b + k·ΣR/cap
//
// decomposes into per-user terms plus one global server term; a move touches
// one user's local/cut terms and the global term only.
type greedyState struct {
	p mec.Params
	// Per-user aggregates.
	localWork  []float64 // includes FixedLocalWork
	remoteWork []float64
	cut        []float64
	dev        []float64
	// txCoef is the per-user transmission coefficient (pᵗᵤ+1)/bᵤ applied to
	// cut weight in the E+T objective (heterogeneous radios).
	txCoef []float64
	// Global server aggregates.
	sumRemote   float64
	activeUsers int
}

func newGreedyState(users []UserInput, parts []Part, p mec.Params) *greedyState {
	st := &greedyState{
		p:          p,
		localWork:  make([]float64, len(users)),
		remoteWork: make([]float64, len(users)),
		cut:        make([]float64, len(users)),
		dev:        make([]float64, len(users)),
	}
	st.txCoef = make([]float64, len(users))
	for i, u := range users {
		st.localWork[i] = u.FixedLocalWork
		st.dev[i] = u.DeviceCompute
		if st.dev[i] <= 0 {
			st.dev[i] = p.DeviceCompute
		}
		bw := u.Bandwidth
		if bw <= 0 {
			bw = p.Bandwidth
		}
		pt := u.PowerTransmit
		if pt <= 0 {
			pt = p.PowerTransmit
		}
		st.txCoef[i] = (pt + 1) / bw
	}
	for pi := range parts {
		part := &parts[pi]
		if part.Remote {
			st.remoteWork[part.User] += part.Work
		} else {
			st.localWork[part.User] += part.Work
		}
	}
	// Initial cut: each adjacent part pair counted once, crossing iff the
	// two parts start on different devices.
	for pi := range parts {
		part := &parts[pi]
		for _, e := range part.Adj {
			if e.Other > pi && parts[e.Other].Remote != part.Remote {
				st.cut[part.User] += e.Weight
			}
		}
	}
	for _, r := range st.remoteWork {
		if r > 0 {
			st.sumRemote += r
			st.activeUsers++
		}
	}
	return st
}

// objective returns the current E + T under the decomposition above.
func (st *greedyState) objective() float64 {
	var obj float64
	for i := range st.localWork {
		obj += st.localWork[i] / st.dev[i] * (st.p.PowerCompute + 1)
		obj += st.cut[i] * st.txCoef[i]
	}
	obj += float64(st.activeUsers) * st.sumRemote / st.p.ServerCapacity
	return obj
}

// moveDelta returns the change in E + T from moving part idx (remote → local),
// and the cut change for the owning user. parts[idx].Remote must be true.
func (st *greedyState) moveDelta(parts []Part, idx int) (objDelta, cutDelta float64) {
	part := &parts[idx]
	u := part.User

	// Cut change: each adjacent part decides whether its shared edges start
	// or stop crossing when this part lands on the device.
	for _, e := range part.Adj {
		if parts[e.Other].Remote {
			cutDelta += e.Weight // split apart: edges start crossing
		} else {
			cutDelta -= e.Weight // reunited locally: edges stop crossing
		}
	}

	// Per-user terms.
	objDelta = part.Work/st.dev[u]*(st.p.PowerCompute+1) +
		cutDelta*st.txCoef[u]

	// Global server term.
	k := st.activeUsers
	sumR := st.sumRemote - part.Work
	if st.remoteWork[u]-part.Work <= numeric.Eps {
		k--
	}
	objDelta += (float64(k)*sumR - float64(st.activeUsers)*st.sumRemote) / st.p.ServerCapacity
	return objDelta, cutDelta
}

// apply commits the move of part idx to local.
func (st *greedyState) apply(parts []Part, idx int, cutDelta float64) {
	part := &parts[idx]
	u := part.User
	part.Remote = false
	st.localWork[u] += part.Work
	st.remoteWork[u] -= part.Work
	st.cut[u] += cutDelta
	st.sumRemote -= part.Work
	if st.remoteWork[u] <= numeric.Eps {
		st.remoteWork[u] = 0
		st.activeUsers--
	}
}

// runGreedy performs Algorithm 2's scheme generation: starting from the
// per-sub-graph cut split, repeatedly move the remote part with the best
// (most negative) E+T delta to the device until no move improves the
// objective. It returns the objective of the initial scheme plus the move
// and scan-iteration counts.
func runGreedy(users []UserInput, parts []Part, opts Options) (initialObjective float64, moves, iterations int) {
	st := newGreedyState(users, parts, opts.Params)
	initialObjective = st.objective()
	if opts.DisableGreedy {
		return initialObjective, 0, 0
	}
	moves, iterations = st.descend(parts)
	return initialObjective, moves, iterations
}

// descend is the paper's loop: argmin over all remote parts, move, repeat
// while the objective decreases. O(moves × parts).
func (st *greedyState) descend(parts []Part) (moves, iterations int) {
	for {
		iterations++
		bestIdx, bestDelta, bestCut := -1, -numeric.Eps, 0.0
		for i := range parts {
			if !parts[i].Remote {
				continue
			}
			delta, cutDelta := st.moveDelta(parts, i)
			if delta < bestDelta {
				bestIdx, bestDelta, bestCut = i, delta, cutDelta
			}
		}
		if bestIdx < 0 {
			return moves, iterations
		}
		st.apply(parts, bestIdx, bestCut)
		moves++
	}
}
