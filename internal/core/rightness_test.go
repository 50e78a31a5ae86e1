package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"copmecs/internal/mec"
	"copmecs/internal/numeric"
)

// Algorithm 2's rightness on the part model: instances small enough to
// enumerate every placement, built directly as parts and adjacency — no
// graph, no cut engine — so what is measured is the scheme generation alone.

// greedyInstance is one Algorithm 2 input.
type greedyInstance struct {
	users  []UserInput
	parts  []Part
	params mec.Params
}

// appendSubgraph appends one cut sub-graph of k parts for user ui: random
// work, a random symmetric adjacency (Adj ascending by Other, as
// expandProtos emits it) and the pipeline's initial placement — the lightest
// part on the device, every other part offloaded; an uncut sub-graph (k = 1)
// starts offloaded.
func appendSubgraph(rng *rand.Rand, parts []Part, ui, k int) []Part {
	base := len(parts)
	lightest := base
	for i := 0; i < k; i++ {
		parts = append(parts, Part{User: ui, Work: 1 + 99*rng.Float64(), Remote: true})
		if parts[base+i].Work < parts[lightest].Work {
			lightest = base + i
		}
	}
	if k == 1 {
		parts[base].InitialRemote = true
		return parts
	}
	weight := make([]float64, k*k)
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			// A bisection always has a crossing edge; a multiway split may
			// leave two blocks unconnected.
			if k == 2 || rng.Intn(4) > 0 {
				weight[a*k+b] = 0.5 + 60*rng.Float64()
				weight[b*k+a] = weight[a*k+b]
			}
		}
	}
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			if weight[a*k+b] > 0 {
				parts[base+a].Adj = append(parts[base+a].Adj, PartEdge{Other: base + b, Weight: weight[a*k+b]})
			}
		}
	}
	parts[lightest].Remote = false
	for i := base; i < base+k; i++ {
		parts[i].InitialRemote = parts[i].Remote
	}
	return parts
}

// randomUser draws a user with heterogeneous overrides (zero = the shared
// default, as UserInput defines it).
func randomUser(rng *rand.Rand) UserInput {
	var u UserInput
	if rng.Intn(2) == 0 {
		u.DeviceCompute = 20 + 280*rng.Float64()
	}
	if rng.Intn(2) == 0 {
		u.Bandwidth = 20 + 480*rng.Float64()
	}
	if rng.Intn(2) == 0 {
		u.PowerTransmit = 1 + 11*rng.Float64()
	}
	if rng.Intn(3) == 0 {
		u.FixedLocalWork = 50 * rng.Float64()
	}
	return u
}

// randomParams spans scarce to abundant server capacity, log-uniform over
// 20 … 50,000 (a device computes at 100).
func randomParams(rng *rand.Rand) mec.Params {
	p := mec.Defaults()
	p.ServerCapacity = 20 * math.Pow(2500, rng.Float64())
	return p
}

// randomGreedyInstance draws 1–4 users sharing at most maxParts parts in
// two-way, three- and four-way and uncut sub-graphs.
func randomGreedyInstance(rng *rand.Rand, maxParts int) greedyInstance {
	in := greedyInstance{params: randomParams(rng)}
	nUsers := 1 + rng.Intn(4)
	for ui := 0; ui < nUsers; ui++ {
		in.users = append(in.users, randomUser(rng))
	}
	for ui := 0; len(in.parts) < maxParts; ui = (ui + 1) % nUsers {
		k := []int{1, 2, 2, 2, 3, 4}[rng.Intn(6)]
		if k > maxParts-len(in.parts) {
			k = maxParts - len(in.parts)
		}
		in.parts = appendSubgraph(rng, in.parts, ui, k)
		if rng.Intn(8) == 0 {
			break
		}
	}
	return in
}

// modelObjective is E + T of the placement remote (one flag per part) by
// the model alone: per-user work split and crossing weight summed from the
// parts, then mec.Evaluate — nothing of the greedy's bookkeeping.
func (in *greedyInstance) modelObjective(t *testing.T, remote func(pi int) bool) float64 {
	t.Helper()
	states := make([]mec.UserState, len(in.users))
	for ui, u := range in.users {
		states[ui] = mec.UserState{
			LocalWork:     u.FixedLocalWork,
			DeviceCompute: u.DeviceCompute,
			Bandwidth:     u.Bandwidth,
			PowerTransmit: u.PowerTransmit,
		}
	}
	for pi, p := range in.parts {
		st := &states[p.User]
		if remote(pi) {
			st.RemoteWork += p.Work
		} else {
			st.LocalWork += p.Work
		}
		for _, e := range p.Adj {
			if e.Other > pi && remote(e.Other) != remote(pi) {
				st.CutWeight += e.Weight
			}
		}
	}
	ev, err := mec.Evaluate(in.params, states)
	if err != nil {
		t.Fatal(err)
	}
	return ev.Energy + ev.Time
}

// relClose is |a−b| ≤ 1e-9 relative.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestGreedyAgainstExhaustiveOptimum holds the greedy loop to the model on
// seeded instances of at most 12 parts. On every one of an instance's 2ⁿ
// placements the O(1) move delta must be the model's own objective
// difference, so a move the loop applies — only a delta below −Eps — lowers
// E + T; each run must then end at least moves·Eps below where it started,
// within len(parts) moves, at a placement no single remote → local move
// improves, with the incrementally kept objective equal to the model's. The
// gaps to the exhaustive optimum — over every placement, and over those
// Algorithm 2 can reach, which keep the initially local parts local — are
// measured, and against the reachable ones held to the seeded run's share and
// worst ratio, which DESIGN §5 quotes.
func TestGreedyAgainstExhaustiveOptimum(t *testing.T) {
	const instances = 150
	rng := rand.New(rand.NewSource(20261005))
	// Index 0 is against every placement, 1 against the reachable ones.
	var worstGap [2]float64
	var optimal [2]int
	for inst := 0; inst < instances; inst++ {
		in := randomGreedyInstance(rng, 4+rng.Intn(9))
		n := len(in.parts)

		// Every placement: the optimum, and the move delta's exactness.
		opt := [2]float64{math.Inf(1), math.Inf(1)}
		scratch := make([]Part, n)
		for mask := 0; mask < 1<<n; mask++ {
			at := func(pi int) bool { return mask>>pi&1 == 1 }
			obj := in.modelObjective(t, at)
			opt[0] = math.Min(opt[0], obj)
			reachable := true
			copy(scratch, in.parts)
			for pi := range scratch {
				reachable = reachable && (in.parts[pi].Remote || !at(pi))
				scratch[pi].Remote = at(pi)
			}
			if reachable {
				opt[1] = math.Min(opt[1], obj)
			}
			st := newGreedyState(in.users, scratch, in.params)
			if !relClose(st.objective(), obj) {
				t.Fatalf("instance %d placement %b: greedy objective %v, model %v", inst, mask, st.objective(), obj)
			}
			for pi := 0; pi < n; pi++ {
				if !at(pi) {
					continue
				}
				delta, _ := st.moveDelta(scratch, pi)
				moved := in.modelObjective(t, func(qi int) bool { return qi != pi && at(qi) })
				if math.Abs(delta-(moved-obj)) > 1e-9*math.Max(1, obj) {
					t.Fatalf("instance %d placement %b: moving part %d changes the model by %v, moveDelta says %v", inst, mask, pi, moved-obj, delta)
				}
			}
		}

		parts := make([]Part, n)
		copy(parts, in.parts)
		st := newGreedyState(in.users, parts, in.params)
		start := st.objective()
		moves, iterations := st.descend(parts)

		flipped := 0
		for pi := range parts {
			if parts[pi].Remote && !in.parts[pi].Remote {
				t.Fatalf("instance %d: part %d moved local → remote", inst, pi)
			}
			if parts[pi].Remote != in.parts[pi].Remote {
				flipped++
			}
		}
		if moves != flipped || moves > n || iterations != moves+1 {
			t.Errorf("instance %d: %d moves over %d iterations flipped %d of %d parts", inst, moves, iterations, flipped, n)
		}
		final := in.modelObjective(t, func(pi int) bool { return parts[pi].Remote })
		if !relClose(st.objective(), final) {
			t.Errorf("instance %d: kept objective %v, model %v", inst, st.objective(), final)
		}
		if st.objective() > start-float64(moves)*numeric.Eps {
			t.Errorf("instance %d: %d moves took the objective from %v to %v", inst, moves, start, st.objective())
		}
		for pi := range parts {
			if !parts[pi].Remote {
				continue
			}
			if delta, _ := st.moveDelta(parts, pi); delta < -numeric.Eps {
				t.Errorf("instance %d: stopped with part %d still improving by %v", inst, pi, -delta)
			}
		}
		for oi := range opt {
			if final < opt[oi] && !relClose(final, opt[oi]) {
				t.Fatalf("instance %d: final %v below the exhaustive optimum %v", inst, final, opt[oi])
			}
			if relClose(final, opt[oi]) {
				optimal[oi]++
			}
			worstGap[oi] = math.Max(worstGap[oi], final/opt[oi])
		}
	}
	t.Logf("vs every placement: optimal on %d of %d instances, worst objective ×%.1f the optimum", optimal[0], instances, worstGap[0])
	t.Logf("vs reachable placements: optimal on %d of %d instances, worst objective ×%.3f the optimum", optimal[1], instances, worstGap[1])
	if optimal[1] < 118 || worstGap[1] > 2.052+5e-4 {
		t.Errorf("vs reachable placements: optimal on %d of %d, worst ×%.4f; want at least 118 and at most ×2.052", optimal[1], instances, worstGap[1])
	}
}

// TestGreedyOffloadsNoMoreAsUsersJoin is the occupancy-threshold structure
// on this model: a server shared by one more identical user is worth less to
// each, so no user already present should offload more. Identical users do
// not get identical placements — each move changes what the next identical
// move is worth, so the greedy takes some users off the server and leaves
// the rest on it — so "the same user" is read up to that symmetry: ranked by
// offloaded work, the i-th of k users offloads at least as much as the
// (i+1)-th of k+1, on every seeded instance. The by-index reading breaks
// it, and how often is logged for DESIGN §5.
func TestGreedyOffloadsNoMoreAsUsersJoin(t *testing.T) {
	const instances, maxUsers = 200, 8
	steps := instances * (maxUsers - 1)
	rng := rand.New(rand.NewSource(7))
	byIndex := 0
	for inst := 0; inst < instances; inst++ {
		user := randomUser(rng)
		var template []Part
		for sub := 1 + rng.Intn(3); sub > 0; sub-- {
			template = appendSubgraph(rng, template, 0, []int{1, 2, 2, 3, 4}[rng.Intn(5)])
		}
		params := randomParams(rng)
		var prev []Part
		var prevWork []float64
		for k := 1; k <= maxUsers; k++ {
			users := make([]UserInput, k)
			parts := make([]Part, 0, k*len(template))
			for ui := range users {
				users[ui] = user
				base := len(parts)
				for _, p := range template {
					p.User = ui
					p.Adj = slices.Clone(p.Adj)
					for i := range p.Adj {
						p.Adj[i].Other += base
					}
					parts = append(parts, p)
				}
			}
			newGreedyState(users, parts, params).descend(parts)
			work := make([]float64, k)
			for _, p := range parts {
				if p.Remote {
					work[p.User] += p.Work
				}
			}
			slices.Sort(work)
			slices.Reverse(work)
			for i, w := range prevWork {
				if work[i+1] > w {
					t.Errorf("instance %d: rank %d offloads %v among %d users, %v among %d", inst, i, w, k-1, work[i+1], k)
					break
				}
			}
			for pi := range prev {
				if parts[pi].Remote && !prev[pi].Remote {
					byIndex++
					break
				}
			}
			prev, prevWork = parts, work
		}
	}
	t.Logf("of %d steps k → k+1, %d grow a remote set by index", steps, byIndex)
}
