package core

import (
	"context"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"copmecs/internal/graph"
	"copmecs/internal/mec"
	"copmecs/internal/mincut"
	"copmecs/internal/netgen"
)

// randConnected builds a random connected graph with unit-positive weights.
func randConnected(rng *rand.Rand, n, extra int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		if err := g.AddNode(graph.NodeID(i), rng.Float64()*50+1); err != nil {
			panic(err)
		}
	}
	for i := 1; i < n; i++ {
		if err := g.AddEdge(graph.NodeID(rng.Intn(i)), graph.NodeID(i), rng.Float64()*9+1); err != nil {
			panic(err)
		}
	}
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if _, ok := g.EdgeWeight(graph.NodeID(u), graph.NodeID(v)); ok {
			continue
		}
		if err := g.AddEdge(graph.NodeID(u), graph.NodeID(v), rng.Float64()*9+1); err != nil {
			panic(err)
		}
	}
	return g
}

// TestPropertyEngineCutsBoundedBelowByGlobalMin: every engine's bisection is
// a valid cut, so its weight can never be below the exact global minimum cut
// — Stoer–Wagner on the same arrays the engine cuts. Beyond the floor it
// measures how far above it each engine lands (ROADMAP item 2(a)): the share
// of instances on which the engine finds the minimum, and for the spectral
// engine its worst cut/minimum ratio. The instances are seeded, so the shares
// are held to the ones measured; DESIGN §5 quotes them.
func TestPropertyEngineCutsBoundedBelowByGlobalMin(t *testing.T) {
	type gap struct {
		exact, total int
		worst        float64
	}
	// minExact is each engine's floor on exact instances out of 200.
	minExact := map[string]int{"spectral": 180, "maxflow": 121, "kernighan-lin": 7, "stoer-wagner": 200}
	const spectralWorst = 2.137
	gaps := make([]gap, len(engines()))
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%12) + 4
		off, tgt, w := csrOf(randConnected(rng, n, rng.Intn(2*n)))
		_, _, globalMin, err := mincut.GlobalMinCut(off, tgt, w)
		if err != nil {
			return false
		}
		for ei, eng := range engines() {
			a, b, _, err := eng.Bisect(context.Background(), off, tgt, w, make([]int32, n))
			if err != nil {
				return false
			}
			if len(a) == 0 || len(b) == 0 || len(a)+len(b) != n {
				return false
			}
			inA := make([]bool, n)
			for _, u := range a {
				inA[u] = true
			}
			var cut float64
			for u := range inA {
				for e := off[u]; e < off[u+1]; e++ {
					if v := tgt[e]; int(v) > u && inA[u] != inA[v] {
						cut += w[e]
					}
				}
			}
			if cut < globalMin-1e-9 {
				return false
			}
			g := &gaps[ei]
			g.total++
			if cut <= globalMin+1e-9 {
				g.exact++
			}
			g.worst = max(g.worst, cut/globalMin)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	for ei, eng := range engines() {
		g := gaps[ei]
		t.Logf("%s: the exact minimum cut on %d / %d instances, worst cut/minimum %.3f", eng.Name(), g.exact, g.total, g.worst)
		if want, ok := minExact[eng.Name()]; !ok || g.exact < want {
			t.Errorf("%s: exact on %d / %d instances, want at least %d", eng.Name(), g.exact, g.total, want)
		}
		if eng.Name() == "spectral" && g.worst > spectralWorst+5e-4 {
			t.Errorf("spectral: worst cut/minimum %.4f, want at most %.3f", g.worst, spectralWorst)
		}
	}
}

func TestPropertySpectralFindsPlantedBridge(t *testing.T) {
	// Two dense random clusters joined by one weak edge: the spectral
	// engine must recover the bridge as the cut.
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		half := int(nn%8) + 4
		g := graph.New(2 * half)
		for i := 0; i < 2*half; i++ {
			if err := g.AddNode(graph.NodeID(i), 1); err != nil {
				return false
			}
		}
		for c := 0; c < 2; c++ {
			base := c * half
			for i := 0; i < half; i++ {
				for j := i + 1; j < half; j++ {
					if err := g.AddEdge(graph.NodeID(base+i), graph.NodeID(base+j), 5+rng.Float64()*5); err != nil {
						return false
					}
				}
			}
		}
		bridge := 0.01 + rng.Float64()*0.1
		if err := g.AddEdge(0, graph.NodeID(half), bridge); err != nil {
			return false
		}
		a, _, err := bisectGraph(context.Background(), SpectralEngine{}, g)
		if err != nil {
			return false
		}
		side := make(map[graph.NodeID]bool, len(a))
		for _, id := range a {
			side[id] = true
		}
		return math.Abs(g.CutWeight(side)-bridge) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertySolveDeterministic(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%80) + 20
		cfg := netgen.Config{Nodes: n, Edges: n * 2, Components: 2, Seed: seed}
		g1, err := netgen.Generate(cfg)
		if err != nil {
			return true // some (n, edges) combos are invalid; not this test's concern
		}
		g2, err := netgen.Generate(cfg)
		if err != nil {
			return false
		}
		s1, err := Solve(context.Background(), []UserInput{{Graph: g1}}, Options{})
		if err != nil {
			return false
		}
		s2, err := Solve(context.Background(), []UserInput{{Graph: g2}}, Options{})
		if err != nil {
			return false
		}
		if s1.Eval.Objective != s2.Eval.Objective {
			return false
		}
		if len(s1.Placements[0].Remote) != len(s2.Placements[0].Remote) {
			return false
		}
		for id := range s1.Placements[0].Remote {
			if !s2.Placements[0].Remote[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropertyObjectiveMatchesModel(t *testing.T) {
	// For arbitrary workloads and engines the incremental objective always
	// equals the full mec.Evaluate of the produced placements.
	f := func(seed int64, nn, uu uint8, engIdx uint8) bool {
		n := int(nn%60) + 20
		users := int(uu%5) + 1
		g, err := netgen.Generate(netgen.Config{Nodes: n, Edges: n * 2, Components: 2, Seed: seed})
		if err != nil {
			return true
		}
		eng := engines()[int(engIdx)%len(engines())]
		inputs := make([]UserInput, users)
		for i := range inputs {
			inputs[i] = UserInput{Graph: g, FixedLocalWork: float64(i) * 10}
		}
		sol, err := Solve(context.Background(), inputs, Options{Engine: eng})
		if err != nil {
			return false
		}
		states := make([]mec.UserState, users)
		for i, pl := range sol.Placements {
			states[i] = pl.State()
			states[i].LocalWork += inputs[i].FixedLocalWork
		}
		ev, err := mec.Evaluate(mec.Defaults(), states)
		if err != nil {
			return false
		}
		return math.Abs(ev.Objective-sol.Eval.Objective) < 1e-9*(1+ev.Objective)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDisjointCopiesSolveAlike states the premise every per-component
// reuse in this package leans on (ROADMAP item 3(iv)): a component's pipeline
// outcome is a function of what is inside it and of nothing else. Solving
// G ⊔ shift(G) — two disjoint copies of G in one graph, the second with every
// id shifted — must give the second copy exactly the first copy's parts,
// shifted: the same blocks, the same work and cross weights bit for bit, the
// same sibling and adjacency links, the same initial placement. (The final
// placement is the greedy's, which couples every part through the server.)
func TestPropertyDisjointCopiesSolveAlike(t *testing.T) {
	f := func(seed int64, nn, flags uint8) bool {
		n := int(nn%90) + 20
		g, err := netgen.Generate(netgen.Config{Nodes: n, Edges: 2 * n, Components: 1 + int(flags%4), Seed: seed})
		if err != nil {
			return true
		}
		ids := g.Nodes()
		shift := ids[len(ids)-1] + 1 + graph.NodeID(flags>>4)
		h := graph.New(2 * n)
		for _, off := range []graph.NodeID{0, shift} {
			for _, id := range ids {
				w, _ := g.NodeWeight(id)
				if err := h.AddNode(id+off, w); err != nil {
					t.Log(err)
					return false
				}
			}
			for _, e := range g.Edges() {
				if err := h.AddEdge(e.U+off, e.V+off, e.Weight); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		for _, opts := range []Options{{}, {DisableCompression: true}, {MaxParts: 3}} {
			sol, err := Solve(context.Background(), []UserInput{{Graph: h}}, opts)
			if err != nil {
				t.Log(err)
				return false
			}
			// Components order by smallest member, so the first copy's parts
			// come first.
			half := len(sol.Parts) / 2
			if len(sol.Parts) != 2*half {
				t.Logf("%d parts for two copies", len(sol.Parts))
				return false
			}
			for i := 0; i < half; i++ {
				a, b := &sol.Parts[i], &sol.Parts[half+i]
				if math.Float64bits(a.Work) != math.Float64bits(b.Work) ||
					a.InitialRemote != b.InitialRemote || len(a.Nodes) != len(b.Nodes) || len(a.Adj) != len(b.Adj) {
					t.Logf("opts %+v part %d: %+v in the first copy, %+v in the second", opts, i, *a, *b)
					return false
				}
				for k, id := range a.Nodes {
					if b.Nodes[k] != id+shift {
						t.Logf("opts %+v part %d: node %d of the first copy is %d of the second", opts, i, id, b.Nodes[k])
						return false
					}
				}
				for k, e := range a.Adj {
					if b.Adj[k].Other != e.Other+half || math.Float64bits(b.Adj[k].Weight) != math.Float64bits(e.Weight) {
						t.Logf("opts %+v part %d: adjacency %+v vs %+v", opts, i, a.Adj, b.Adj)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyUserSymmetry is ROADMAP item 3(iii): what a user is handed may
// depend on who else is in the round, never on where in the round it stands.
// Over rounds of 2–6 users on 1–3 shared graphs, heterogeneous overrides,
// and scarce to abundant capacity: solving the users in
// another order gives each the same placement and state bit for bit, as long
// as no two are interchangeable (same graph, same overrides); and a user with
// an empty graph changes nobody's. Two interchangeable users are *not*
// promised the same placement — the greedy may take one off the server and
// so make staying worthwhile for the other; the test counts how often, and
// DESIGN §5 owns it as an accepted dependence.
func TestPropertyUserSymmetry(t *testing.T) {
	ctx := context.Background()
	// Remote holds only true entries and the work sums are of positive
	// weights (no −0, no NaN), so == is bit equality here.
	sameDecision := func(a, b *Solution, ai, bi int) bool {
		return maps.Equal(a.Placements[ai].Remote, b.Placements[bi].Remote) && a.States[ai] == b.States[bi]
	}
	rounds, twinsApart, firstApart := 0, 0, int64(0)
	f := func(seed int64, nUsers uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		graphs := make([]*graph.Graph, 1+rng.Intn(3))
		for gi := range graphs {
			n := 20 + rng.Intn(50)
			g, err := netgen.Generate(netgen.Config{Nodes: n, Edges: 2 * n, Components: 1 + rng.Intn(3), Seed: seed + int64(gi)})
			if err != nil {
				return true
			}
			graphs[gi] = g
		}
		users := make([]UserInput, 2+int(nUsers%5))
		for ui := range users {
			// FixedLocalWork shifts the objective by a constant, so two users
			// apart only in it are still interchangeable to the greedy.
			for again := true; again; {
				users[ui] = randomUser(rng)
				users[ui].Graph = graphs[rng.Intn(len(graphs))]
				again = slices.ContainsFunc(users[:ui], func(o UserInput) bool {
					o.FixedLocalWork = users[ui].FixedLocalWork
					return o == users[ui]
				})
			}
		}
		opts := Options{Params: randomParams(rng)}
		solve := func(users []UserInput) *Solution {
			sol, err := Solve(ctx, users, opts)
			if err != nil {
				t.Fatal(err)
			}
			return sol
		}
		sol := solve(users)
		rounds++

		perm := rng.Perm(len(users))
		permuted := make([]UserInput, len(users))
		for j, i := range perm {
			permuted[j] = users[i]
		}
		psol := solve(permuted)
		for j, i := range perm {
			if !sameDecision(psol, sol, j, i) {
				t.Logf("seed %d: user %d is placed differently at position %d", seed, i, j)
				return false
			}
		}

		esol := solve(append(slices.Clone(users), UserInput{Graph: graph.New(0)}))
		for i := range users {
			if !sameDecision(esol, sol, i, i) {
				t.Logf("seed %d: an empty-graph user changed user %d's placement", seed, i)
				return false
			}
		}

		tsol := solve(append(slices.Clone(users), users[0]))
		if !sameDecision(tsol, tsol, 0, len(users)) {
			if twinsApart == 0 {
				firstApart = seed
			}
			twinsApart++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
	t.Logf("two interchangeable users placed apart in %d of %d rounds (first at seed %d)", twinsApart, rounds, firstApart)
}

// TestPropertyEdgeScaleByPowerOfTwoKeepsParts pins one half of ROADMAP item
// 3(i), scale invariance: multiplying every edge weight by a power of two
// changes no float's mantissa, so every comparison the pipeline makes comes
// out alike and the parts it cuts — their nodes, their order and Algorithm
// 2's initial placement — are identical. The corpus is the serving one
// (n = 100, seeds 1–40) and Table I rows 0–2 (seeds 1–3), one user each.
// The final placement is not scale-free: the cost model sends the edge
// weights over the link, so scaled-up traffic keeps parts home — measured,
// not asserted: × 8 moves a part on 8 of 49 graphs, × 2 and × ½ on none. A
// non-power factor (× 3 cut alike here) is not exact by construction and is
// not asserted.
func TestPropertyEdgeScaleByPowerOfTwoKeepsParts(t *testing.T) {
	var corpus []netgen.Config
	for seed := int64(1); seed <= 40; seed++ {
		corpus = append(corpus, netgen.Config{Nodes: 100, Edges: 480, Components: 4, Seed: seed})
	}
	for row := 0; row < 3; row++ {
		for seed := int64(1); seed <= 3; seed++ {
			cfg, err := netgen.TableIConfig(row, seed)
			if err != nil {
				t.Fatal(err)
			}
			corpus = append(corpus, cfg)
		}
	}
	solve := func(g *graph.Graph) []Part {
		sol, err := Solve(context.Background(), []UserInput{{Graph: g}}, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return sol.Parts
	}
	moved := map[float64]int{}
	for _, cfg := range corpus {
		g, err := netgen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := solve(g)
		for _, c := range []float64{2, 0.5, 8} {
			scaled := g.Clone()
			for _, e := range g.Edges() {
				if err := scaled.SetEdge(e.U, e.V, e.Weight*c); err != nil {
					t.Fatal(err)
				}
			}
			got := solve(scaled)
			if len(got) != len(want) {
				t.Fatalf("n = %d seed %d: edge weights × %v give %d parts, want %d", cfg.Nodes, cfg.Seed, c, len(got), len(want))
			}
			for i := range got {
				if !slices.Equal(got[i].Nodes, want[i].Nodes) || got[i].InitialRemote != want[i].InitialRemote {
					t.Fatalf("n = %d seed %d: edge weights × %v change part %d", cfg.Nodes, cfg.Seed, c, i)
				}
				if got[i].Remote != want[i].Remote {
					moved[c]++
					break
				}
			}
		}
	}
	t.Logf("final placement moved on %d / %d graphs at × 2, %d at × ½, %d at × 8", moved[2], len(corpus), moved[0.5], moved[8])
}

// TestPlacementIsRoundSizeInvariantUpToMaxBatch pins what a serving cache
// hit relies on: at mec.Defaults(), k identical users of one graph place
// user 0 exactly as a lone user does for every k a round of distinct
// requests can reach (k ≤ 16, serve.DefaultMaxBatch). Algorithm 2's
// placement is a threshold in k; its flip point lies above that range on the
// serve corpus (netgen n = 100, 480 edges, 4 components, seeds 1–40) and on
// Table I row 3 (n = 2000, seeds 1–8). Only the cost lines carry k. The
// flips at 32, 64 and 128 users — reachable only by singleflight-heavy
// rounds — are logged, not asserted.
func TestPlacementIsRoundSizeInvariantUpToMaxBatch(t *testing.T) {
	type corpus struct {
		name string
		cfgs []netgen.Config
	}
	serveCorpus := corpus{name: "serve corpus n=100"}
	for seed := int64(1); seed <= 40; seed++ {
		serveCorpus.cfgs = append(serveCorpus.cfgs, netgen.Config{Nodes: 100, Edges: 480, Components: 4, Seed: seed})
	}
	tableI := corpus{name: "Table I n=2000"}
	for seed := int64(1); seed <= 8; seed++ {
		cfg, err := netgen.TableIConfig(3, seed)
		if err != nil {
			t.Fatal(err)
		}
		tableI.cfgs = append(tableI.cfgs, cfg)
	}
	const maxBatch = 16 // serve.DefaultMaxBatch
	ks := []int{2, 4, 8, maxBatch, 32, 64, 128}
	remote := func(g *graph.Graph, k int) map[graph.NodeID]bool {
		users := make([]UserInput, k)
		for i := range users {
			users[i] = UserInput{Graph: g}
		}
		sol, err := Solve(context.Background(), users, Options{Params: mec.Defaults(), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return sol.Placements[0].Remote
	}
	for _, c := range []corpus{serveCorpus, tableI} {
		flips := make([]int, len(ks))
		for _, cfg := range c.cfgs {
			g, err := netgen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			lone := remote(g, 1)
			for i, k := range ks {
				if !maps.Equal(remote(g, k), lone) {
					flips[i]++
					if k <= maxBatch {
						t.Errorf("%s seed %d: user 0's placement at k = %d differs from k = 1", c.name, cfg.Seed, k)
					}
				}
			}
		}
		t.Logf("%s: placements differing from k = 1 at k = %v: %v of %d", c.name, ks, flips, len(c.cfgs))
	}
}
