package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"copmecs/internal/graph"
	"copmecs/internal/lpa"
	"copmecs/internal/mec"
	"copmecs/internal/netgen"
)

// userStateFullWalk is the reference userState is held to and timed
// against: the same sums, its cut sum walking every row of the view.
func userStateFullWalk(v *graph.CSR, parts []Part, pl mec.Placement, mark []bool) mec.UserState {
	st := mec.UserState{DeviceCompute: pl.DeviceCompute, Bandwidth: pl.Bandwidth, PowerTransmit: pl.PowerTransmit}
	setMarks := func(on bool) {
		for pi := range parts {
			if parts[pi].Remote {
				for _, li := range parts[pi].idx {
					mark[li] = on
				}
			}
		}
	}
	setMarks(true)
	for u, w := range v.NodeWeights() {
		if mark[u] {
			st.RemoteWork += w
		} else {
			st.LocalWork += w
		}
	}
	for u := range int32(v.NumNodes()) {
		tgt, w := v.Adj(u)
		for e, t := range tgt {
			if t > u && mark[u] != mark[t] {
				st.CutWeight += w[e]
			}
		}
	}
	setMarks(false)
	return st
}

// referenceBoundary derives gp's boundary rows from scratch over the whole
// view: every row u with a neighbour t > u in another of gp's templates.
func referenceBoundary(gp *graphPipeline) []int32 {
	partOf := make([]int32, gp.view.NumNodes())
	for pi, pp := range gp.protos {
		for _, u := range pp.idx {
			partOf[u] = int32(pi)
		}
	}
	var out []int32
	for u := range int32(gp.view.NumNodes()) {
		tgt, _ := gp.view.Adj(u)
		for _, t := range tgt {
			if t > u && partOf[t] != partOf[u] {
				out = append(out, u)
				break
			}
		}
	}
	return out
}

// checkBoundary holds gp's merged boundary and every component's own list to
// referenceBoundary.
func checkBoundary(t *testing.T, gp *graphPipeline) {
	t.Helper()
	want := referenceBoundary(gp)
	if !slices.Equal(gp.boundary, want) {
		t.Fatalf("boundary rows %v, want %v", gp.boundary, want)
	}
	inComp := make([]int32, gp.view.NumNodes())
	for ci, comp := range gp.view.Components() {
		for _, u := range comp {
			inComp[u] = int32(ci)
		}
	}
	for ci := range gp.comps {
		var own []int32
		for _, u := range want {
			if inComp[u] == int32(ci) {
				own = append(own, u)
			}
		}
		if !slices.Equal(gp.comps[ci].boundary, own) {
			t.Fatalf("component %d: boundary rows %v, want %v", ci, gp.comps[ci].boundary, own)
		}
	}
}

// checkStates holds every user's evaluated state to its placement's State,
// bit for bit.
func checkStates(t *testing.T, sol *Solution) {
	t.Helper()
	bits := func(st mec.UserState) [6]uint64 {
		return [6]uint64{math.Float64bits(st.LocalWork), math.Float64bits(st.RemoteWork), math.Float64bits(st.CutWeight),
			math.Float64bits(st.DeviceCompute), math.Float64bits(st.Bandwidth), math.Float64bits(st.PowerTransmit)}
	}
	for u, pl := range sol.Placements {
		if got, want := sol.States[u], pl.State(); bits(got) != bits(want) {
			t.Fatalf("user %d: state %+v, Placement.State %+v", u, got, want)
		}
	}
}

// TestViewOnlyPlacements solves the same population once from Graphs and
// once from their compiled Views alone: a View-only user's Placement carries
// a nil Graph (its documented contract) and otherwise the same Remote set and
// overrides, and Solution.States holds what Placement.State of the Graph
// solve computes.
func TestViewOnlyPlacements(t *testing.T) {
	g, err := netgen.Generate(netgen.Config{Nodes: 120, Edges: 360, Components: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	params := mec.Defaults()
	params.ServerCapacity = 40
	opts := Options{Workers: 1, Params: params}
	byGraph := []UserInput{{Graph: g}, {Graph: g, Bandwidth: 3, FixedLocalWork: 20}}
	byView := []UserInput{{View: g.Compile()}, {View: g.Compile(), Bandwidth: 3, FixedLocalWork: 20}}
	want, err := Solve(context.Background(), byGraph, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(context.Background(), byView, opts)
	if err != nil {
		t.Fatal(err)
	}
	for u, pl := range got.Placements {
		wp := want.Placements[u]
		if pl.Graph != nil {
			t.Errorf("user %d: a View-only placement carries a Graph", u)
		}
		if !maps.Equal(pl.Remote, wp.Remote) || pl.Bandwidth != wp.Bandwidth || pl.DeviceCompute != wp.DeviceCompute {
			t.Errorf("user %d: placement %+v, Graph solve's %+v", u, pl, wp)
		}
		if got.States[u] != wp.State() {
			t.Errorf("user %d: state %+v, Graph solve's Placement.State %+v", u, got.States[u], wp.State())
		}
	}
	if got.Eval.Objective != want.Eval.Objective {
		t.Errorf("objective %v, Graph solve's %v", got.Eval.Objective, want.Eval.Objective)
	}
}

// shuffledIDs relabels g's nodes by a random permutation of its ids, so its
// components interleave in index order (netgen lays each out as one range).
func shuffledIDs(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	ids := g.Nodes()
	perm := rng.Perm(len(ids))
	to := make(map[graph.NodeID]graph.NodeID, len(ids))
	out := graph.New(len(ids))
	for i, id := range ids {
		to[id] = ids[perm[i]]
		w, _ := g.NodeWeight(id)
		if err := out.AddNode(to[id], w); err != nil {
			panic(err)
		}
	}
	for _, e := range g.Edges() {
		if err := out.AddEdge(to[e.U], to[e.V], e.Weight); err != nil {
			panic(err)
		}
	}
	return out
}

// TestStatesAreTheirPlacementsState holds the evaluator's states — the cut
// sum walking only boundary rows — to Placement.State bit for bit, and every
// pipelined graph's boundary rows to the full-view derivation: every engine,
// MaxParts 2 to 4, with and without compression, over graphs whose
// components are index ranges and graphs whose components interleave, for a
// population of four users on three graphs whose small server capacity makes
// the greedy move parts.
func TestStatesAreTheirPlacementsState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var gs []*graph.Graph
	for seed := int64(1); seed <= 2; seed++ {
		g, err := netgen.Generate(netgen.Config{Nodes: 120, Edges: 360, Components: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g, shuffledIDs(rng, g))
	}
	params := mec.Defaults()
	params.ServerCapacity = 40
	moves := 0
	for _, eng := range engines() {
		for _, maxParts := range []int{2, 3, 4} {
			for _, noCompress := range []bool{false, true} {
				opts := Options{Engine: eng, MaxParts: maxParts, DisableCompression: noCompress, Workers: 1, Params: params}
				t.Run(fmt.Sprintf("%s/maxparts=%d/nocompress=%t", eng.Name(), maxParts, noCompress), func(t *testing.T) {
					for k := 0; k+2 < len(gs); k++ {
						sess := NewSession(opts)
						users := []UserInput{
							{Graph: gs[k]}, {Graph: gs[k+1], FixedLocalWork: 30},
							{Graph: gs[k], Bandwidth: 3}, {Graph: gs[k+2], DeviceCompute: 200},
						}
						sol, err := sess.Solve(context.Background(), users)
						if err != nil {
							t.Fatal(err)
						}
						checkStates(t, sol)
						for _, g := range gs[k : k+3] {
							checkBoundary(t, sess.lookup(g))
						}
						moves += sol.Stats.GreedyMoves
					}
				})
			}
		}
	}
	if moves == 0 {
		t.Fatal("no solve moved a part: the greedy placements were never covered")
	}
}

// TestDeltaChainBoundaryRows walks SolveDelta lineages that add and remove
// nodes: a clean component carries its boundary rows while no index
// shifts and re-derives them when one does, and either way the head's
// boundary and states must match the full-view derivations.
func TestDeltaChainBoundaryRows(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	base, err := netgen.Generate(netgen.Config{Nodes: 300, Edges: 900, Components: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	params := mec.Defaults()
	params.ServerCapacity = 60
	for _, opts := range []Options{{}, {MaxParts: 3}, {DisableCompression: true}} {
		opts.Workers, opts.Params = 1, params
		for gi, g := range []*graph.Graph{base, shuffledIDs(rng, base)} {
			t.Run(fmt.Sprintf("%s/shuffled=%t", optionsLabel(opts), gi == 1), func(t *testing.T) {
				sess := NewSession(opts)
				users := []UserInput{{}, {FixedLocalWork: 20}}
				carried, rederived := 0, 0
				for step := 0; step < 12; step++ {
					var d *graph.Delta
					if step == 0 {
						d = &graph.Delta{}
					} else {
						d = carryDelta(rng, g, sess.lookup(g).view, step, step%3 == 0)
					}
					prev := sess.lookup(g)
					next, sol, ds, err := sess.SolveDelta(ctx, g, d, users, DeltaOptions{})
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					checkStates(t, sol)
					head := sess.lookup(next)
					checkBoundary(t, head)
					if ds.Incremental {
						_, info, err := prev.view.Patch(d)
						if err != nil {
							t.Fatal(err)
						}
						for i, oc := range info.OldCompOf {
							if oc < 0 || len(prev.comps[oc].boundary) == 0 {
								continue
							}
							cs, ps := &head.comps[i], &prev.comps[oc]
							if same := &cs.boundary[0] == &ps.boundary[0]; same == (info.NewToOld != nil) {
								t.Fatalf("step %d component %d: boundary carried = %v with indices shifted = %v", step, i, same, info.NewToOld != nil)
							} else if same {
								carried++
							} else {
								rederived++
							}
						}
					}
					g = next
				}
				if carried == 0 || rederived == 0 {
					t.Fatalf("%d boundary lists carried, %d re-derived: both paths must run", carried, rederived)
				}
			})
		}
	}
}

// TestSingleNodeComponentHasNoBoundary is the degenerate case of ROADMAP item
// 2(c): a component that label propagation compresses to one super-node
// cannot be cut, so it is one part with no boundary rows, and a graph of
// such components evaluates with a cut weight of exactly 0 and finite costs.
func TestSingleNodeComponentHasNoBoundary(t *testing.T) {
	g := graph.New(8)
	for i := 0; i < 5; i++ {
		if err := g.AddNode(graph.NodeID(i), 10+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 5; i++ { // a star
		if err := g.AddEdge(0, graph.NodeID(i), 50); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []graph.NodeID{100, 101} { // a pair
		if err := g.AddNode(id, 7); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(100, 101, 1); err != nil {
		t.Fatal(err)
	}
	for _, maxParts := range []int{2, 4} {
		// Any positive threshold below every weight lets labels cross every
		// edge, so each component ends as one label.
		sess := NewSession(Options{Workers: 1, MaxParts: maxParts, LPA: lpa.Options{WeightThreshold: 0.5}})
		sol, err := sess.Solve(context.Background(), []UserInput{{Graph: g}, {Graph: g, FixedLocalWork: 5}})
		if err != nil {
			t.Fatal(err)
		}
		gp := sess.lookup(g)
		for ci, cs := range gp.comps {
			if len(cs.blk.NodeW) != 1 || len(cs.protos) != 1 || cs.boundary != nil {
				t.Fatalf("maxparts %d component %d: %d super-nodes, %d parts, boundary %v; want 1, 1, none",
					maxParts, ci, len(cs.blk.NodeW), len(cs.protos), cs.boundary)
			}
		}
		if gp.boundary != nil {
			t.Fatalf("maxparts %d: graph boundary %v, want none", maxParts, gp.boundary)
		}
		checkStates(t, sol)
		for u, st := range sol.States {
			if math.Float64bits(st.CutWeight) != 0 {
				t.Fatalf("maxparts %d user %d: cut weight %v, want +0", maxParts, u, st.CutWeight)
			}
		}
		if o := sol.Eval.Objective; math.IsNaN(o) || math.IsInf(o, 0) {
			t.Fatalf("maxparts %d: objective %v", maxParts, o)
		}
	}
}

// BenchmarkUserStateBoundarySpeedup times the evaluator's state of one user
// down a delta chain on a Table I n = 2000 lineage (the benchmark's
// mutate_chain graphs): userState over the graph's boundary rows against
// userStateFullWalk over every row, interleaved, sides alternating which
// runs first. Both must agree bit for bit. speedup_x is full/boundary;
// scripts/perf_gate.sh floors it.
func BenchmarkUserStateBoundarySpeedup(b *testing.B) {
	const steps = 16
	cfg, err := netgen.TableIConfig(3, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := netgen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	sess := NewSession(Options{Workers: 1})
	type solved struct {
		gp  *graphPipeline
		sol *Solution
	}
	var chain []solved
	d := &graph.Delta{}
	for len(chain) < steps {
		next, sol, _, err := sess.SolveDelta(ctx, g, d, []UserInput{{}}, DeltaOptions{})
		if err != nil {
			b.Fatal(err)
		}
		g = next
		chain = append(chain, solved{sess.lookup(g), sol})
		d = carryDelta(rng, g, sess.lookup(g).view, len(chain), false)
	}
	mark := make([]bool, g.NumNodes()+64)
	var boundary, full time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := chain[i%steps]
		pl := c.sol.Placements[0]
		var got, want mec.UserState
		for side := 0; side < 2; side++ {
			start := time.Now()
			if (i/steps+side)%2 == 0 {
				got = userState(c.gp.view, c.gp.boundary, c.sol.Parts, pl, mark)
				boundary += time.Since(start)
			} else {
				want = userStateFullWalk(c.gp.view, c.sol.Parts, pl, mark)
				full += time.Since(start)
			}
		}
		if got != want {
			b.Fatalf("boundary state %+v, full walk %+v", got, want)
		}
	}
	b.ReportMetric(full.Seconds()/boundary.Seconds(), "speedup_x")
	b.ReportMetric(float64(boundary.Nanoseconds())/float64(b.N), "boundary_ns")
	b.ReportMetric(float64(full.Nanoseconds())/float64(b.N), "full_ns")
}
