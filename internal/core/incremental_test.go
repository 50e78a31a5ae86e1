package core

import (
	"context"
	"math/rand"
	"testing"

	"copmecs/internal/graph"
	"copmecs/internal/mec"
	"copmecs/internal/netgen"
)

// solveChurn is a seeded delta generator for the exactness table's delta chains:
// weight drift, edge churn, and node churn strong enough to split and merge
// components across a chained sequence.
func solveChurn(rng *rand.Rand, g *graph.Graph) *graph.Delta {
	d := &graph.Delta{}
	ids := g.Nodes()
	edges := g.Edges()
	seen := map[[2]graph.NodeID]bool{}
	for i := 0; i < rng.Intn(3) && len(edges) > 0; i++ {
		e := edges[rng.Intn(len(edges))]
		if seen[[2]graph.NodeID{e.U, e.V}] {
			continue
		}
		seen[[2]graph.NodeID{e.U, e.V}] = true
		d.RemoveEdges = append(d.RemoveEdges, graph.EdgePair{U: e.U, V: e.V})
	}
	removed := map[graph.NodeID]bool{}
	if rng.Intn(3) == 0 && len(ids) > 6 {
		id := ids[rng.Intn(len(ids))]
		removed[id] = true
		d.RemoveNodes = append(d.RemoveNodes, id)
	}
	if rng.Intn(3) == 0 {
		id := graph.NodeID(500000 + rng.Intn(64))
		if !g.HasNode(id) {
			d.AddNodes = append(d.AddNodes, graph.NodeDelta{ID: id, Weight: 1 + rng.Float64()*40})
		}
	}
	alive := make([]graph.NodeID, 0, len(ids)+1)
	for _, id := range ids {
		if !removed[id] {
			alive = append(alive, id)
		}
	}
	for _, nd := range d.AddNodes {
		alive = append(alive, nd.ID)
	}
	for i := 0; i < rng.Intn(4) && len(alive) > 1; i++ {
		u, v := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
		if u == v {
			continue
		}
		d.SetEdges = append(d.SetEdges, graph.EdgeDelta{U: u, V: v, Weight: 0.5 + rng.Float64()*15})
	}
	for i := 0; i < rng.Intn(2) && len(alive) > 0; i++ {
		d.SetNodeWeights = append(d.SetNodeWeights,
			graph.NodeDelta{ID: alive[rng.Intn(len(alive))], Weight: 1 + rng.Float64()*80})
	}
	return d
}

func TestSolveDeltaFirstCallIsColdCapture(t *testing.T) {
	g, err := netgen.Generate(netgen.Config{Nodes: 80, Edges: 160, Components: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(Options{})
	users := []UserInput{{Graph: g}}
	d := &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: g.Nodes()[0], Weight: 99}}}
	next, _, ds, err := sess.SolveDelta(context.Background(), g, d, users, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ds.ColdFallback || ds.Incremental {
		t.Errorf("first delta against unseen base: stats %+v, want cold fallback", ds)
	}
	// The cold path captured state for the mutated graph: the next delta
	// goes incremental.
	d2 := &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: next.Nodes()[1], Weight: 44}}}
	_, _, ds2, err := sess.SolveDelta(context.Background(), next, d2, users, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ds2.Incremental || ds2.ColdFallback {
		t.Errorf("chained delta: stats %+v, want incremental", ds2)
	}
	if ds2.DirtyComponents != 1 {
		t.Errorf("weight-only delta dirtied %d components, want 1", ds2.DirtyComponents)
	}
	if ds2.CleanComponents < 1 {
		t.Errorf("weight-only delta left %d clean components, want ≥ 1", ds2.CleanComponents)
	}
}

func TestSolveDeltaColdFallbackOnLargeDelta(t *testing.T) {
	g, err := netgen.Generate(netgen.Config{Nodes: 60, Edges: 120, Components: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(Options{})
	users := []UserInput{{Graph: g}}
	if _, err := sess.Solve(context.Background(), users); err != nil {
		t.Fatal(err)
	}
	// Rewrite a third of the edges — far beyond the default threshold.
	d := &graph.Delta{}
	for i, e := range g.Edges() {
		if i%3 == 0 {
			d.SetEdges = append(d.SetEdges, graph.EdgeDelta{U: e.U, V: e.V, Weight: e.Weight * 2})
		}
	}
	next, sol, ds, err := sess.SolveDelta(context.Background(), g, d, users, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ds.ColdFallback {
		t.Errorf("stats %+v, want cold fallback above threshold", ds)
	}
	coldUsers := []UserInput{{Graph: next}}
	cold, err := Solve(context.Background(), coldUsers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !solutionsIdentical(t, sol, cold) {
		t.Error("cold-fallback SolveDelta differs from from-scratch Solve")
	}
}

func TestSolveAppliedParamsMatchColdSolve(t *testing.T) {
	// Per-call params ride through the incremental path exactly as they do
	// through a cold Solve: same cached cuts, params enter at greedy.
	g, err := netgen.Generate(netgen.Config{Nodes: 90, Edges: 180, Components: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	params := mec.Defaults()
	params.ServerCapacity *= 2.5
	params.Bandwidth *= 0.5
	sess := NewSession(Options{})
	users := []UserInput{{Graph: g}}
	// Prime incremental state through the cold capture path.
	base, _, _, err := sess.SolveDelta(context.Background(), g, &graph.Delta{}, users, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := base.Edges()[0]
	d := &graph.Delta{SetEdges: []graph.EdgeDelta{{U: e.U, V: e.V, Weight: e.Weight + 7}}}
	next := base.Clone()
	if err := d.Apply(next); err != nil {
		t.Fatal(err)
	}
	a, err := sess.Apply(base, d, next, DeltaOptions{MaxTouchedFraction: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	want, err := next.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp, err := a.Fingerprint(); err != nil || fp != want {
		t.Fatalf("Applied.Fingerprint = %s (%v), want the applied graph's %s", fp, err, want)
	}
	r := sess.BatchSolve(context.Background(), []BatchItem{{Users: []UserInput{{Graph: next}}, Params: params}}, a)[0]
	sol, err := r.Solution, r.Err
	if err != nil {
		t.Fatal(err)
	}
	if ds := a.Stats(); !ds.Incremental {
		t.Fatalf("stats %+v, want incremental", ds)
	}
	cold, err := Solve(context.Background(), []UserInput{{Graph: next}}, Options{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if !solutionsIdentical(t, sol, cold) {
		t.Error("BatchSolve over the applied view differs from cold Solve under the same params")
	}
	// The params actually took effect: defaults give a different objective.
	defSol, err := Solve(context.Background(), []UserInput{{Graph: next}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Eval.Objective == defSol.Eval.Objective {
		t.Error("overridden params produced the default objective; override ignored")
	}
}

func TestSolveDeltaInvalidDelta(t *testing.T) {
	g, err := netgen.Generate(netgen.Config{Nodes: 30, Edges: 60, Components: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(Options{})
	d := &graph.Delta{RemoveNodes: []graph.NodeID{999999}}
	if _, _, _, err := sess.SolveDelta(context.Background(), g, d, []UserInput{{Graph: g}}, DeltaOptions{}); err == nil {
		t.Error("SolveDelta accepted a delta removing a missing node")
	}
	if g.HasNode(999999) {
		t.Error("base graph mutated")
	}
}

func TestSolveDeltaDoesNotMutateBase(t *testing.T) {
	g, err := netgen.Generate(netgen.Config{Nodes: 40, Edges: 80, Components: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	before := g.Clone()
	sess := NewSession(Options{})
	if _, err := sess.Solve(context.Background(), []UserInput{{Graph: g}}); err != nil {
		t.Fatal(err)
	}
	id := g.Nodes()[3]
	d := &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: id, Weight: 123}}}
	next, _, _, err := sess.SolveDelta(context.Background(), g, d, []UserInput{{Graph: g}}, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(before) {
		t.Error("SolveDelta mutated the base graph")
	}
	if w, _ := next.NodeWeight(id); w != 123 {
		t.Errorf("mutated graph weight %v, want 123", w)
	}
}

func TestBatchSolveStagesAppliedView(t *testing.T) {
	// One pass pipelines a patched view beside a never-seen graph's compiled
	// one: each item is still its graph's cold Solve, and the applied graph
	// is cached as a patchable base.
	g, err := netgen.Generate(netgen.Config{Nodes: 90, Edges: 180, Components: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	other, err := netgen.Generate(netgen.Config{Nodes: 70, Edges: 140, Components: 2, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(Options{})
	if _, err := sess.Solve(context.Background(), []UserInput{{Graph: g}}); err != nil {
		t.Fatal(err)
	}
	e := g.Edges()[0]
	d := &graph.Delta{SetEdges: []graph.EdgeDelta{{U: e.U, V: e.V, Weight: e.Weight + 3}}}
	next := g.Clone()
	if err := d.Apply(next); err != nil {
		t.Fatal(err)
	}
	a, err := sess.Apply(g, d, next, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{{Users: []UserInput{{Graph: next}}}, {Users: []UserInput{{Graph: other}}}}
	res := sess.BatchSolve(context.Background(), items, a)
	for i, it := range items {
		if res[i].Err != nil {
			t.Fatalf("item %d: %v", i, res[i].Err)
		}
		cold, err := Solve(context.Background(), it.Users, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !solutionsIdentical(t, res[i].Solution, cold) {
			t.Errorf("item %d differs from its graph's cold Solve", i)
		}
	}
	if ds := a.Stats(); !ds.Incremental || ds.CleanComponents < 1 {
		t.Errorf("applied stats %+v, want incremental with clean components", ds)
	}
	n := next.Nodes()[0]
	d2 := &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: n, Weight: 61}}}
	next2 := next.Clone()
	if err := d2.Apply(next2); err != nil {
		t.Fatal(err)
	}
	a2, err := sess.Apply(next, d2, next2, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds := a2.Stats(); !ds.Incremental {
		t.Errorf("next delta against the staged graph: stats %+v, want incremental", ds)
	}
}
