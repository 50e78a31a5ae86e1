package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"copmecs/internal/graph"
	"copmecs/internal/mec"
	"copmecs/internal/netgen"
)

func TestSessionMatchesSolve(t *testing.T) {
	g, err := netgen.Generate(netgen.Config{Nodes: 120, Edges: 360, Components: 3, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	users := []UserInput{{Graph: g}, {Graph: g}, {Graph: g}}
	sess := NewSession(Options{})
	fromSession, err := sess.Solve(context.Background(), users)
	if err != nil {
		t.Fatalf("Session.Solve: %v", err)
	}
	direct, err := Solve(context.Background(), users, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fromSession.Eval.Objective-direct.Eval.Objective) > 1e-9*(1+direct.Eval.Objective) {
		t.Errorf("session %v vs direct %v", fromSession.Eval.Objective, direct.Eval.Objective)
	}
	if sess.CachedGraphs() != 1 {
		t.Errorf("CachedGraphs = %d, want 1", sess.CachedGraphs())
	}
}

func TestSessionReusesAcrossPopulationChanges(t *testing.T) {
	gA, err := netgen.Generate(netgen.Config{Nodes: 90, Edges: 270, Components: 2, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	gB, err := netgen.Generate(netgen.Config{Nodes: 110, Edges: 330, Components: 2, Seed: 54})
	if err != nil {
		t.Fatal(err)
	}
	params := mec.Defaults()
	params.ServerCapacity = 1500
	sess := NewSession(Options{Params: params})

	// First wave: 4 users on app A.
	wave1 := []UserInput{{Graph: gA}, {Graph: gA}, {Graph: gA}, {Graph: gA}}
	sol1, err := sess.Solve(context.Background(), wave1)
	if err != nil {
		t.Fatal(err)
	}
	if sess.CachedGraphs() != 1 {
		t.Fatalf("after wave1 CachedGraphs = %d", sess.CachedGraphs())
	}

	// Second wave: 2 users leave, 3 on app B join.
	wave2 := []UserInput{{Graph: gA}, {Graph: gA}, {Graph: gB}, {Graph: gB}, {Graph: gB}}
	sol2, err := sess.Solve(context.Background(), wave2)
	if err != nil {
		t.Fatal(err)
	}
	if sess.CachedGraphs() != 2 {
		t.Fatalf("after wave2 CachedGraphs = %d", sess.CachedGraphs())
	}

	// The cached solve equals the cold solve for the same wave.
	cold, err := Solve(context.Background(), wave2, Options{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol2.Eval.Objective-cold.Eval.Objective) > 1e-9*(1+cold.Eval.Objective) {
		t.Errorf("cached wave2 %v vs cold %v", sol2.Eval.Objective, cold.Eval.Objective)
	}
	// And the population change moved the numbers.
	if sol1.Eval.Objective == sol2.Eval.Objective {
		t.Log("wave objectives coincide; populations differ so this is unexpected but not fatal")
	}
}

func TestSessionInvalidate(t *testing.T) {
	g, err := netgen.Generate(netgen.Config{Nodes: 60, Edges: 150, Components: 2, Seed: 57})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(Options{})
	if _, err := sess.Solve(context.Background(), []UserInput{{Graph: g}}); err != nil {
		t.Fatal(err)
	}
	if !sess.Invalidate(g) {
		t.Error("Invalidate(cached) = false")
	}
	if sess.Invalidate(g) {
		t.Error("second Invalidate = true")
	}
	if sess.CachedGraphs() != 0 {
		t.Errorf("CachedGraphs after invalidate = %d", sess.CachedGraphs())
	}
	// Mutate and re-solve: fresh pipeline, no stale placement nodes.
	if err := g.AddEdge(0, 1, 99); err != nil {
		t.Logf("edge exists, coalesced: %v", err)
	}
	sol, err := sess.Solve(context.Background(), []UserInput{{Graph: g}})
	if err != nil {
		t.Fatal(err)
	}
	for id := range sol.Placements[0].Remote {
		if !g.HasNode(id) {
			t.Errorf("stale node %d in placement", id)
		}
	}
}

func TestSessionConcurrentSolves(t *testing.T) {
	g, err := netgen.Generate(netgen.Config{Nodes: 80, Edges: 240, Components: 2, Seed: 59})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(Options{})
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := sess.Solve(context.Background(), []UserInput{{Graph: g}, {Graph: g}})
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent solve: %v", err)
		}
	}
	if sess.CachedGraphs() != 1 {
		t.Errorf("CachedGraphs = %d, want 1", sess.CachedGraphs())
	}
}

// TestSessionLifecycleUnderContention hammers one Session with concurrent
// Solve, BatchSolve, SolveDelta and Invalidate over overlapping graphs (run
// under -race in CI). Whatever the interleaving — entries appearing, being
// dropped and re-pipelined mid-flight — every solution equals its uncached
// reference, and Invalidate drops a graph's part templates and its delta
// state together: one entry map leaves no half-dropped graph to observe.
func TestSessionLifecycleUnderContention(t *testing.T) {
	ctx := context.Background()
	var gs [3]*graph.Graph
	for i := range gs {
		g, err := netgen.Generate(netgen.Config{Nodes: 60 + 10*i, Edges: 150 + 20*i, Components: 3, Seed: int64(61 + i)})
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = g
	}
	opts := Options{Workers: 2}
	sess := NewSession(opts)
	users := []UserInput{{Graph: gs[0]}, {Graph: gs[1], FixedLocalWork: 5}}
	items := []BatchItem{{Users: []UserInput{{Graph: gs[1]}}}, {Users: []UserInput{{Graph: gs[2]}, {Graph: gs[0]}}}}

	// A delta base with captured state, and the delta every mutator applies.
	base, _, _, err := sess.SolveDelta(ctx, gs[2], &graph.Delta{}, []UserInput{{}}, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := base.Edges()[0]
	d := &graph.Delta{SetEdges: []graph.EdgeDelta{{U: e.U, V: e.V, Weight: e.Weight + 3}}}
	mutated := base.Clone()
	if err := d.Apply(mutated); err != nil {
		t.Fatal(err)
	}

	wantSolve, err := Solve(ctx, users, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantBatch := BatchSolve(ctx, items, opts)
	wantDelta, err := Solve(ctx, []UserInput{{Graph: mutated}}, opts)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 12
	var wg sync.WaitGroup
	worker := func(fn func(r int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				fn(r)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		worker(func(int) {
			sol, err := sess.Solve(ctx, users)
			if err != nil || !solutionsIdentical(t, sol, wantSolve) {
				t.Errorf("concurrent Solve: err %v or diverged", err)
			}
		})
		worker(func(int) {
			for i, r := range sess.BatchSolve(ctx, items) {
				if r.Err != nil || !solutionsIdentical(t, r.Solution, wantBatch[i].Solution) {
					t.Errorf("concurrent BatchSolve item %d: err %v or diverged", i, r.Err)
				}
			}
		})
		worker(func(int) {
			next, sol, ds, err := sess.SolveDelta(ctx, base, d, []UserInput{{}}, DeltaOptions{MaxTouchedFraction: 0.95})
			if err != nil || !ds.Incremental || !solutionsIdentical(t, sol, wantDelta) {
				t.Errorf("concurrent SolveDelta: err %v, stats %+v, or diverged", err, ds)
				return
			}
			sess.Invalidate(next)
		})
		worker(func(r int) { sess.Invalidate(gs[r%len(gs)]) })
	}
	wg.Wait()

	// base kept its entry throughout (nobody invalidated it): dropping it
	// takes the templates and the delta state in one step.
	before := sess.CachedGraphs()
	if !sess.Invalidate(base) {
		t.Fatal("base lost its entry during the run")
	}
	if got := sess.CachedGraphs(); got != before-1 {
		t.Errorf("CachedGraphs %d after Invalidate, want %d", got, before-1)
	}
	if sess.lookup(base) != nil {
		t.Error("templates survived Invalidate")
	}
	_, sol, ds, err := sess.SolveDelta(ctx, base, d, []UserInput{{}}, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ds.ColdFallback || ds.FallbackReason != "no cached state for base graph" {
		t.Errorf("delta state survived Invalidate: stats %+v", ds)
	}
	if !solutionsIdentical(t, sol, wantDelta) {
		t.Error("cold re-capture after Invalidate diverged")
	}
}

// TestBatchSolvedGraphIsDeltaBase: a graph a Session pipelined in a
// BatchSolve round next to another graph is a patchable base — SolveDelta
// against it carries its clean components and answers bit for bit what a
// cold Solve of the mutated graph does.
func TestBatchSolvedGraphIsDeltaBase(t *testing.T) {
	ctx := context.Background()
	var gs [2]*graph.Graph
	for i := range gs {
		g, err := netgen.Generate(netgen.Config{Nodes: 80 + 20*i, Edges: 200 + 30*i, Components: 4, Seed: int64(71 + i)})
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = g
	}
	sess := NewSession(Options{})
	for i, r := range sess.BatchSolve(ctx, []BatchItem{{Users: []UserInput{{Graph: gs[0]}}}, {Users: []UserInput{{Graph: gs[1]}}}}) {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	for gi, g := range gs {
		e := g.Edges()[0]
		d := &graph.Delta{SetEdges: []graph.EdgeDelta{{U: e.U, V: e.V, Weight: e.Weight + 3}}}
		next, sol, ds, err := sess.SolveDelta(ctx, g, d, []UserInput{{}}, DeltaOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !ds.Incremental || ds.CleanComponents < 1 {
			t.Fatalf("graph %d: delta against a batch-solved base: stats %+v, want incremental with clean components", gi, ds)
		}
		want, err := Solve(ctx, []UserInput{{Graph: next}}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !solutionsIdentical(t, sol, want) {
			t.Fatalf("graph %d: delta solution diverges from a cold Solve of the mutated graph", gi)
		}
	}
}

// TestRoundEntriesShareNoBackingArray: the cached entries of two graphs one
// round pipelined own their arrays — view, blocks and templates — so dropping
// one graph frees its memory whatever became of the other. The cut lists are
// left out: they are windows of the cut stage's per-worker arena, whose
// chunks are bounded by cutChunkCap.
func TestRoundEntriesShareNoBackingArray(t *testing.T) {
	type span struct{ lo, hi uintptr }
	arrays := func(gp *graphPipeline) []span {
		var out []span
		add := func(s any) {
			if v := reflect.ValueOf(s); v.Cap() > 0 {
				lo := v.Pointer()
				out = append(out, span{lo, lo + uintptr(v.Cap())*v.Type().Elem().Size()})
			}
		}
		view := gp.view
		add(view.IDs())
		add(view.NodeWeights())
		for _, comp := range view.Components() {
			add(comp)
		}
		for u := range int32(view.NumNodes()) {
			tgt, w := view.Adj(u)
			add(tgt)
			add(w)
		}
		add(gp.comps)
		add(gp.protos)
		for _, pp := range gp.protos {
			add(pp.adj)
		}
		for _, cs := range gp.comps {
			b := cs.blk
			for _, s := range []any{b.NodeW, b.Off, b.Tgt, b.W, b.MemberOff, b.Members, b.Labels, cs.protos} {
				add(s)
			}
			for _, pp := range cs.protos {
				add(pp.nodes)
				add(pp.idx)
				add(pp.adj)
			}
		}
		return out
	}

	ctx := context.Background()
	var gs [2]*graph.Graph
	for i := range gs {
		g, err := netgen.Generate(netgen.Config{Nodes: 60, Edges: 150, Components: 3, Seed: int64(81 + i)})
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = g
	}
	for _, opts := range []Options{{Workers: 1}, {Workers: 1, DisableCompression: true}} {
		sess := NewSession(opts)
		if _, err := sess.Solve(ctx, []UserInput{{Graph: gs[0]}, {Graph: gs[1]}}); err != nil {
			t.Fatal(err)
		}
		a, b := arrays(sess.lookup(gs[0])), arrays(sess.lookup(gs[1]))
		for _, x := range a {
			for _, y := range b {
				if x.lo < y.hi && y.lo < x.hi {
					t.Fatalf("compression disabled %v: the two graphs' entries share a backing array", opts.DisableCompression)
				}
			}
		}
	}
}
