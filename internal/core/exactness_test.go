package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"copmecs/internal/graph"
	"copmecs/internal/netgen"
)

// solutionsIdentical compares two solutions exactly — parts, placements, the
// full model evaluation, the initial objective and the compression counters,
// no tolerances. Every entry point is required to reproduce the map-pipeline
// oracle bit for bit, so any drift here is a bug, not noise.
func solutionsIdentical(t *testing.T, a, b *Solution) bool {
	t.Helper()
	if !reflect.DeepEqual(a.Eval, b.Eval) {
		t.Logf("evaluation %+v vs %+v", a.Eval, b.Eval)
		return false
	}
	if a.InitialObjective != b.InitialObjective {
		t.Logf("initial objective %v vs %v", a.InitialObjective, b.InitialObjective)
		return false
	}
	if len(a.Parts) != len(b.Parts) {
		t.Logf("part count %d vs %d", len(a.Parts), len(b.Parts))
		return false
	}
	for i := range a.Parts {
		pa, pb := &a.Parts[i], &b.Parts[i]
		if pa.User != pb.User || pa.Work != pb.Work || pa.Remote != pb.Remote || pa.InitialRemote != pb.InitialRemote {
			t.Logf("part %d differs: %+v vs %+v", i, pa, pb)
			return false
		}
		if !slices.Equal(pa.Nodes, pb.Nodes) {
			t.Logf("part %d nodes %v vs %v", i, pa.Nodes, pb.Nodes)
			return false
		}
		if !slices.EqualFunc(pa.Adj, pb.Adj, func(x, y PartEdge) bool {
			return x.Other == y.Other && math.Float64bits(x.Weight) == math.Float64bits(y.Weight)
		}) {
			t.Logf("part %d adj %+v vs %+v", i, pa.Adj, pb.Adj)
			return false
		}
	}
	if len(a.Placements) != len(b.Placements) {
		return false
	}
	for u := range a.Placements {
		ra, rb := a.Placements[u].Remote, b.Placements[u].Remote
		if len(ra) != len(rb) {
			t.Logf("user %d remote size %d vs %d", u, len(ra), len(rb))
			return false
		}
		for id := range ra {
			if !rb[id] {
				t.Logf("user %d remote sets differ at %d", u, id)
				return false
			}
		}
	}
	sa, sb := a.Stats, b.Stats
	if sa.NodesBefore != sb.NodesBefore || sa.EdgesBefore != sb.EdgesBefore ||
		sa.NodesAfter != sb.NodesAfter || sa.EdgesAfter != sb.EdgesAfter || sa.Parts != sb.Parts {
		t.Logf("compression counters differ: %+v vs %+v", sa, sb)
		return false
	}
	return true
}

// exactnessOptions is the option axis of the exactness table: the full cross
// product engines × Workers × compression × MaxParts, plus one row per
// further switch that reaches the pipeline, each at Workers 1 and 4.
func exactnessOptions() []Options {
	var all []Options
	for _, eng := range []Engine{SpectralEngine{}, SpectralEngine{Balanced: true}, MaxFlowEngine{}} {
		for _, workers := range []int{1, 4} {
			for _, noCompress := range []bool{false, true} {
				for _, maxParts := range []int{2, 4} {
					all = append(all, Options{Engine: eng, Workers: workers, DisableCompression: noCompress, MaxParts: maxParts})
				}
			}
		}
	}
	for _, o := range []Options{
		{}, // nil engine, zero MaxParts: the defaults themselves
		{Engine: SpectralEngine{DisableSweep: true}},
		{Engine: SpectralEngine{DenseCutoff: 8}},
		{Engine: KLEngine{}},
		{Engine: StoerWagnerEngine{}},
		{MaxParts: 3},
		{MaxParts: 3, DisableCompression: true},
		{DisableGreedy: true},
	} {
		for _, workers := range []int{1, 4} {
			o.Workers = workers
			all = append(all, o)
		}
	}
	return all
}

func optionsLabel(o Options) string {
	name := "default"
	if o.Engine != nil {
		name = fmt.Sprintf("%s%+v", o.Engine.Name(), o.Engine)
	}
	// The constant dfs=false segment keeps subtest names comparable with
	// recorded runs: propagation has been breadth-first only since the
	// traversal option went.
	return fmt.Sprintf("%s/workers=%d/nocompress=%t/maxparts=%d/dfs=false/nogreedy=%t",
		name, o.Workers, o.DisableCompression, o.MaxParts, o.DisableGreedy)
}

// exactCheck is one solution an entry point produced, with the population
// the oracle must solve to reproduce it.
type exactCheck struct {
	what  string
	got   *Solution
	users []UserInput
}

// rebind returns users with every Graph pointing at g.
func rebind(users []UserInput, g *graph.Graph) []UserInput {
	out := slices.Clone(users)
	for i := range out {
		out[i].Graph = g
	}
	return out
}

// exactnessEntryPoints is the entry-point axis: every public way into the
// solver, each returning the solutions it produced. g1 and g2 are distinct
// graphs; rng drives the delta chains.
var exactnessEntryPoints = []struct {
	name string
	run  func(t *testing.T, ctx context.Context, opts Options, g1, g2 *graph.Graph, rng *rand.Rand) []exactCheck
}{
	{"Solve", func(t *testing.T, ctx context.Context, opts Options, g1, g2 *graph.Graph, _ *rand.Rand) []exactCheck {
		shared := []UserInput{{Graph: g1}, {Graph: g1, FixedLocalWork: 25}, {Graph: g1, FixedLocalWork: 10}}
		mixed := []UserInput{{Graph: g1}, {Graph: g2, FixedLocalWork: 4}}
		var out []exactCheck
		for _, users := range [][]UserInput{shared, mixed} {
			sol, err := Solve(ctx, users, opts)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, exactCheck{fmt.Sprintf("%d users", len(users)), sol, users})
		}
		return out
	}},
	{"Session.Solve cold then cached", func(t *testing.T, ctx context.Context, opts Options, g1, g2 *graph.Graph, _ *rand.Rand) []exactCheck {
		users := []UserInput{{Graph: g1}, {Graph: g2, FixedLocalWork: 4}}
		sess := NewSession(opts)
		var out []exactCheck
		for _, pass := range []string{"cold", "cached"} {
			sol, err := sess.Solve(ctx, users)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, exactCheck{pass, sol, users})
		}
		if sess.CachedGraphs() != 2 {
			t.Fatalf("session cached %d graphs, want 2", sess.CachedGraphs())
		}
		return out
	}},
	{"BatchSolve x1", func(t *testing.T, ctx context.Context, opts Options, g1, g2 *graph.Graph, _ *rand.Rand) []exactCheck {
		users := []UserInput{{Graph: g1}, {Graph: g2, FixedLocalWork: 4}}
		res := BatchSolve(ctx, []BatchItem{{Users: users}}, opts)
		if res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
		return []exactCheck{{"item 0", res[0].Solution, users}}
	}},
	{"BatchSolve xN shared and distinct graphs", func(t *testing.T, ctx context.Context, opts Options, g1, g2 *graph.Graph, _ *rand.Rand) []exactCheck {
		items := []BatchItem{
			{Users: []UserInput{{Graph: g1}, {Graph: g2, FixedLocalWork: 4}}},
			{Users: []UserInput{{Graph: g2}, {Graph: g2}}},
			{Users: []UserInput{{Graph: g1, FixedLocalWork: 7}}},
		}
		var out []exactCheck
		for i, r := range BatchSolve(ctx, items, opts) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			out = append(out, exactCheck{fmt.Sprintf("item %d", i), r.Solution, items[i].Users})
		}
		return out
	}},
	{"SolveDelta empty delta on an unseen base", func(t *testing.T, ctx context.Context, opts Options, g1, _ *graph.Graph, _ *rand.Rand) []exactCheck {
		users := []UserInput{{}, {FixedLocalWork: 3}}
		next, sol, ds, err := NewSession(opts).SolveDelta(ctx, g1, &graph.Delta{}, users, DeltaOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !ds.ColdFallback || ds.Incremental {
			t.Fatalf("stats %+v, want a cold capture", ds)
		}
		return []exactCheck{{"cold capture", sol, rebind(users, next)}}
	}},
	{"SolveDelta 3-step chain", func(t *testing.T, ctx context.Context, opts Options, g1, _ *graph.Graph, rng *rand.Rand) []exactCheck {
		users := []UserInput{{}, {FixedLocalWork: 3}}
		sess := NewSession(opts)
		cur, _, _, err := sess.SolveDelta(ctx, g1, &graph.Delta{}, users, DeltaOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var out []exactCheck
		for step := 0; step < 3; step++ {
			// Raise the fallback threshold so small graphs exercise the
			// incremental path rather than constantly falling back.
			next, sol, ds, err := sess.SolveDelta(ctx, cur, solveChurn(rng, cur), users, DeltaOptions{MaxTouchedFraction: 0.95})
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if ds.FallbackReason == "no cached state for base graph" {
				t.Fatalf("step %d lost the delta state", step)
			}
			what := fmt.Sprintf("step %d (incremental=%v clean=%d dirty=%d)", step, ds.Incremental, ds.CleanComponents, ds.DirtyComponents)
			out = append(out, exactCheck{what, sol, rebind(users, next)})
			cur = next
		}
		return out
	}},
	{"Session.Solve then SolveDelta on the same graph", func(t *testing.T, ctx context.Context, opts Options, g1, g2 *graph.Graph, rng *rand.Rand) []exactCheck {
		sess := NewSession(opts)
		primed := []UserInput{{Graph: g1}, {Graph: g2}}
		first, err := sess.Solve(ctx, primed)
		if err != nil {
			t.Fatal(err)
		}
		// g2 rides along untouched: the delta population mixes the mutated
		// graph with a cache-served one.
		users := []UserInput{{Graph: g1}, {Graph: g2, FixedLocalWork: 4}}
		next, sol, _, err := sess.SolveDelta(ctx, g1, solveChurn(rng, g1), users, DeltaOptions{MaxTouchedFraction: 0.95})
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(users)
		want[0].Graph = next
		return []exactCheck{{"prime", first, primed}, {"delta", sol, want}}
	}},
}

// TestExactnessTable is the solver's one exactness contract: every entry
// point, under every option that reaches the pipeline, returns exactly the
// solution the map-pipeline oracle computes for the same population —
// Parts, Placements, Eval, InitialObjective and the compression counters,
// compared with ==.
func TestExactnessTable(t *testing.T) {
	ctx := context.Background()
	seeds := []int64{3, 5, 7, 11}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, opts := range exactnessOptions() {
		t.Run(optionsLabel(opts), func(t *testing.T) {
			for _, seed := range seeds {
				n := 60 + int(seed%5)*10
				g1, err := netgen.Generate(netgen.Config{Nodes: n, Edges: 2 * n, Components: 3 + int(seed%3), Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				g2, err := netgen.Generate(netgen.Config{Nodes: n - 25, Edges: 2*n - 50, Components: 2, Seed: seed + 100})
				if err != nil {
					t.Fatal(err)
				}
				for _, ep := range exactnessEntryPoints {
					rng := rand.New(rand.NewSource(seed))
					for _, c := range ep.run(t, ctx, opts, g1, g2, rng) {
						want, err := solveMapOracle(ctx, c.users, opts)
						if err != nil {
							t.Fatalf("%s, %s, seed %d: oracle: %v", ep.name, c.what, seed, err)
						}
						if !solutionsIdentical(t, c.got, want) {
							t.Errorf("%s, %s, seed %d: diverges from the map oracle", ep.name, c.what, seed)
						}
					}
				}
			}
		})
	}
}
