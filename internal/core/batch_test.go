package core

import (
	"context"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"copmecs/internal/graph"
	"copmecs/internal/lpa"
	"copmecs/internal/mec"
	"copmecs/internal/netgen"
)

// batchItemsEqualLooped checks the batch contract: every item's result is
// bit-for-bit the result of an independent Solve with that item's params.
func batchItemsEqualLooped(t *testing.T, ctx context.Context, items []BatchItem, opts Options, got []BatchResult) bool {
	t.Helper()
	if len(got) != len(items) {
		t.Logf("result count %d vs %d items", len(got), len(items))
		return false
	}
	for i, it := range items {
		o := opts
		if it.Params != (mec.Params{}) {
			o.Params = it.Params
		}
		want, wantErr := Solve(ctx, it.Users, o)
		if (wantErr == nil) != (got[i].Err == nil) {
			t.Logf("item %d: err %v vs looped %v", i, got[i].Err, wantErr)
			return false
		}
		if wantErr != nil {
			if got[i].Err.Error() != wantErr.Error() {
				t.Logf("item %d: err text %q vs %q", i, got[i].Err, wantErr)
				return false
			}
			continue
		}
		if !solutionsIdentical(t, got[i].Solution, want) {
			t.Logf("item %d diverges from looped solve", i)
			return false
		}
	}
	return true
}

// TestPropertyBatchSolveMatchesLoopedSolve is the batch solver's core
// contract: fusing a whole round into one mega-instance must be invisible —
// every item solves to the exact solution (placements, parts, float-equal
// objectives, stats) an independent Solve produces, across engines,
// compression ablation, multiway splits, shared graphs and per-item params.
func TestPropertyBatchSolveMatchesLoopedSolve(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64, nItems, nGraphs, engIdx, flags uint8) bool {
		rng := int64(seed)
		graphs := make([]*graph.Graph, int(nGraphs%3)+1)
		for gi := range graphs {
			n := 20 + int(seed%40) + gi*7
			g, err := netgen.Generate(netgen.Config{
				Nodes: n, Edges: n * 2, Components: 1 + gi + int(flags%3), Seed: rng + int64(gi),
			})
			if err != nil {
				return true
			}
			graphs[gi] = g
		}
		opts := Options{
			Engine:  engines()[int(engIdx)%len(engines())],
			Workers: 1 + int(flags>>6)*3,
		}
		if flags&4 != 0 {
			opts.DisableCompression = true
		}
		if flags&8 != 0 {
			opts.MaxParts = 4
		}
		if flags&16 != 0 {
			opts.LPA = lpa.Options{Traversal: lpa.DFS}
		}
		items := make([]BatchItem, int(nItems%3)+1)
		for i := range items {
			users := make([]UserInput, (int(nItems)+i)%3+1)
			for ui := range users {
				users[ui] = UserInput{
					Graph:          graphs[(i+ui)%len(graphs)],
					FixedLocalWork: float64(ui) * 3,
				}
			}
			items[i] = BatchItem{Users: users}
			if i%2 == 1 {
				p := mec.Defaults()
				p.Bandwidth *= 1.5
				items[i].Params = p
			}
		}
		return batchItemsEqualLooped(t, ctx, items, opts, BatchSolve(ctx, items, opts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBatchSolveErrors: item-level failures are isolated and carry the same
// error text an individual Solve returns, whether the input is at fault or
// the engine.
func TestBatchSolveErrors(t *testing.T) {
	t.Run("invalid items", testBatchSolveInvalidItems)
	t.Run("engine fails on one graph", testBatchSolveEngineFailure)
}

func testBatchSolveInvalidItems(t *testing.T) {
	ctx := context.Background()
	g, err := netgen.Generate(netgen.Config{Nodes: 30, Edges: 60, Components: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := mec.Defaults()
	bad.Bandwidth = -1
	items := []BatchItem{
		{Users: []UserInput{{Graph: g}}},
		{Users: []UserInput{{Graph: g}, {}}}, // nil graph at user 1
		{Users: []UserInput{{Graph: g}}, Params: bad},
	}
	got := BatchSolve(ctx, items, Options{Workers: 1})
	if got[0].Err != nil || got[0].Solution == nil {
		t.Fatalf("item 0 should succeed, got err %v", got[0].Err)
	}
	if !errors.Is(got[1].Err, ErrNilGraph) {
		t.Fatalf("item 1 err = %v, want ErrNilGraph", got[1].Err)
	}
	_, wantNil := Solve(ctx, items[1].Users, Options{Workers: 1})
	if wantNil == nil || got[1].Err.Error() != wantNil.Error() {
		t.Fatalf("item 1 err %q, want solve's %q", got[1].Err, wantNil)
	}
	if got[2].Err == nil {
		t.Fatal("item 2 should fail params validation")
	}
	o := Options{Workers: 1, Params: bad}
	if _, wantBad := Solve(ctx, items[2].Users, o); wantBad == nil || got[2].Err.Error() != wantBad.Error() {
		t.Fatalf("item 2 err %q mismatches solve", got[2].Err)
	}
}

// graphFailingEngine fails every bisection whose block carries an edge of
// the marker weight and otherwise cuts like the engine it wraps.
type graphFailingEngine struct {
	Engine
	marker float64
}

var errPoisoned = errors.New("poisoned graph")

func (e graphFailingEngine) Bisect(ctx context.Context, off, tgt []int32, w []float64, sides []int32) ([]int32, []int32, int, error) {
	if slices.Contains(w, e.marker) {
		return nil, nil, 0, errPoisoned
	}
	return e.Engine.Bisect(ctx, off, tgt, w, sides)
}

// testBatchSolveEngineFailure: when the engine fails on one graph of a fused
// round, only the items that reference that graph fail — with the error
// their own Solve returns — and every other item equals its solo Solve.
func testBatchSolveEngineFailure(t *testing.T) {
	ctx := context.Background()
	g1, err := netgen.Generate(netgen.Config{Nodes: 50, Edges: 100, Components: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := netgen.Generate(netgen.Config{Nodes: 40, Edges: 80, Components: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// The poisoned graph is g2 with every edge at the marker weight, so the
	// engine can tell its blocks apart (uncompressed jobs carry the original
	// edge weights).
	const marker = 1 << 20
	bad := graph.New(g2.NumNodes())
	for _, id := range g2.Nodes() {
		w, _ := g2.NodeWeight(id)
		if err := bad.AddNode(id, w); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range g2.Edges() {
		if err := bad.AddEdge(e.U, e.V, marker); err != nil {
			t.Fatal(err)
		}
	}
	items := []BatchItem{
		{Users: []UserInput{{Graph: g1}}},
		{Users: []UserInput{{Graph: bad}}},
		{Users: []UserInput{{Graph: g1, FixedLocalWork: 3}, {Graph: bad}}},
		{Users: []UserInput{{Graph: g2}, {Graph: g1}}},
	}
	for _, workers := range []int{1, 4} {
		opts := Options{
			Engine:             graphFailingEngine{MaxFlowEngine{}, marker},
			DisableCompression: true,
			Workers:            workers,
		}
		got := BatchSolve(ctx, items, opts)
		for _, i := range []int{1, 2} {
			if !errors.Is(got[i].Err, errPoisoned) {
				t.Errorf("workers %d item %d: err %v, want the engine's", workers, i, got[i].Err)
			}
		}
		for _, i := range []int{0, 3} {
			if got[i].Err != nil {
				t.Errorf("workers %d item %d: failed with %v beside a poisoned neighbour", workers, i, got[i].Err)
			}
		}
		if !batchItemsEqualLooped(t, ctx, items, opts, got) {
			t.Errorf("workers %d: batch diverges from solo solves", workers)
		}
	}
}

// TestBatchSolveSessionCache: cache-served graphs skip the pipeline pass,
// pipelined graphs land in the cache, and a later single Solve through
// those cached (idx-carrying) templates still matches a fresh solve exactly.
func TestBatchSolveSessionCache(t *testing.T) {
	ctx := context.Background()
	g1, err := netgen.Generate(netgen.Config{Nodes: 60, Edges: 120, Components: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := netgen.Generate(netgen.Config{Nodes: 40, Edges: 80, Components: 2, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 1}
	s := NewSession(opts)
	if _, err := s.Solve(ctx, []UserInput{{Graph: g1}}); err != nil {
		t.Fatal(err)
	}
	if got := s.CachedGraphs(); got != 1 {
		t.Fatalf("cached graphs = %d, want 1", got)
	}
	items := []BatchItem{
		{Users: []UserInput{{Graph: g1}, {Graph: g2}}}, // g1 cached, g2 pipelined
		{Users: []UserInput{{Graph: g2}}},
	}
	got := s.BatchSolve(ctx, items)
	if !batchItemsEqualLooped(t, ctx, items, opts, got) {
		t.Fatal("session batch diverges from looped solves")
	}
	if gotN := s.CachedGraphs(); gotN != 2 {
		t.Fatalf("cached graphs after batch = %d, want 2", gotN)
	}
	// A later plain Solve through the batch-populated cache entry.
	fromCache, err := s.Solve(ctx, []UserInput{{Graph: g2}})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Solve(ctx, []UserInput{{Graph: g2}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !solutionsIdentical(t, fromCache, fresh) {
		t.Fatal("solve through batch-cached templates diverges")
	}
}

// TestBatchSolveParallelCutStageMatchesSerial drives the cut stage's fan-out
// across jobs — many components, bisection through deep recursion (MaxParts
// 2, 4, 16), 2 and 8 goroutines pulling jobs — and requires the exact serial
// answer and the looped-solve answer. Run under -race in CI, this is also the
// fan-out's data-race probe.
func TestBatchSolveParallelCutStageMatchesSerial(t *testing.T) {
	ctx := context.Background()
	g, err := netgen.Generate(netgen.Config{Nodes: 640, Edges: 1280, Components: 64, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := netgen.Generate(netgen.Config{Nodes: 300, Edges: 650, Components: 5, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{
		{Users: []UserInput{{Graph: g}}},
		{Users: []UserInput{{Graph: g2}, {Graph: g}}},
	}
	for _, maxParts := range []int{2, 4, 16} {
		ser := BatchSolve(ctx, items, Options{Workers: 1, MaxParts: maxParts})
		for _, workers := range []int{2, 8} {
			opts := Options{Workers: workers, MaxParts: maxParts}
			par := BatchSolve(ctx, items, opts)
			for i := range items {
				if par[i].Err != nil || ser[i].Err != nil {
					t.Fatalf("MaxParts %d, %d workers, item %d: par err %v, ser err %v", maxParts, workers, i, par[i].Err, ser[i].Err)
				}
				if !solutionsIdentical(t, par[i].Solution, ser[i].Solution) {
					t.Errorf("MaxParts %d, %d workers, item %d: parallel cut stage diverges from serial", maxParts, workers, i)
				}
			}
			if !batchItemsEqualLooped(t, ctx, items, opts, par) {
				t.Errorf("MaxParts %d, %d workers: parallel batch diverges from looped solves", maxParts, workers)
			}
		}
	}
}

// TestBatchSolveCancelled: a dead context fails every item.
func TestBatchSolveCancelled(t *testing.T) {
	g, err := netgen.Generate(netgen.Config{Nodes: 30, Edges: 60, Components: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := BatchSolve(ctx, []BatchItem{{Users: []UserInput{{Graph: g}}}}, Options{})
	if len(got) != 1 || !errors.Is(got[0].Err, context.Canceled) {
		t.Fatalf("got %+v, want context.Canceled", got)
	}
}
