// Benchmarks regenerating the paper's evaluation artefacts, one benchmark
// per table/figure, plus ablations for the design choices DESIGN.md calls
// out. Sub-benchmarks encode the x-axis, so `go test -bench .` output reads
// as the paper's series. Figure benchmarks report the figure's metric via
// b.ReportMetric (normalisation happens in cmd/experiments, which prints the
// exact rows); runtime benchmarks' ns/op are the Figure 9 series itself.
//
// The multi-user benchmarks run the reduced population {250, 500, 1000} to
// keep `go test -bench .` under a few minutes; cmd/experiments runs the full
// paper populations up to 5000 users.
package copmecs

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"copmecs/internal/core"
	"copmecs/internal/eigen"
	"copmecs/internal/graph"
	"copmecs/internal/lpa"
	"copmecs/internal/matrix"
	"copmecs/internal/mec"
	"copmecs/internal/netgen"
)

const benchSeed = 7

// benchSizes are the Table I graph sizes (full paper scale).
var benchSizes = []int{250, 500, 1000, 2000, 5000}

// benchUserCounts is the reduced population range for Figures 6–8 benches.
var benchUserCounts = []int{250, 500, 1000}

// benchGraph generates the Table I graph of the given size (or a scaled
// equivalent) once per call; failures abort the benchmark.
func benchGraph(b *testing.B, size int) *graph.Graph {
	b.Helper()
	for i := 0; i < netgen.TableIRows(); i++ {
		cfg, err := netgen.TableIConfig(i, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if cfg.Nodes == size {
			g, err := netgen.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return g
		}
	}
	g, err := netgen.Generate(netgen.Config{
		Nodes: size, Edges: size * 24 / 5, Components: 4 + size/500, Seed: benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchEngines are the paper's three cut engines.
func benchEngines() []core.Engine {
	return []core.Engine{core.SpectralEngine{}, core.MaxFlowEngine{}, core.KLEngine{}}
}

// BenchmarkTable1Compression regenerates Table I: Algorithm 1 on the five
// NETGEN-scale graphs. nodes_after/edges_after are the table's right-hand
// columns.
func BenchmarkTable1Compression(b *testing.B) {
	for _, size := range benchSizes {
		size := size
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			g := benchGraph(b, size)
			b.ReportAllocs()
			b.ResetTimer()
			var last *lpa.Result
			for i := 0; i < b.N; i++ {
				res, err := lpa.Compress(g, lpa.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.NodesAfter), "nodes_after")
			b.ReportMetric(float64(last.EdgesAfter), "edges_after")
			b.ReportMetric(100*last.CompressionRatio(), "reduction_%")
		})
	}
}

// benchSingleUserEnergy runs the Figures 3–5 workload for one engine/size
// and reports the requested metric.
func benchSingleUserEnergy(b *testing.B, metric string) {
	for _, size := range benchSizes {
		for _, eng := range benchEngines() {
			eng := eng
			size := size
			b.Run(fmt.Sprintf("%s/n=%d", eng.Name(), size), func(b *testing.B) {
				g := benchGraph(b, size)
				b.ReportAllocs()
				b.ResetTimer()
				var ev *mec.Evaluation
				for i := 0; i < b.N; i++ {
					sol, err := core.Solve(context.Background(), []core.UserInput{{Graph: g}}, core.Options{Engine: eng})
					if err != nil {
						b.Fatal(err)
					}
					ev = sol.Eval
				}
				switch metric {
				case "local":
					b.ReportMetric(ev.LocalEnergy, "localE")
				case "transmission":
					b.ReportMetric(ev.TransmissionEnergy, "transmitE")
				default:
					b.ReportMetric(ev.Energy, "totalE")
				}
			})
		}
	}
}

// BenchmarkFig3LocalEnergy regenerates Figure 3 (single-user local energy).
func BenchmarkFig3LocalEnergy(b *testing.B) { benchSingleUserEnergy(b, "local") }

// BenchmarkFig4TransmissionEnergy regenerates Figure 4 (single-user
// transmission energy).
func BenchmarkFig4TransmissionEnergy(b *testing.B) { benchSingleUserEnergy(b, "transmission") }

// BenchmarkFig5TotalEnergy regenerates Figure 5 (single-user total energy).
func BenchmarkFig5TotalEnergy(b *testing.B) { benchSingleUserEnergy(b, "total") }

// multiUserBenchParams mirrors experiments.MultiUserParams.
func multiUserBenchParams() mec.Params {
	p := mec.Defaults()
	p.ServerCapacity = p.DeviceCompute * 5000
	return p
}

// benchMultiUserEnergy runs the Figures 6–8 workload for one metric.
func benchMultiUserEnergy(b *testing.B, metric string) {
	const poolSize = 8
	pool := make([]*graph.Graph, poolSize)
	for i := range pool {
		pool[i] = benchGraph(b, 1000)
	}
	params := multiUserBenchParams()
	for _, n := range benchUserCounts {
		for _, eng := range benchEngines() {
			eng := eng
			n := n
			b.Run(fmt.Sprintf("%s/users=%d", eng.Name(), n), func(b *testing.B) {
				users := make([]core.UserInput, n)
				for i := range users {
					users[i] = core.UserInput{Graph: pool[i%poolSize]}
				}
				b.ReportAllocs()
				b.ResetTimer()
				var ev *mec.Evaluation
				for i := 0; i < b.N; i++ {
					sol, err := core.Solve(context.Background(), users, core.Options{Engine: eng, Params: params})
					if err != nil {
						b.Fatal(err)
					}
					ev = sol.Eval
				}
				switch metric {
				case "local":
					b.ReportMetric(ev.LocalEnergy, "localE")
				case "transmission":
					b.ReportMetric(ev.TransmissionEnergy, "transmitE")
				default:
					b.ReportMetric(ev.Energy, "totalE")
				}
			})
		}
	}
}

// BenchmarkFig6MultiUserLocal regenerates Figure 6 (multi-user local
// energy).
func BenchmarkFig6MultiUserLocal(b *testing.B) { benchMultiUserEnergy(b, "local") }

// BenchmarkFig7MultiUserTransmission regenerates Figure 7 (multi-user
// transmission energy).
func BenchmarkFig7MultiUserTransmission(b *testing.B) { benchMultiUserEnergy(b, "transmission") }

// BenchmarkFig8MultiUserTotal regenerates Figure 8 (multi-user total
// energy).
func BenchmarkFig8MultiUserTotal(b *testing.B) { benchMultiUserEnergy(b, "total") }

// BenchmarkFig9RunningTime regenerates Figure 9: wall time of the solve per
// engine configuration and graph size — ns/op is the figure's y value.
func BenchmarkFig9RunningTime(b *testing.B) {
	configs := []struct {
		name string
		opts core.Options
	}{
		{"ours-serial", core.Options{Engine: core.SpectralEngine{}, Workers: 1}},
		{"maxflow", core.Options{Engine: core.MaxFlowEngine{}, Workers: 1}},
		{"kernighan-lin", core.Options{Engine: core.KLEngine{}, Workers: 1}},
		{"ours-parallel", core.Options{Engine: core.SpectralEngine{}, Workers: runtime.GOMAXPROCS(0)}},
	}
	for _, size := range benchSizes {
		for _, cfg := range configs {
			cfg := cfg
			size := size
			b.Run(fmt.Sprintf("%s/n=%d", cfg.name, size), func(b *testing.B) {
				g := benchGraph(b, size)
				users := []core.UserInput{{Graph: g}}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.Solve(context.Background(), users, cfg.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationNoCompression contrasts the pipeline with and without
// Algorithm 1 — the compression both accelerates the cut stage and changes
// its quality (highly coupled pairs can no longer be separated).
func BenchmarkAblationNoCompression(b *testing.B) {
	g := benchGraph(b, 1000)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"compressed", false}, {"raw", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var ev *mec.Evaluation
			for i := 0; i < b.N; i++ {
				sol, err := core.Solve(context.Background(), []core.UserInput{{Graph: g}},
					core.Options{DisableCompression: mode.disable})
				if err != nil {
					b.Fatal(err)
				}
				ev = sol.Eval
			}
			b.ReportMetric(ev.TransmissionEnergy, "transmitE")
			b.ReportMetric(ev.Objective, "objective")
		})
	}
}

// BenchmarkAblationSweepCut contrasts raw Fiedler sign splits with the
// sweep-cut refinement.
func BenchmarkAblationSweepCut(b *testing.B) {
	g := benchGraph(b, 1000)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"sweep", false}, {"sign-only", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var ev *mec.Evaluation
			for i := 0; i < b.N; i++ {
				sol, err := core.Solve(context.Background(), []core.UserInput{{Graph: g}},
					core.Options{Engine: core.SpectralEngine{DisableSweep: mode.disable}})
				if err != nil {
					b.Fatal(err)
				}
				ev = sol.Eval
			}
			b.ReportMetric(ev.TransmissionEnergy, "transmitE")
		})
	}
}

// BenchmarkAblationGreedy contrasts the full Algorithm 2 against stopping
// at the initial cut split.
func BenchmarkAblationGreedy(b *testing.B) {
	g := benchGraph(b, 1000)
	users := make([]core.UserInput, 64)
	for i := range users {
		users[i] = core.UserInput{Graph: g}
	}
	params := mec.Defaults()
	params.ServerCapacity = 2000 // contended: the greedy has work to do
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"greedy", false}, {"cut-split-only", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var obj float64
			for i := 0; i < b.N; i++ {
				sol, err := core.Solve(context.Background(), users, core.Options{Params: params, DisableGreedy: mode.disable})
				if err != nil {
					b.Fatal(err)
				}
				obj = sol.Eval.Objective
			}
			b.ReportMetric(obj, "objective")
		})
	}
}

// BenchmarkAblationEigen contrasts the dense (Householder + Sturm bisection +
// inverse iteration) and sparse Lanczos Fiedler paths on one Laplacian (the DenseCutoff design choice).
func BenchmarkAblationEigen(b *testing.B) {
	const n = 300
	g := benchGraph(b, n)
	comp := g.Components()[0]
	sub, err := g.InducedSubgraph(comp)
	if err != nil {
		b.Fatal(err)
	}
	nodes := sub.Nodes()
	index := make(map[graph.NodeID]int, len(nodes))
	for i, id := range nodes {
		index[id] = i
	}
	var wedges []matrix.WeightedEdge
	for _, e := range sub.Edges() {
		wedges = append(wedges, matrix.WeightedEdge{U: index[e.U], V: index[e.V], Weight: e.Weight})
	}
	lap, err := matrix.Laplacian(len(nodes), wedges)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		cutoff int
	}{{"dense", len(nodes) + 1}, {"lanczos-sparse", 1}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := eigen.Fiedler(lap, eigen.FiedlerOptions{DenseCutoff: mode.cutoff}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionReuse contrasts cold solves against Session solves that
// reuse the cached per-graph pipeline across population changes.
func BenchmarkSessionReuse(b *testing.B) {
	g := benchGraph(b, 1000)
	users := make([]core.UserInput, 32)
	for i := range users {
		users[i] = core.UserInput{Graph: g}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(context.Background(), users, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		sess := core.NewSession(core.Options{})
		if _, err := sess.Solve(context.Background(), users); err != nil {
			b.Fatal(err) // warm the cache outside the timer
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Solve(context.Background(), users); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSolveAllocs enforces the hot path's steady-state allocation
// discipline: once a Session has compiled a graph's pipeline, each further
// solve (greedy + evaluation over cached parts) must stay under a fixed
// allocation budget. Measured ~70 allocs/solve at n=1000 with the CSR
// pipeline and pooled scratch; the budget leaves headroom for runtime and
// map-iteration noise but fails loudly if per-solve work regresses to
// per-node or per-edge allocation.
func BenchmarkSolveAllocs(b *testing.B) {
	const allocBudget = 256
	g := benchGraph(b, 1000)
	users := []core.UserInput{{Graph: g}}
	sess := core.NewSession(core.Options{Workers: 1})
	if _, err := sess.Solve(context.Background(), users); err != nil {
		b.Fatal(err) // compile the pipeline outside the measurement
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sess.Solve(context.Background(), users); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportMetric(allocs, "allocs/solve")
	if allocs > allocBudget {
		b.Fatalf("steady-state Session.Solve = %.0f allocs, budget %d", allocs, allocBudget)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Solve(context.Background(), users); err != nil {
			b.Fatal(err)
		}
	}
}

// batchBenchGraphs generates `count` distinct serving-round graphs.
func batchBenchGraphs(b *testing.B, count, nodes, edges, comps int) []*graph.Graph {
	b.Helper()
	gs := make([]*graph.Graph, count)
	for i := range gs {
		g, err := netgen.Generate(netgen.Config{
			Nodes: nodes, Edges: edges, Components: comps, Seed: int64(benchSeed + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		gs[i] = g
	}
	return gs
}

// BenchmarkBatchSolveSmall is the batch solver's headline workload: one
// serving round of 64 independent n=100 requests, solved request-by-request
// (the pre-batching looped baseline) versus one BatchSolve — "fused", a name
// kept so results compare across commits, is one pass over the 64 graphs'
// own views with one worker pool and one scratch set. Both variants report
// graphs/sec; they run the same pipeline (a single Solve is a batch of one),
// so their ratio reads ≈ 1. Workers=1.
func BenchmarkBatchSolveSmall(b *testing.B) {
	const rounds = 64
	gs := batchBenchGraphs(b, rounds, 100, 200, 16)
	ctx := context.Background()
	opts := core.Options{Workers: 1}
	b.Run("looped/n=100x64", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, g := range gs {
				if _, err := core.Solve(ctx, []core.UserInput{{Graph: g}}, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(rounds)*float64(b.N)/b.Elapsed().Seconds(), "graphs/sec")
	})
	b.Run("fused/n=100x64", func(b *testing.B) {
		items := make([]core.BatchItem, rounds)
		for i, g := range gs {
			items[i] = core.BatchItem{Users: []core.UserInput{{Graph: g}}}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range core.BatchSolve(ctx, items, opts) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		b.ReportMetric(float64(rounds)*float64(b.N)/b.Elapsed().Seconds(), "graphs/sec")
	})
}

// BenchmarkBatchSolveLarge pits BatchSolve against Solve on one big n=5000
// instance: the batch path's overheads (round bookkeeping, per-part
// indices) must stay negligible when the round holds one graph.
func BenchmarkBatchSolveLarge(b *testing.B) {
	ctx := context.Background()
	opts := core.Options{Workers: 1}
	b.Run("single/n=5000", func(b *testing.B) {
		g := benchGraph(b, 5000)
		users := []core.UserInput{{Graph: g}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(ctx, users, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "graphs/sec")
	})
	b.Run("fused/n=5000", func(b *testing.B) {
		g := benchGraph(b, 5000)
		items := []core.BatchItem{{Users: []core.UserInput{{Graph: g}}}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range core.BatchSolve(ctx, items, opts) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "graphs/sec")
	})
}

// BenchmarkBatchRoundWorkersSpeedup measures what the worker pool buys one
// BatchSolve round: a round shaped like the benchmark's batch_small workload
// (64 n=100 graphs of 480 edges in 4 components, one item each; the
// package-level call caches nothing, so every round pipelines all 64) solved
// at Workers 1 against default Workers, in the same process. The two sides
// alternate which runs first, each timed alone with a garbage collection
// outside both windows, and their ratio is speedup_x: every phase of the
// round — compile, compress and cut, assembly, finish — on the pool against
// all of it on the caller. scripts/perf_gate.sh floors it at 1.43x. It
// needs two procs to mean anything, so it skips under GOMAXPROCS 1.
func BenchmarkBatchRoundWorkersSpeedup(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs GOMAXPROCS >= 2")
	}
	gs := batchBenchGraphs(b, 64, 100, 480, 4)
	items := make([]core.BatchItem, len(gs))
	for i, g := range gs {
		items[i] = core.BatchItem{Users: []core.UserInput{{Graph: g}}}
	}
	ctx := context.Background()
	round := func(opts core.Options) {
		for _, r := range core.BatchSolve(ctx, items, opts) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	// One untimed round a side grows the heap and starts the pool's
	// goroutine stacks, which otherwise land in the first timed rounds.
	round(core.Options{Workers: 1})
	round(core.Options{})
	var serial, pool time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for side := 0; side < 2; side++ {
			opts, acc := core.Options{Workers: 1}, &serial
			if (i+side)%2 == 1 {
				opts, acc = core.Options{}, &pool
			}
			runtime.GC()
			start := time.Now()
			round(opts)
			*acc += time.Since(start)
		}
	}
	b.ReportMetric(serial.Seconds()/pool.Seconds(), "speedup_x")
	b.ReportMetric(float64(serial.Nanoseconds())/float64(b.N), "serial_ns")
	b.ReportMetric(float64(pool.Nanoseconds())/float64(b.N), "pool_ns")
}

// BenchmarkAblationBalancedCut contrasts the min-cut and ratio-cut sweep
// objectives of the spectral engine.
func BenchmarkAblationBalancedCut(b *testing.B) {
	g := benchGraph(b, 1000)
	for _, mode := range []struct {
		name     string
		balanced bool
	}{{"min-cut", false}, {"ratio-cut", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var ev *mec.Evaluation
			for i := 0; i < b.N; i++ {
				sol, err := core.Solve(context.Background(), []core.UserInput{{Graph: g}},
					core.Options{Engine: core.SpectralEngine{Balanced: mode.balanced}})
				if err != nil {
					b.Fatal(err)
				}
				ev = sol.Eval
			}
			b.ReportMetric(ev.TransmissionEnergy, "transmitE")
			b.ReportMetric(ev.LocalEnergy, "localE")
		})
	}
}

// localizedEdgeDeltas picks ~frac of g's edges from a single component
// (BFS from the median node id, a representative mid-graph component) and
// returns a flip/flop pair of weight deltas: applying fwd then rev returns
// the graph to its original weights, so a chain alternating them keeps
// every SolveDelta doing real work on the same dirty component while every
// other component stays clean.
func localizedEdgeDeltas(b *testing.B, g *graph.Graph, frac float64) (fwd, rev *graph.Delta) {
	b.Helper()
	churn := int(float64(g.NumEdges()) * frac)
	if churn < 1 {
		churn = 1
	}
	nodes := g.Nodes()
	start := nodes[len(nodes)/2]
	visited := map[graph.NodeID]bool{start: true}
	queue := []graph.NodeID{start}
	var f, r []graph.EdgeDelta
	for len(queue) > 0 && len(f) < churn {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if !visited[v] {
				visited[v] = true
				queue = append(queue, v)
			}
			if u < v && len(f) < churn {
				w, _ := g.EdgeWeight(u, v)
				f = append(f, graph.EdgeDelta{U: u, V: v, Weight: w * 1.5})
				r = append(r, graph.EdgeDelta{U: u, V: v, Weight: w})
			}
		}
	}
	if len(f) < churn {
		b.Fatalf("component too small for %.1f%% churn: got %d of %d edges", frac*100, len(f), churn)
	}
	return &graph.Delta{SetEdges: f}, &graph.Delta{SetEdges: r}
}

// BenchmarkIncrementalResolve measures the dynamic-graph re-solve: a chain
// of 1% localized edge-churn deltas solved through Session.SolveDelta
// (clean components replay cached cuts, only the dirty component re-runs
// compression and Lanczos) versus cold Solve calls on the same mutated
// graphs. Each iteration runs a block of chained incremental steps and
// then cold-solves the identical graph sequence, accumulating each side's
// wall time, and reports the ratio as speedup_x — the paper's "online
// re-decision" cost compared to deciding from scratch.
// scripts/perf_gate.sh floors the n=5000 ratio at 3.75x.
func BenchmarkIncrementalResolve(b *testing.B) {
	ctx := context.Background()
	opts := core.Options{Workers: 1}
	for _, n := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := benchGraph(b, n)
			fwd, rev := localizedEdgeDeltas(b, g, 0.01)
			sess := core.NewSession(opts)
			users := []core.UserInput{{}}
			base, _, _, err := sess.SolveDelta(ctx, g, &graph.Delta{}, users, core.DeltaOptions{})
			if err != nil {
				b.Fatal(err)
			}
			const block = 4
			deltas := [2]*graph.Delta{fwd, rev}
			seq := make([]*graph.Graph, block)
			var inc, cold time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur := base
				start := time.Now()
				for r := 0; r < block; r++ {
					next, _, ds, err := sess.SolveDelta(ctx, cur, deltas[r%2], users, core.DeltaOptions{})
					if err != nil {
						b.Fatal(err)
					}
					if !ds.Incremental {
						b.Fatalf("step %d fell back to the cold path: %s", r, ds.FallbackReason)
					}
					seq[r] = next
					cur = next
				}
				inc += time.Since(start)
				runtime.GC()
				start = time.Now()
				for _, mg := range seq {
					if _, err := core.Solve(ctx, []core.UserInput{{Graph: mg}}, opts); err != nil {
						b.Fatal(err)
					}
				}
				cold += time.Since(start)
				runtime.GC()
				base = cur // stays warm: cur's state was captured on its own solve
			}
			b.ReportMetric(cold.Seconds()/inc.Seconds(), "speedup_x")
			// Both sides of the ratio, so a floor re-set after one side got
			// faster can be checked against the other not getting slower.
			b.ReportMetric(float64(inc.Nanoseconds())/float64(b.N), "inc_ns")
			b.ReportMetric(float64(cold.Nanoseconds())/float64(b.N), "cold_ns")
		})
	}
}

// BenchmarkMutateKeySpeedup measures how /v1/mutate keys its applied graph:
// Graph.Fingerprint over the map graph (the old key) against Session.Apply,
// which patches base's cached view with the delta, plus
// Applied.Fingerprint over that patched view (the key now; the patch is
// work the solve needs anyway, so the new side is charged for it). As in the
// benchmark's mutate_chain workload, eight Table I n=2000 lineages take
// turns, so no side re-walks the graph the iteration before it walked. Each
// iteration applies a 1% localized edge delta to a fresh clone of its
// lineage's warm base outside either timed side; the sides alternate which
// runs first, and their ratio is speedup_x. scripts/perf_gate.sh floors it
// at 0.88x.
func BenchmarkMutateKeySpeedup(b *testing.B) {
	const lineages = 8
	ctx := context.Background()
	sess := core.NewSession(core.Options{Workers: 1})
	var (
		bases  [lineages]*graph.Graph
		deltas [lineages]*graph.Delta
	)
	for k := range bases {
		cfg, err := netgen.TableIConfig(3, benchSeed+int64(k)) // row 3: n = 2000
		if err != nil {
			b.Fatal(err)
		}
		g, err := netgen.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		deltas[k], _ = localizedEdgeDeltas(b, g, 0.01)
		if bases[k], _, _, err = sess.SolveDelta(ctx, g, &graph.Delta{}, []core.UserInput{{}}, core.DeltaOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	var mapSide, viewSide time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base, d := bases[i%lineages], deltas[i%lineages]
		applied := base.Clone()
		if err := d.Apply(applied); err != nil {
			b.Fatal(err)
		}
		var want, got string
		var err error
		for side := 0; side < 2; side++ {
			start := time.Now()
			if (i/lineages+side)%2 == 0 {
				want, err = applied.Fingerprint()
				mapSide += time.Since(start)
			} else {
				var a *core.Applied
				if a, err = sess.Apply(base, d, applied, core.DeltaOptions{}); err == nil {
					got, err = a.Fingerprint()
				}
				viewSide += time.Since(start)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if got != want {
			b.Fatalf("patched view fingerprint %s, applied graph's %s", got, want)
		}
	}
	b.ReportMetric(mapSide.Seconds()/viewSide.Seconds(), "speedup_x")
	b.ReportMetric(float64(mapSide.Nanoseconds())/float64(b.N), "map_ns")
	b.ReportMetric(float64(viewSide.Nanoseconds())/float64(b.N), "view_ns")
}
