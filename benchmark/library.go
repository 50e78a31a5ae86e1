package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"copmecs/internal/core"
	"copmecs/internal/eigen"
	"copmecs/internal/graph"
	"copmecs/internal/lpa"
	"copmecs/internal/matrix"
	"copmecs/internal/mec"
	"copmecs/internal/netgen"
	"copmecs/internal/spectral"
)

// libSpec is a library workload: one caller handing the solver fresh graphs.
type libSpec struct {
	// config is the generator configuration of the i-th graph of a run.
	config func(graphSeed int64) netgen.Config
	// round is the graphs per operation: 1 is a core.Solve call with
	// Workers 1 (the paper's serial mode), more is one package-level
	// core.BatchSolve round with default Workers.
	round int
	// verifyRound is the size of the BatchSolve ≡ looped Solve check.
	verifyRound int
}

// objectiveOps is how many leading operations core.objective_sum covers; a
// fixed count, so the sum repeats exactly whatever the machine's speed.
const objectiveOps = 16

// graphSeed spreads run seeds apart so two runs share no graph.
func graphSeed(seed int64, i int) int64 { return seed<<24 + int64(i) }

// heapAllocBytes reads the process's cumulative allocated bytes without
// stopping the world (runtime.ReadMemStats would, around every operation).
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// freshItems generates one operation's graphs. Every call builds new
// *graph.Graph objects, so no latched view or session state carries over
// from an earlier operation.
func (sp libSpec) freshItems(seed int64, op int) ([]core.BatchItem, error) {
	items := make([]core.BatchItem, sp.round)
	for k := range items {
		g, err := netgen.Generate(sp.config(graphSeed(seed, op*sp.round+k)))
		if err != nil {
			return nil, err
		}
		items[k] = core.BatchItem{Users: []core.UserInput{{Graph: g}}}
	}
	return items, nil
}

// solve is the measured call.
func (sp libSpec) solve(ctx context.Context, items []core.BatchItem) ([]*core.Solution, error) {
	if sp.round == 1 {
		sol, err := core.Solve(ctx, items[0].Users, core.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		return []*core.Solution{sol}, nil
	}
	sols := make([]*core.Solution, len(items))
	for i, r := range core.BatchSolve(ctx, items, core.Options{}) {
		if r.Err != nil {
			return nil, r.Err
		}
		sols[i] = r.Solution
	}
	return sols, nil
}

// soundSolution is the per-operation invariant check.
func soundSolution(sol *core.Solution) bool {
	pl := sol.Placements[0]
	st := pl.State()
	total := pl.Graph.TotalNodeWeight()
	if math.Abs(st.LocalWork+st.RemoteWork-total) > 1e-9*math.Max(1, total) {
		return false
	}
	for id := range pl.Remote {
		if !pl.Graph.HasNode(id) {
			return false
		}
	}
	return true
}

// verify checks BatchSolve ≡ looped Solve on one round of fresh graphs.
func (sp libSpec) verify(ctx context.Context, seed int64, g *gate) error {
	gen := libSpec{config: sp.config, round: sp.verifyRound}
	batch, err := gen.freshItems(seed, -1)
	if err != nil {
		return err
	}
	loop, err := gen.freshItems(seed, -1)
	if err != nil {
		return err
	}
	for i, r := range core.BatchSolve(ctx, batch, core.Options{}) {
		if r.Err != nil {
			return r.Err
		}
		sol, err := core.Solve(ctx, loop[i].Users, core.Options{Workers: 1})
		if err != nil {
			return err
		}
		got, err := solutionDecision(r.Solution, 0)
		if err != nil {
			return err
		}
		want, err := solutionDecision(sol, 0)
		if err != nil {
			return err
		}
		g.match(fmt.Sprintf("batch item %d", i), got, want)
	}
	return nil
}

// stages accumulates the staged replay of the traced pass: the same public
// functions the solve calls, on fresh copies of the graphs it saw, each timed
// on its own.
type stages struct {
	compile, fuse, fingerprint, compress, bisect, fiedler, evaluate time.Duration
	fiedlerByDim                                                    [4]time.Duration // ≤32, 33–64, 65–96, >96
	callsGt96, dimMax                                               int
	lpaRounds, components                                           int
	nodesBefore, nodesAfter                                         int
}

func dimBucket(k int) int {
	switch {
	case k <= 32:
		return 0
	case k <= 64:
		return 1
	case k <= 96:
		return 2
	}
	return 3
}

// replay runs the stages for one operation's graphs.
func (st *stages) replay(rec *recorder, sp libSpec, items []core.BatchItem) error {
	gs := make([]*graph.Graph, len(items))
	for i, it := range items {
		gs[i] = it.Users[0].Graph
	}
	var view *graph.CSR
	workers, flat := 1, false
	if sp.round == 1 {
		st.compile += rec.timed(spanCompile, func() { view = gs[0].Compile() })
	} else {
		// BatchSolve's defaults: GOMAXPROCS workers, the flat eigen kernel.
		workers, flat = runtime.GOMAXPROCS(0), true
		st.fuse += rec.timed(spanFuse, func() { view = graph.Fuse(gs).View })
	}
	var (
		cr  *lpa.CSRResult
		err error
	)
	st.compress += rec.timed(spanCompress, func() { cr, err = lpa.CompressCSR(view, lpa.Options{Workers: workers}) })
	if err != nil {
		return err
	}
	st.nodesBefore += cr.NodesBefore
	st.nodesAfter += cr.NodesAfter
	for _, r := range cr.Rounds {
		st.lpaRounds += r
	}
	st.components += len(cr.Rounds)

	var vecBuf []float64
	sopts := spectral.Options{Eigen: eigen.FiedlerOptions{Flat: flat}}
	for ci := 0; ci+1 < len(cr.CompOff); ci++ {
		base, end := cr.CompOff[ci], cr.CompOff[ci+1]
		k := int(end - base)
		if k < 2 {
			continue
		}
		// The compressed component in local ids, as core hands it to spectral.
		lo := cr.Off[base]
		off := make([]int32, k+1)
		for li := range off {
			off[li] = cr.Off[int(base)+li] - lo
		}
		nnz := int(off[k])
		tgt := make([]int32, nnz)
		var edges []matrix.WeightedEdge
		wts := cr.W[lo : int(lo)+nnz]
		for u := 0; u < k; u++ {
			for e := off[u]; e < off[u+1]; e++ {
				tgt[e] = cr.Tgt[int(lo)+int(e)] - base
				if v := int(tgt[e]); v > u {
					edges = append(edges, matrix.WeightedEdge{U: u, V: v, Weight: wts[e]})
				}
			}
		}
		sides := make([]int32, k)
		st.bisect += rec.timed(spanBisect, func() { _, _, err = spectral.BisectCSRInto(off, tgt, wts, sides, sopts) })
		if err != nil {
			return err
		}
		// The eigensolve alone, on the same component's Laplacian.
		lap, err := matrix.Laplacian(k, edges)
		if err != nil {
			return err
		}
		eopts := sopts.Eigen
		eopts.VecBuf = &vecBuf
		d := rec.timed(spanFiedler, func() { _, _, err = eigen.Fiedler(lap, eopts) })
		if err != nil {
			return err
		}
		st.fiedler += d
		st.fiedlerByDim[dimBucket(k)] += d
		if k > 96 {
			st.callsGt96++
		}
		if k > st.dimMax {
			st.dimMax = k
		}
	}
	st.fingerprint += rec.timed(spanFP, func() { _, err = gs[0].Fingerprint() })
	return err
}

// runLibrary runs a library workload. The returned values are the
// end-to-end metrics, or the per-layer ones when env.traced.
func runLibrary(ctx context.Context, sp libSpec, env env) (*outcome, error) {
	out := &outcome{values: make(map[string]float64)}

	// Set-up is what a caller pays before the first measured call: building
	// one operation's graphs and a first solve that faults the code in and
	// fills the solver's pools.
	cal := newCalibrator()
	setups := make([]float64, librarySetups)
	for i := range setups {
		var err error
		setups[i], err = cal.timeSetup(func() error {
			items, err := sp.freshItems(env.seed, -2-i)
			if err != nil {
				return err
			}
			_, err = sp.solve(ctx, items)
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	g := newGate()
	if err := sp.verify(ctx, env.seed, g); err != nil {
		return nil, err
	}

	var (
		rec        = newRecorder()
		st         stages
		lat        []time.Duration // as measured
		began      []time.Time
		allocBytes uint64
		genTime    time.Duration
		greedy     time.Duration
		pipeline   time.Duration
		moves      int
		parts      int
		objective  float64
	)
	op := 0
	measure := func(window time.Duration, keep bool) error {
		start := time.Now()
		for time.Since(start) < window {
			genStart := time.Now()
			items, err := sp.freshItems(env.seed, op)
			if err != nil {
				return err
			}
			gen := time.Since(genStart)
			rec.req.Store(int64(op))

			a0, t0 := heapAllocBytes(), time.Now()
			sols, err := sp.solve(ctx, items)
			t1 := time.Now()
			a1 := heapAllocBytes()
			cal.tick()

			thisOp := op
			op++
			if !keep {
				continue
			}
			out.attempted++
			if err != nil {
				out.failed++
				continue
			}
			ok := true
			for _, sol := range sols {
				ok = ok && soundSolution(sol)
			}
			if !ok {
				out.failed++
				continue
			}
			lat = append(lat, t1.Sub(t0))
			began = append(began, t0)
			allocBytes += a1 - a0
			genTime += gen
			for i, sol := range sols {
				greedy += sol.Stats.GreedyTime
				moves += sol.Stats.GreedyMoves
				parts += sol.Stats.Parts
				if thisOp*sp.round+i < objectiveOps {
					objective += sol.Eval.Objective
				}
			}
			pipeline += sols[0].Stats.PipelineTime
			if !env.traced {
				continue
			}
			rec.add(spanSolve, t0, t1)
			for _, sol := range sols {
				var err error
				st.evaluate += rec.timed(spanEvaluate, func() { _, err = mec.EvaluatePlacements(mec.Defaults(), sol.Placements) })
				if err != nil {
					return err
				}
			}
			again, err := sp.freshItems(env.seed, thisOp)
			if err != nil {
				return err
			}
			if err := st.replay(rec, sp, again); err != nil {
				return err
			}
		}
		return nil
	}
	if err := measure(warmup(env.window), false); err != nil {
		return nil, err
	}
	op = 0
	windowStart := time.Now()
	if err := measure(env.window, true); err != nil {
		return nil, err
	}
	elapsed := time.Since(windowStart)

	out.correct = g.mismatches == 0 && out.failed == 0
	out.digest, out.note = g.digest(), g.firstDiff
	ops := float64(len(lat))
	graphs := ops * float64(sp.round)
	sorted := msSorted(lat)
	var busy, busyRef time.Duration
	out.computing = 1 // a library call waits on no timer
	ref := make([]time.Duration, len(lat))
	for i, d := range lat {
		busy += d
		ref[i] = cal.atReference(began[i], d, out.computing)
		busyRef += ref[i]
	}
	out.samples = len(lat)
	out.raw(sorted, cal)

	if !env.traced {
		// Graphs solved per second the caller waited on the solver; the
		// time it spent generating inputs is not the solver's.
		out.endToEnd(msSorted(ref), ratio(graphs, busyRef.Seconds()), ratio(float64(allocBytes)/1024, graphs), setups)
		return out, nil
	}

	v := out.values
	perOp := func(d time.Duration) float64 { return ratio(us(d), ops) }
	v["graph.compile_us"] = perOp(st.compile)
	v["graph.fuse_us"] = perOp(st.fuse)
	v["graph.fingerprint_us"] = perOp(st.fingerprint)
	v["lpa.compress_us"] = perOp(st.compress)
	v["lpa.rounds_mean"] = ratio(float64(st.lpaRounds), float64(st.components))
	v["lpa.nodes_after_ratio"] = ratio(float64(st.nodesAfter), float64(st.nodesBefore))
	v["spectral.bisect_us"] = perOp(st.bisect)
	v["spectral.self_us"] = perOp(st.bisect - st.fiedler)
	v["eigen.fiedler_us"] = perOp(st.fiedler)
	v["eigen.fiedler_us_dim_le32"] = perOp(st.fiedlerByDim[0])
	v["eigen.fiedler_us_dim_33_64"] = perOp(st.fiedlerByDim[1])
	v["eigen.fiedler_us_dim_65_96"] = perOp(st.fiedlerByDim[2])
	v["eigen.fiedler_us_dim_gt96"] = perOp(st.fiedlerByDim[3])
	v["eigen.calls_dim_gt96"] = ratio(float64(st.callsGt96), ops)
	v["eigen.dim_max"] = float64(st.dimMax)
	v["core.solve_us"] = perOp(busy)
	v["core.pipeline_us"] = perOp(pipeline)
	v["core.greedy_us"] = perOp(greedy)
	v["core.self_us"] = perOp(busy - st.compile - st.fuse - st.compress - st.bisect)
	v["core.greedy_moves"] = ratio(float64(moves), ops)
	v["core.parts"] = ratio(float64(parts), ops)
	v["core.objective_sum"] = objective
	v["mec.evaluate_us"] = perOp(st.evaluate)
	out.clientDiagnostics(sorted)
	v["client.loadgen_busy_ratio"] = ratio(genTime.Seconds(), elapsed.Seconds())
	v["trace.coverage"] = ratio(us(st.compile+st.fuse+st.compress+st.bisect+greedy+st.evaluate), us(busy))
	// The solve itself is not instrumented, so tracing cannot slow it.
	v["trace.overhead_ratio"] = 1
	link(rec.spans)
	out.spans, out.dropped = rec.spans, rec.dropped
	return out, nil
}
