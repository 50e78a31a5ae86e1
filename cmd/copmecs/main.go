// Command copmecs solves a multi-user computation-offloading instance: it
// loads or generates function data-flow graphs, runs the paper's pipeline
// (compression → minimum cut → greedy scheme generation) and prints the
// offloading scheme with its energy/time evaluation.
//
// Usage:
//
//	copmecs -nodes 1000 -edges 4912 -users 20 -engine spectral
//	copmecs -input app.json -engine maxflow -capacity 5000
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"copmecs/internal/core"
	"copmecs/internal/graph"
	"copmecs/internal/mec"
	"copmecs/internal/netgen"
	"copmecs/internal/sim"
)

func main() {
	// Ctrl-C / SIGTERM cancels in-flight solves cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "copmecs:", err)
		os.Exit(1)
	}
}

// run buffers stdout so report writes share one latched error, surfaced by
// the final Flush.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	bw := bufio.NewWriter(stdout)
	err := runBuffered(ctx, args, bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return err
}

func runBuffered(ctx context.Context, args []string, stdout *bufio.Writer) error {
	fs := flag.NewFlagSet("copmecs", flag.ContinueOnError)
	var (
		input      = fs.String("input", "", "graph file (json or binary; default: generate)")
		nodes      = fs.Int("nodes", 250, "generated graph: number of functions")
		edges      = fs.Int("edges", 1214, "generated graph: number of edges")
		components = fs.Int("components", 4, "generated graph: number of components")
		seed       = fs.Int64("seed", 1, "generator seed")
		users      = fs.Int("users", 1, "number of users running the application")
		engineName = fs.String("engine", "spectral", "cut engine: spectral, maxflow, kernighan-lin, stoer-wagner")
		capacity   = fs.Float64("capacity", 0, "edge server capacity (0 = default)")
		device     = fs.Float64("device", 0, "device compute (0 = default)")
		bandwidth  = fs.Float64("bandwidth", 0, "wireless bandwidth (0 = default)")
		noCompress = fs.Bool("no-compress", false, "skip the label-propagation compression")
		noGreedy   = fs.Bool("no-greedy", false, "stop at the initial cut split")
		workers    = fs.Int("workers", 0, "cut-job parallelism (0 = all cores, 1 = serial)")
		verbose    = fs.Bool("v", false, "print the per-node placement")
		dotOut     = fs.String("dot", "", "write user 0's placement as Graphviz DOT to this file")
		replay     = fs.Bool("sim", false, "replay the scheme in the discrete-event queue simulator")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *users < 1 {
		return fmt.Errorf("users = %d, want ≥ 1", *users)
	}

	g, err := loadOrGenerate(*input, *nodes, *edges, *components, *seed)
	if err != nil {
		return err
	}

	engine, err := core.EngineByName(*engineName)
	if err != nil {
		return err
	}
	params := mec.Defaults()
	if *capacity > 0 {
		params.ServerCapacity = *capacity
	}
	if *device > 0 {
		params.DeviceCompute = *device
	}
	if *bandwidth > 0 {
		params.Bandwidth = *bandwidth
	}

	userInputs := make([]core.UserInput, *users)
	for i := range userInputs {
		userInputs[i] = core.UserInput{Graph: g}
	}
	sol, err := core.Solve(ctx, userInputs, core.Options{
		Engine:             engine,
		Params:             params,
		DisableCompression: *noCompress,
		DisableGreedy:      *noGreedy,
		Workers:            *workers,
	})
	if err != nil {
		return err
	}
	printSolution(stdout, g, sol, *verbose)
	if *replay {
		if err := replayInSimulator(stdout, params, sol); err != nil {
			return err
		}
	}
	if *dotOut != "" && len(sol.Placements) > 0 {
		if err := writeDOTFile(*dotOut, g, sol.Placements[0].Remote); err != nil {
			return err
		}
	}
	return nil
}

// writeDOTFile renders the placement to path, reporting a failed close —
// the write may only hit the disk at close time.
func writeDOTFile(path string, g *graph.Graph, highlight map[graph.NodeID]bool) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	err = g.WriteDOT(f, graph.DOTOptions{Name: "copmecs", Highlight: highlight})
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close %s: %w", path, cerr)
	}
	return err
}

// replayInSimulator runs the solved scheme's offloaded half through the
// discrete-event queue and prints simulated vs analytic waiting times. The
// *bufio.Writer destination latches write errors for run's final Flush.
func replayInSimulator(w *bufio.Writer, params mec.Params, sol *core.Solution) error {
	jobs := make([]sim.Job, len(sol.Placements))
	for i, pl := range sol.Placements {
		st := pl.State()
		jobs[i] = sim.Job{User: i, RemoteWork: st.RemoteWork, CutData: st.CutWeight}
	}
	cfg := sim.Config{ServerCapacity: params.ServerCapacity, Bandwidth: params.Bandwidth}
	psRes, err := sim.Run(cfg, jobs)
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	cfg.Discipline = sim.FIFO
	fifoRes, err := sim.Run(cfg, jobs)
	if err != nil {
		return fmt.Errorf("simulate fifo: %w", err)
	}
	var psWait, fifoWait, makespan float64
	for i := range psRes {
		psWait += psRes[i].WaitTime
		fifoWait += fifoRes[i].WaitTime
		if psRes[i].Finish > makespan {
			makespan = psRes[i].Finish
		}
	}
	fmt.Fprintf(w, "simulated:         PS wait %.4f (model %.4f), FIFO wait %.4f, makespan %.4f\n",
		psWait, sol.Eval.WaitTime, fifoWait, makespan)
	return nil
}

func loadOrGenerate(input string, nodes, edges, components int, seed int64) (*graph.Graph, error) {
	if input == "" {
		return netgen.Generate(netgen.Config{
			Nodes: nodes, Edges: edges, Components: components, Seed: seed,
		})
	}
	data, err := os.ReadFile(input)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", input, err)
	}
	var g graph.Graph
	if jerr := json.Unmarshal(data, &g); jerr == nil {
		return &g, nil
	}
	bg, berr := graph.ReadBinary(bytes.NewReader(data))
	if berr != nil {
		return nil, fmt.Errorf("decode %s as json or binary: %w", input, berr)
	}
	return bg, nil
}

// printSolution writes the scheme summary; the *bufio.Writer destination
// latches write errors for run's final Flush.
func printSolution(w *bufio.Writer, g *graph.Graph, sol *core.Solution, verbose bool) {
	fmt.Fprintf(w, "engine:            %s\n", sol.Stats.EngineName)
	fmt.Fprintf(w, "users:             %d\n", sol.Stats.Users)
	fmt.Fprintf(w, "graph:             %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	fmt.Fprintf(w, "compressed:        %d nodes, %d edges (per all users)\n",
		sol.Stats.NodesAfter, sol.Stats.EdgesAfter)
	fmt.Fprintf(w, "parts:             %d (greedy moved %d in %d iterations)\n",
		sol.Stats.Parts, sol.Stats.GreedyMoves, sol.Stats.GreedyIterations)
	fmt.Fprintf(w, "initial objective: %.4f\n", sol.InitialObjective)
	fmt.Fprintf(w, "final objective:   %.4f\n", sol.Eval.Objective)
	fmt.Fprintf(w, "energy:            %.4f (local %.4f + transmission %.4f)\n",
		sol.Eval.Energy, sol.Eval.LocalEnergy, sol.Eval.TransmissionEnergy)
	fmt.Fprintf(w, "time:              %.4f (local %.4f, remote %.4f incl. wait %.4f, tx %.4f)\n",
		sol.Eval.Time, sol.Eval.LocalTime, sol.Eval.RemoteTime, sol.Eval.WaitTime, sol.Eval.TransmissionTime)
	if len(sol.Placements) > 0 {
		remote := len(sol.Placements[0].Remote)
		fmt.Fprintf(w, "user 0 placement:  %d/%d functions offloaded\n", remote, g.NumNodes())
		if verbose {
			var local, rem []graph.NodeID
			for _, id := range g.Nodes() {
				if sol.Placements[0].Remote[id] {
					rem = append(rem, id)
				} else {
					local = append(local, id)
				}
			}
			fmt.Fprintf(w, "  local:  %v\n", local)
			fmt.Fprintf(w, "  remote: %v\n", rem)
		}
	}
}
