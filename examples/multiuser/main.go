// Multi-user: 50 heterogeneous users share one edge server.
//
// Users run applications drawn from a small pool of generated function
// graphs, own devices of different speeds and reach the server over uplinks
// of different rates. The example solves the same
// instance with all three cut engines of the paper's evaluation and prints
// the comparison. Run with:
//
//	go run ./examples/multiuser
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"copmecs/internal/core"
	"copmecs/internal/graph"
	"copmecs/internal/mec"
	"copmecs/internal/netgen"
)

func main() {
	// Application pool: four distinct apps of different sizes.
	var pool []*graph.Graph
	for i, nodes := range []int{120, 200, 320, 500} {
		g, err := netgen.Generate(netgen.Config{
			Nodes:      nodes,
			Edges:      nodes * 3,
			Components: 2 + i,
			Seed:       int64(100 + i),
		})
		if err != nil {
			log.Fatalf("generate app %d: %v", i, err)
		}
		pool = append(pool, g)
	}

	// 50 users: round-robin apps, alternating device generations (older
	// devices compute at 60, newer at 140 work units per second), and uplink
	// rates spread geometrically over 25–400 units/s (cell edge to cell
	// centre), dealt out of order so rate does not track app or device.
	const minBW, maxBW = 25.0, 400.0
	users := make([]core.UserInput, 50)
	for i := range users {
		device := 60.0
		if i%2 == 1 {
			device = 140.0
		}
		rank := float64(i*7%len(users)) / float64(len(users)-1)
		users[i] = core.UserInput{
			Graph:         pool[i%len(pool)],
			DeviceCompute: device,
			Bandwidth:     minBW * math.Pow(maxBW/minBW, rank),
		}
	}

	params := mec.Defaults()
	params.ServerCapacity = 20000 // a well-provisioned but finite edge server

	fmt.Printf("%-15s %12s %12s %12s %12s %8s\n",
		"engine", "energy", "localE", "transmitE", "time", "moves")
	for _, engine := range []core.Engine{
		core.SpectralEngine{},
		core.MaxFlowEngine{},
		core.KLEngine{},
	} {
		sol, err := core.Solve(context.Background(), users, core.Options{Engine: engine, Params: params})
		if err != nil {
			log.Fatalf("solve with %s: %v", engine.Name(), err)
		}
		fmt.Printf("%-15s %12.2f %12.2f %12.2f %12.2f %8d\n",
			engine.Name(), sol.Eval.Energy, sol.Eval.LocalEnergy,
			sol.Eval.TransmissionEnergy, sol.Eval.Time, sol.Stats.GreedyMoves)
	}

	// Detail for the spectral scheme: how the placement differs between two
	// users running the same app on the same device generation over
	// different uplinks (users 0 and 4 share pool[0] and the older device).
	sol, err := core.Solve(context.Background(), users, core.Options{Params: params})
	if err != nil {
		log.Fatalf("solve: %v", err)
	}
	slow, fast := sol.Placements[0], sol.Placements[4]
	fmt.Printf("\nspectral placement, same app and device: at %.0f units/s uplink %d/%d functions offload, at %.0f units/s %d/%d\n",
		users[0].Bandwidth, len(slow.Remote), slow.Graph.NumNodes(),
		users[4].Bandwidth, len(fast.Remote), fast.Graph.NumNodes())
	fmt.Printf("server: %d of %d users offload work (k drives waiting time)\n",
		sol.Eval.ActiveUsers, len(users))
	fmt.Printf("uplink rates across the users: %.0f to %.0f units/s (%.0fx spread)\n",
		minBW, maxBW, maxBW/minBW)
}
