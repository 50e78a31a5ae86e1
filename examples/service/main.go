// Service: the online serving path, in process.
//
// The example stands up the copmecsd serving core (micro-batcher, solution
// cache, admission control) behind an httptest listener, then plays a burst
// of concurrent clients against it: 24 requests drawn from 4 distinct apps,
// so most requests are duplicates of an in-flight or already-solved twin.
// It prints each distinct decision, then the server stats showing how much
// work batching, singleflight and the cache absorbed. Run with:
//
//	go run ./examples/service
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"copmecs/internal/mec"
	"copmecs/internal/netgen"
	"copmecs/internal/serve"
)

func main() {
	// Four distinct apps; 24 clients round-robin over them, so each app is
	// requested six times — once solved, five collapsed or cached.
	var bodies [][]byte
	for i, nodes := range []int{40, 80, 120, 160} {
		g, err := netgen.Generate(netgen.Config{
			Nodes:      nodes,
			Edges:      nodes * 3,
			Components: 2,
			Seed:       int64(7 + i),
		})
		if err != nil {
			log.Fatalf("generate app %d: %v", i, err)
		}
		body, err := json.Marshal(map[string]any{"graph": g})
		if err != nil {
			log.Fatalf("marshal app %d: %v", i, err)
		}
		bodies = append(bodies, body)
	}

	// BatchWait only bounds how long a round waits for a request that is
	// already at the server (reading or decoding its body); a round never
	// waits for clients that are still connecting. The burst therefore lands
	// in as many rounds as its arrivals overlap into — one to four here, from
	// run to run — rather than always in one.
	srv, err := serve.New(serve.Config{
		Params:    mec.Defaults(),
		BatchWait: 20 * time.Millisecond,
		Logf:      log.Printf,
	})
	if err != nil {
		log.Fatalf("serve.New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.Start(ctx)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Burst: 24 concurrent clients.
	const clients = 24
	type reply struct {
		status int
		resp   serve.SolveResponse
	}
	replies := make([]reply, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := http.Post(ts.URL+"/v1/solve", "application/json",
				bytes.NewReader(bodies[i%len(bodies)]))
			if err != nil {
				log.Printf("client %d: %v", i, err)
				return
			}
			defer r.Body.Close()
			replies[i].status = r.StatusCode
			if r.StatusCode == http.StatusOK {
				if err := json.NewDecoder(r.Body).Decode(&replies[i].resp); err != nil {
					log.Printf("client %d: decode: %v", i, err)
				}
			}
		}(i)
	}
	wg.Wait()

	fmt.Printf("%-5s %-8s %10s %10s %12s %6s %6s %7s %7s\n",
		"app", "status", "localW", "remoteW", "objective", "batch", "k", "cached", "deduped")
	seen := make(map[int]bool)
	for i, r := range replies {
		app := i % len(bodies)
		if seen[app] && r.resp.Cached == replies[i-len(bodies)].resp.Cached &&
			r.resp.Deduped == replies[i-len(bodies)].resp.Deduped {
			continue // identical row; keep the table short
		}
		seen[app] = true
		fmt.Printf("%-5d %-8d %10.0f %10.0f %12.2f %6d %6d %7v %7v\n",
			app, r.status, r.resp.LocalWork, r.resp.RemoteWork, r.resp.BatchObjective,
			r.resp.BatchUsers, r.resp.ActiveUsers, r.resp.Cached, r.resp.Deduped)
	}

	// A second, sequential pass: every request is now a cache hit.
	for i := range bodies {
		r, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			log.Fatalf("repeat app %d: %v", i, err)
		}
		var resp serve.SolveResponse
		if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
			log.Fatalf("repeat app %d: decode: %v", i, err)
		}
		r.Body.Close()
		if !resp.Cached {
			log.Fatalf("repeat app %d: expected a cache hit", i)
		}
	}

	st := srv.Stats()
	fmt.Printf("\n%d requests: %d solved, %d deduped onto in-flight twins, %d cache hits\n",
		st.Requests, st.Solved, st.Deduped, st.Cache.Hits)
	fmt.Printf("solver ran %d rounds (%d closed early: nobody left to wait for) for %d users (largest round %d); mean latency %.2f ms\n",
		st.Batch.Rounds, st.Batch.EarlyCloses, st.Batch.Users, st.Batch.MaxUsers, st.Latency.MeanMs)

	if err := srv.Drain(context.Background()); err != nil {
		log.Fatalf("drain: %v", err)
	}
	fmt.Println("drained cleanly")
}
