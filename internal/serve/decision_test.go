package serve

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"copmecs/internal/core"
	"copmecs/internal/graph"
	"copmecs/internal/mec"
	"copmecs/internal/netgen"
)

// TestCacheHitReplaysTheRoundSizeItWasSolvedAt pins what a hit promises
// today (ROADMAP item 1a): the cache key carries nothing about the round, so a
// graph first solved beside one other user is answered ever after with that
// round's two-user cost vector, however alone the asker is. The one-user cold
// solve the benchmark's oracle runs (offlineDecision) disagrees with the hit
// in exactly the contention terms; the partition and the work split do not
// depend on k on this graph. DESIGN §8 records the finding.
func TestCacheHitReplaysTheRoundSizeItWasSolvedAt(t *testing.T) {
	s := startSettleServer(t, Config{})
	a := settleGraph(t, 0)
	other, gate := hold(s, "/v1/solve", solveBody(t, settleGraph(t, 1)))
	first := post(s, "/v1/solve", bytes.NewReader(solveBody(t, a)))
	waitParked(t, s, 1) // a is queued; its round is open on the held request
	close(gate.release)
	var solved SolveResponse
	if sa, sb := first.wait(t, &solved), other.wait(t, nil); sa != http.StatusOK || sb != http.StatusOK {
		t.Fatalf("statuses %d / %d", sa, sb)
	}
	if solved.Cached || solved.BatchUsers != 2 || solved.ActiveUsers != 2 {
		t.Fatalf("first solve: cached %v batch_users %d active_users %d, want a fresh round of 2",
			solved.Cached, solved.BatchUsers, solved.ActiveUsers)
	}

	var hit SolveResponse
	if st := post(s, "/v1/solve", bytes.NewReader(solveBody(t, a))).wait(t, &hit); st != http.StatusOK {
		t.Fatalf("repeat: status %d", st)
	}
	if !hit.Cached || hit.ActiveUsers != 2 || hit.BatchUsers != 2 {
		t.Fatalf("repeat alone: cached %v active_users %d batch_users %d, want the cached round of 2",
			hit.Cached, hit.ActiveUsers, hit.BatchUsers)
	}
	if hit.Cost != solved.Cost {
		t.Errorf("hit cost %+v differs from the round it replays %+v", hit.Cost, solved.Cost)
	}

	sol, err := core.Solve(context.Background(), []core.UserInput{{Graph: a}}, core.Options{Params: s.cfg.Params})
	if err != nil {
		t.Fatal(err)
	}
	alone := decisionFor(hit.Graph, sol, 0, 1)
	if alone.ActiveUsers != 1 {
		t.Fatalf("one-user oracle has %d active users", alone.ActiveUsers)
	}
	oracle := solveResponseFor(alone, false, false)
	t.Logf("hit    (k=2): %+v", hit.Cost)
	t.Logf("oracle (k=1): %+v", oracle.Cost)

	// k-dependent: the server share and what follows from it.
	if hit.Cost.ServerShare*2 != oracle.Cost.ServerShare {
		t.Errorf("server_share: hit %v, oracle %v; want half", hit.Cost.ServerShare, oracle.Cost.ServerShare)
	}
	if hit.Cost.WaitTime <= oracle.Cost.WaitTime || hit.Cost.RemoteTime <= oracle.Cost.RemoteTime {
		t.Errorf("wait/remote time: hit %v/%v not above oracle %v/%v",
			hit.Cost.WaitTime, hit.Cost.RemoteTime, oracle.Cost.WaitTime, oracle.Cost.RemoteTime)
	}
	// k-independent here: the partition, hence the split, the cut and the
	// device- and radio-side costs.
	if !slices.Equal(hit.Remote, oracle.Remote) {
		t.Errorf("remote: hit %v, oracle %v", hit.Remote, oracle.Remote)
	}
	same := map[string][2]float64{
		"local_work":          {hit.LocalWork, oracle.LocalWork},
		"remote_work":         {hit.RemoteWork, oracle.RemoteWork},
		"cut_weight":          {hit.CutWeight, oracle.CutWeight},
		"local_time":          {hit.Cost.LocalTime, oracle.Cost.LocalTime},
		"local_energy":        {hit.Cost.LocalEnergy, oracle.Cost.LocalEnergy},
		"transmission_time":   {hit.Cost.TransmissionTime, oracle.Cost.TransmissionTime},
		"transmission_energy": {hit.Cost.TransmissionEnergy, oracle.Cost.TransmissionEnergy},
	}
	for name, v := range same {
		if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
			t.Errorf("%s: hit %v, oracle %v", name, v[0], v[1])
		}
	}
	checkIdle(t, s)
}

// TestDecisionIsPlacementStateBitForBit holds the Decision's work split and
// cut weight — read off the solver's own evaluation — to Placement.State(),
// the graph walk it replaced, on every shape of solve the server runs.
func TestDecisionIsPlacementStateBitForBit(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, sol *core.Solution) {
		t.Helper()
		for u, pl := range sol.Placements {
			dec, st := decisionFor("fp", sol, u, len(sol.Placements)), pl.State()
			for name, v := range map[string][2]float64{
				"local_work":  {dec.LocalWork, st.LocalWork},
				"remote_work": {dec.RemoteWork, st.RemoteWork},
				"cut_weight":  {dec.CutWeight, st.CutWeight},
			} {
				if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
					t.Errorf("user %d %s: decision %v, State() %v", u, name, v[0], v[1])
				}
			}
			if len(dec.Remote) != len(pl.Remote) {
				t.Errorf("user %d: %d remote ids for %d remote nodes", u, len(dec.Remote), len(pl.Remote))
			}
			for k := 1; k < len(dec.Remote); k++ {
				if dec.Remote[k-1] >= dec.Remote[k] {
					t.Fatalf("user %d: remote not strictly ascending at %d: %v", u, k, dec.Remote)
				}
			}
		}
	}
	solve := func(t *testing.T, users ...core.UserInput) *core.Solution {
		t.Helper()
		sol, err := core.Solve(ctx, users, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	shared := chainGraph(t, 40)

	t.Run("lone user", func(t *testing.T) {
		check(t, solve(t, core.UserInput{Graph: chainGraph(t, 25)}))
	})
	t.Run("fixed local work and overrides", func(t *testing.T) {
		check(t, solve(t, core.UserInput{Graph: chainGraph(t, 25), FixedLocalWork: 333.25, DeviceCompute: 35, Bandwidth: 7.5}))
	})
	t.Run("three users, two sharing a graph", func(t *testing.T) {
		check(t, solve(t, core.UserInput{Graph: shared}, core.UserInput{Graph: testGraph(t, 3), FixedLocalWork: 10}, core.UserInput{Graph: shared, DeviceCompute: 25}))
	})
	t.Run("session-cached graph", func(t *testing.T) {
		sess := core.NewSession(core.Options{})
		for range 2 { // the second solve finds the graph's pipeline cached
			sol, err := sess.Solve(ctx, []core.UserInput{{Graph: shared, FixedLocalWork: 5}})
			if err != nil {
				t.Fatal(err)
			}
			check(t, sol)
		}
	})
	t.Run("mutate reply", func(t *testing.T) {
		s := newTestServer(t, Config{})
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		s.Start(sctx)
		base := chainGraph(t, 60)
		if st := post(s, "/v1/solve", bytes.NewReader(solveBody(t, base))).wait(t, nil); st != http.StatusOK {
			t.Fatalf("prime: status %d", st)
		}
		fp := fingerprintOf(t, base)
		mirror := base.Clone()
		for step, d := range []*graph.Delta{
			{SetNodeWeights: []graph.NodeDelta{{ID: 3, Weight: 410}}},
			{SetEdges: []graph.EdgeDelta{{U: 10, V: 11, Weight: 77}}, RemoveEdges: []graph.EdgePair{{U: 30, V: 31}}},
		} {
			var resp MutateResponse
			if st := post(s, "/v1/mutate", bytes.NewReader(mutateBody(t, fp, d))).wait(t, &resp); st != http.StatusOK {
				t.Fatalf("mutate %d: status %d", step, st)
			}
			if err := d.Apply(mirror); err != nil {
				t.Fatal(err)
			}
			if !resp.Incremental {
				t.Errorf("mutate %d: incremental = %v", step, resp.Incremental)
			}
			st := solve(t, core.UserInput{Graph: mirror}).Placements[0].State()
			want := mec.UserState{LocalWork: resp.LocalWork, RemoteWork: resp.RemoteWork, CutWeight: resp.CutWeight}
			if math.Float64bits(st.LocalWork) != math.Float64bits(want.LocalWork) ||
				math.Float64bits(st.RemoteWork) != math.Float64bits(want.RemoteWork) ||
				math.Float64bits(st.CutWeight) != math.Float64bits(want.CutWeight) {
				t.Errorf("mutate %d: reply %+v, State() of a cold solve %+v", step, want, st)
			}
			if !slices.IsSorted(resp.Remote) {
				t.Errorf("mutate %d: remote not ascending: %v", step, resp.Remote)
			}
			fp = resp.Graph
		}
	})
}

// TestDecisionRemoteMatchesPlacement holds the remote array decisionFor reads
// off the user's offloaded parts to the sorted keys of the placement's Remote
// map — what it used to range and sort — on random multi-user rounds: users
// sharing a graph, multi-component graphs whose parts' id runs interleave,
// multiway splits, and a user the greedy leaves nothing offloaded.
func TestDecisionRemoteMatchesPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var pool []*graph.Graph
	for i := 0; i < 6; i++ {
		n := 30 + rng.Intn(120)
		g, err := netgen.Generate(netgen.Config{Nodes: n, Edges: 3 * n, Components: 1 + rng.Intn(6), Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, g)
	}
	pool = append(pool, graph.New(0)) // an empty graph offloads nothing
	empties, offloaders := 0, 0
	for round := 0; round < 24; round++ {
		users := make([]core.UserInput, 1+rng.Intn(6))
		for i := range users {
			users[i] = core.UserInput{Graph: pool[rng.Intn(len(pool))]}
			if rng.Intn(3) == 0 {
				// A device this fast keeps every part at home.
				users[i].DeviceCompute = 1e9
			}
		}
		sol, err := core.Solve(context.Background(), users, core.Options{MaxParts: 2 + round%3})
		if err != nil {
			t.Fatal(err)
		}
		for u, pl := range sol.Placements {
			want := make([]graph.NodeID, 0, len(pl.Remote))
			for id := range pl.Remote {
				want = append(want, id)
			}
			slices.Sort(want)
			got := decisionFor("fp", sol, u, len(users)).Remote
			if got == nil || !slices.Equal(got, want) {
				t.Fatalf("round %d user %d: remote %v, sorted placement keys %v", round, u, got, want)
			}
			if len(want) == 0 && users[u].Graph.NumNodes() > 0 {
				empties++
			} else if len(want) > 0 {
				offloaders++
			}
		}
	}
	if empties == 0 || offloaders == 0 {
		t.Fatalf("%d users with nodes offloaded nothing, %d something: both cases must run", empties, offloaders)
	}
}
