package graph

import (
	"bytes"
	"encoding/json"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// oracle is the adjacency-map model the row representation is held to: the
// obvious map-of-maps graph, with no sharing anywhere.
type oracle struct {
	weight map[NodeID]float64
	adj    map[NodeID]map[NodeID]float64
}

func newOracle() *oracle {
	return &oracle{weight: map[NodeID]float64{}, adj: map[NodeID]map[NodeID]float64{}}
}

func (o *oracle) clone() *oracle {
	c := &oracle{weight: maps.Clone(o.weight), adj: make(map[NodeID]map[NodeID]float64, len(o.adj))}
	for id, row := range o.adj {
		c.adj[id] = maps.Clone(row)
	}
	return c
}

func (o *oracle) equal(p *oracle) bool {
	return maps.Equal(o.weight, p.weight) && maps.EqualFunc(o.adj, p.adj, maps.Equal[map[NodeID]float64])
}

func sortedKeys(m map[NodeID]float64) []NodeID {
	ids := make([]NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (o *oracle) edges() []Edge {
	var es []Edge
	for u, row := range o.adj {
		for v, w := range row {
			if u < v {
				es = append(es, Edge{U: u, V: v, Weight: w})
			}
		}
	}
	slices.SortFunc(es, func(a, b Edge) int {
		if a.U != b.U {
			return int(a.U - b.U)
		}
		return int(a.V - b.V)
	})
	return es
}

// graph rebuilds the oracle's content through the public mutators.
func (o *oracle) graph() *Graph {
	g := New(len(o.weight))
	for id, w := range o.weight {
		must(g.AddNode(id, w))
	}
	for _, e := range o.edges() {
		must(g.AddEdge(e.U, e.V, e.Weight))
	}
	return g
}

// step applies one random mutation to g and o alike and holds the mutators'
// return values to the model. Ids come from a range small enough that rows
// fill up, edges coalesce and removals hit.
func (o *oracle) step(t *testing.T, rng *rand.Rand, g *Graph, idRange int) {
	t.Helper()
	u, v := NodeID(rng.Intn(idRange)-3), NodeID(rng.Intn(idRange)-3)
	w := float64(rng.Intn(9))
	_, hasU := o.weight[u]
	_, hasV := o.weight[v]
	switch op := rng.Intn(11); {
	case op < 2:
		if err := g.AddNode(u, w); (err == nil) == hasU {
			t.Fatalf("AddNode(%d) = %v with node present = %v", u, err, hasU)
		}
		if !hasU {
			o.weight[u], o.adj[u] = w, map[NodeID]float64{}
		}
	case op < 5:
		ok := hasU && hasV && u != v
		if err := g.AddEdge(u, v, w); (err == nil) != ok {
			t.Fatalf("AddEdge(%d,%d) = %v, want success = %v", u, v, err, ok)
		}
		if ok {
			o.adj[u][v] += w
			o.adj[v][u] += w
		}
	case op < 7:
		ok := hasU && hasV && u != v
		if err := g.SetEdge(u, v, w); (err == nil) != ok {
			t.Fatalf("SetEdge(%d,%d) = %v, want success = %v", u, v, err, ok)
		}
		if ok {
			o.adj[u][v], o.adj[v][u] = w, w
		}
	case op < 9:
		_, has := o.adj[u][v]
		if got := g.RemoveEdge(u, v); got != has {
			t.Fatalf("RemoveEdge(%d,%d) = %v, want %v", u, v, got, has)
		}
		if has {
			delete(o.adj[u], v)
			delete(o.adj[v], u)
		}
	case op < 10:
		if got := g.RemoveNode(u); got != hasU {
			t.Fatalf("RemoveNode(%d) = %v, want %v", u, got, hasU)
		}
		for nb := range o.adj[u] {
			delete(o.adj[nb], u)
		}
		delete(o.adj, u)
		delete(o.weight, u)
	default:
		if err := g.SetNodeWeight(u, w); (err == nil) != hasU {
			t.Fatalf("SetNodeWeight(%d) = %v with node present = %v", u, err, hasU)
		}
		if hasU {
			o.weight[u] = w
		}
	}
}

// check holds every reader of g to the oracle.
func (o *oracle) check(t *testing.T, g *Graph, idRange int) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	ids := sortedKeys(o.weight)
	if got := g.Nodes(); !slices.Equal(got, ids) {
		t.Fatalf("Nodes() = %v, want %v", got, ids)
	}
	for _, u := range ids {
		if w, err := g.NodeWeight(u); err != nil || w != o.weight[u] {
			t.Fatalf("NodeWeight(%d) = %v, %v; want %v", u, w, err, o.weight[u])
		}
		want := sortedKeys(o.adj[u])
		if got := g.Neighbors(u); !slices.Equal(got, want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", u, got, want)
		}
		for v := NodeID(-3); v < NodeID(idRange-3); v++ {
			want, has := o.adj[u][v]
			if got, ok := g.EdgeWeight(u, v); ok != has || got != want {
				t.Fatalf("EdgeWeight(%d,%d) = %v, %v; want %v, %v", u, v, got, ok, want, has)
			}
		}
	}
	if got, want := g.Edges(), o.edges(); !slices.Equal(got, want) {
		t.Fatalf("Edges() = %v, want %v", got, want)
	}
	if fresh := o.graph(); !g.Equal(fresh) || !fresh.Equal(g) {
		t.Fatalf("%v not Equal to a graph rebuilt from the model", g)
	}
	viewMatchesGraph(t, g.Compile(), g)
}

// TestRowsMatchOracleUnderCopyOnWrite drives random mutator sequences over a
// small family of graphs related by Clone, each shadowed by its own
// map-of-maps model, and after every step holds every member of the family —
// not only the one just written — to its model. A mutator that writes a
// clone-shared row in place (a gap closed with append(row[:i], row[i+1:]...)
// on a record that skipped mutable) changes a sibling's row under it and
// fails the sibling's check.
func TestRowsMatchOracleUnderCopyOnWrite(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		driveFamily(t, rand.New(rand.NewSource(seed)), New(0), newOracle(), 1500)
	}
}

// driveFamily runs steps random mutations and clones over the family grown
// from g (modelled by o), holding every member to its model after each.
func driveFamily(t *testing.T, rng *rand.Rand, g *Graph, o *oracle, steps int) {
	t.Helper()
	const idRange, family = 10, 4
	gs, os := []*Graph{g}, []*oracle{o}
	for step := 0; step < steps; step++ {
		k := rng.Intn(len(gs))
		if rng.Intn(12) == 0 {
			// Clone k; past the family size the clone replaces a member.
			c, oc := gs[k].Clone(), os[k].clone()
			if len(gs) < family {
				gs, os = append(gs, c), append(os, oc)
			} else {
				r := rng.Intn(family)
				gs[r], os[r] = c, oc
			}
		} else {
			os[k].step(t, rng, gs[k], idRange)
		}
		for i, g := range gs {
			os[i].check(t, g, idRange)
			for j, h := range gs {
				if g.Equal(h) != os[i].equal(os[j]) {
					t.Fatalf("step %d: graphs %d and %d Equal = %v, models disagree", step, i, j, g.Equal(h))
				}
			}
		}
	}
}

// TestDecodedRowsMatchOracleUnderCopyOnWrite is the same drive started from a
// decoded graph, whose rows are not allocations of their own but adjacent
// windows of two slabs (addEdgesSorted): every row must come out of the
// decoder with no spare capacity, and from then on a write through any family
// member — an insert into a full row, a gap closed, a weight added to — must
// stay inside that member's own row. A row that grew into the slab behind it
// would overwrite its neighbor's first entries and fail the neighbor's check.
func TestDecodedRowsMatchOracleUnderCopyOnWrite(t *testing.T) {
	decoders := map[string]func(*Graph) *Graph{
		"json": func(g *Graph) *Graph {
			data, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			d := New(0)
			if err := d.UnmarshalJSON(data); err != nil {
				t.Fatal(err)
			}
			return d
		},
		"binary": func(g *Graph) *Graph {
			var buf bytes.Buffer
			if err := g.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			d, err := ReadBinary(&buf)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
	for name, decode := range decoders {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// A dense start: most of the id range present, rows well filled.
			o, src := newOracle(), New(0)
			for step := 0; step < 120; step++ {
				o.step(t, rng, src, 10)
			}
			g := decode(src)
			rows := 0
			for i, rec := range g.recs {
				if cap(rec.nbr) != len(rec.nbr) || cap(rec.w) != len(rec.w) {
					t.Fatalf("%s: decoded row %d has spare capacity: nbr %d/%d, w %d/%d",
						name, g.ids[i], len(rec.nbr), cap(rec.nbr), len(rec.w), cap(rec.w))
				}
				rows += len(rec.nbr)
			}
			if rows == 0 {
				t.Fatalf("%s seed %d: start graph has no edges", name, seed)
			}
			driveFamily(t, rng, g, o, 600)
		}
	}
}

// TestReadersRaceCloneMutation reads a base graph from several goroutines
// while its clone is mutated: under -race any write to a row the two still
// share is reported, and the base must come out byte-for-byte what it was.
func TestReadersRaceCloneMutation(t *testing.T) {
	base := deltaTestGraph(21, 300)
	before, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	clone := base.Clone()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c := base.Compile(); c.NumEdges() != base.NumEdges() {
					t.Errorf("Compile saw %d edges, want %d", c.NumEdges(), base.NumEdges())
				}
				if es := base.Edges(); len(es) != base.NumEdges() {
					t.Errorf("Edges saw %d edges, want %d", len(es), base.NumEdges())
				}
				if fp, err := base.Fingerprint(); err != nil || fp != before {
					t.Errorf("Fingerprint = %v, %v; want %v", fp, err, before)
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(22))
	ids := clone.Nodes()
	for step := 0; step < 4000; step++ {
		u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		switch rng.Intn(5) {
		case 0:
			_ = clone.AddEdge(u, v, 1) // errors (self-loop, removed endpoint) are part of the mix
		case 1:
			_ = clone.SetEdge(u, v, 2)
		case 2:
			// Aim at an edge that exists, so the gap-closing path runs.
			if nbs := clone.Neighbors(u); len(nbs) > 0 {
				clone.RemoveEdge(u, nbs[rng.Intn(len(nbs))])
			}
		case 3:
			_ = clone.SetNodeWeight(u, 3)
		default:
			if step%40 == 0 {
				clone.RemoveNode(u)
			}
		}
	}
	close(stop)
	wg.Wait()

	if err := clone.Validate(); err != nil {
		t.Fatal(err)
	}
	if after, err := base.Fingerprint(); err != nil || after != before {
		t.Fatalf("base fingerprint moved under clone mutation: %v, %v; want %v", after, err, before)
	}
}

// TestConcurrentClonesOfOneBase: many goroutines Clone one shared base at
// once — a read under the concurrency contract — and each mutates its own
// copy. Run under -race: Clone touches no record, so nothing but the base's
// atomic token is written concurrently, and no copy's edit reaches the base
// or another copy.
func TestConcurrentClonesOfOneBase(t *testing.T) {
	base := deltaTestGraph(31, 200)
	before, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	copies := make([]*Graph, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := base.Clone()
			rng := rand.New(rand.NewSource(int64(40 + k)))
			ids := c.Nodes()
			for step := 0; step < 300; step++ {
				u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				switch rng.Intn(4) {
				case 0:
					_ = c.AddEdge(u, v, 1) // self-loops and removed endpoints are part of the mix
				case 1:
					if nbs := c.Neighbors(u); len(nbs) > 0 {
						c.RemoveEdge(u, nbs[rng.Intn(len(nbs))])
					}
				case 2:
					_ = c.SetEdge(u, v, float64(k+2))
				default:
					_ = c.SetNodeWeight(u, float64(k))
				}
			}
			c.RemoveNode(ids[k])
			copies[k] = c
		}()
	}
	wg.Wait()

	if after, err := base.Fingerprint(); err != nil || after != before {
		t.Fatalf("base fingerprint moved under concurrent clones: %v, %v; want %v", after, err, before)
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	for k, c := range copies {
		if err := c.Validate(); err != nil {
			t.Fatalf("copy %d: %v", k, err)
		}
		if c.HasNode(NodeID(k)) {
			t.Errorf("copy %d still has the node it removed", k)
		}
		for j := 0; j < workers; j++ {
			if j != k && !c.HasNode(NodeID(j)) {
				t.Errorf("copy %d lost node %d, removed by copy %d", k, j, j)
			}
		}
	}
}
