package lpa

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"copmecs/internal/graph"
)

// Subgraph is one component's compression outcome in the map oracle's shape.
type Subgraph struct {
	// Graph is the compressed sub-graph (super-node IDs 0..k−1).
	Graph *graph.Graph
	// MembersOf maps each super-node to the original nodes it absorbed.
	MembersOf map[graph.NodeID][]graph.NodeID
	// NodeOf maps each original node to its super-node.
	NodeOf map[graph.NodeID]graph.NodeID
	// Labels is the raw label assignment from propagation.
	Labels map[graph.NodeID]int
	// Rounds is the number of propagation rounds the component needed.
	Rounds int
	// Threshold is the coupling threshold used for this component.
	Threshold float64
}

// Result is a whole graph's compression in the map oracle's shape: one
// Subgraph per connected component, ordered by smallest original node ID.
type Result struct {
	Subgraphs               []Subgraph
	NodesBefore, NodesAfter int
	EdgesBefore, EdgesAfter int
}

// CompressionRatio returns 1 − after/before in nodes (0 for empty input).
func (r *Result) CompressionRatio() float64 {
	if r.NodesBefore == 0 {
		return 0
	}
	return 1 - float64(r.NodesAfter)/float64(r.NodesBefore)
}

// Compress is CompressCSR on g's compiled view, materialised in the map
// oracle's Result shape so the two compare field by field.
func Compress(g *graph.Graph, opts Options) (*Result, error) {
	cr, err := CompressCSR(g.Compile(), opts)
	if err != nil {
		return nil, err
	}
	return materializeResult(cr)
}

// materializeResult converts the array-form CSR outcome into the map-based
// Result shape, translating dense indices back to original NodeIDs.
func materializeResult(cr *CSRResult) (*Result, error) {
	c := cr.Input
	nc := len(cr.CompOff) - 1
	res := &Result{
		Subgraphs:   make([]Subgraph, nc),
		NodesBefore: cr.NodesBefore,
		NodesAfter:  cr.NodesAfter,
		EdgesBefore: cr.EdgesBefore,
		EdgesAfter:  cr.EdgesAfter,
	}
	for ci := 0; ci < nc; ci++ {
		base, end := cr.CompOff[ci], cr.CompOff[ci+1]
		k := int(end - base)
		sg := graph.New(k)
		sub := Subgraph{
			Graph:     sg,
			MembersOf: make(map[graph.NodeID][]graph.NodeID, k),
			NodeOf:    make(map[graph.NodeID]graph.NodeID),
			Labels:    make(map[graph.NodeID]int),
			Rounds:    cr.Rounds[ci],
			Threshold: cr.Thresholds[ci],
		}
		for s := base; s < end; s++ {
			local := graph.NodeID(s - base)
			if err := sg.AddNode(local, cr.NodeW[s]); err != nil {
				return nil, fmt.Errorf("lpa materialize: %w", err)
			}
			members := cr.Members[cr.MemberOff[s]:cr.MemberOff[s+1]]
			ids := make([]graph.NodeID, len(members))
			for i, u := range members {
				id := c.IDOf(u)
				ids[i] = id
				sub.NodeOf[id] = local
				sub.Labels[id] = int(cr.Labels[u])
			}
			sub.MembersOf[local] = ids
		}
		for s := base; s < end; s++ {
			for e := cr.Off[s]; e < cr.Off[s+1]; e++ {
				if t := cr.Tgt[e]; t > s {
					if err := sg.AddEdge(graph.NodeID(s-base), graph.NodeID(t-base), cr.W[e]); err != nil {
						return nil, fmt.Errorf("lpa materialize: %w", err)
					}
				}
			}
		}
		res.Subgraphs[ci] = sub
	}
	return res, nil
}

// components returns the connected components of g as sorted slices of node
// IDs, ordered by smallest member (the order graph.CSR.Components keeps).
func components(g *graph.Graph) [][]graph.NodeID {
	seen := make(map[graph.NodeID]bool, g.NumNodes())
	var comps [][]graph.NodeID
	for _, start := range g.Nodes() {
		if seen[start] {
			continue
		}
		seen[start] = true
		comp := []graph.NodeID{start}
		for i := 0; i < len(comp); i++ {
			for _, nb := range g.Neighbors(comp[i]) {
				if !seen[nb] {
					seen[nb] = true
					comp = append(comp, nb)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// inducedSubgraph returns the sub-graph of g induced by keep: the nodes in
// keep plus every edge of g whose endpoints are both kept, IDs preserved.
// Unknown IDs in keep are an error.
func inducedSubgraph(g *graph.Graph, keep []graph.NodeID) (*graph.Graph, error) {
	sub := graph.New(len(keep))
	for _, id := range keep {
		w, err := g.NodeWeight(id)
		if err != nil {
			return nil, fmt.Errorf("induced subgraph: %w", err)
		}
		if err := sub.AddNode(id, w); err != nil {
			return nil, fmt.Errorf("induced subgraph: %w", err)
		}
	}
	for _, id := range keep {
		for _, nb := range g.Neighbors(id) {
			if id < nb && sub.HasNode(nb) {
				w, _ := g.EdgeWeight(id, nb)
				if err := sub.AddEdge(id, nb, w); err != nil {
					return nil, fmt.Errorf("induced subgraph: %w", err)
				}
			}
		}
	}
	return sub, nil
}

// contraction is the output of contract: the contracted graph plus the
// mapping from each original node to the super-node that absorbed it.
type contraction struct {
	Graph *graph.Graph
	// NodeOf maps every original node ID to its super-node ID in Graph.
	NodeOf map[graph.NodeID]graph.NodeID
	// MembersOf maps every super-node ID to its sorted original node IDs.
	MembersOf map[graph.NodeID][]graph.NodeID
}

// contract merges nodes by cluster: all nodes sharing a cluster value become
// one super-node whose weight is the sum of member weights. Edges inside a
// cluster disappear; edges across clusters coalesce by summing, in g's
// (U, V) edge order. Every node must be assigned a cluster. Super-node IDs
// are 0..k−1 in order of each cluster's smallest member.
func contract(g *graph.Graph, cluster map[graph.NodeID]int) (*contraction, error) {
	if len(cluster) != g.NumNodes() {
		return nil, fmt.Errorf("contract: cluster assigns %d of %d nodes", len(cluster), g.NumNodes())
	}
	members := make(map[int][]graph.NodeID)
	for _, id := range g.Nodes() {
		c, ok := cluster[id]
		if !ok {
			return nil, fmt.Errorf("contract: %w: %d has no cluster", graph.ErrNodeNotFound, id)
		}
		members[c] = append(members[c], id)
	}
	clusterVals := make([]int, 0, len(members))
	for c := range members {
		clusterVals = append(clusterVals, c)
	}
	sort.Slice(clusterVals, func(i, j int) bool {
		return members[clusterVals[i]][0] < members[clusterVals[j]][0]
	})
	res := &contraction{
		Graph:     graph.New(len(clusterVals)),
		NodeOf:    make(map[graph.NodeID]graph.NodeID, g.NumNodes()),
		MembersOf: make(map[graph.NodeID][]graph.NodeID, len(clusterVals)),
	}
	for i, c := range clusterVals {
		super := graph.NodeID(i)
		var weight float64
		for _, id := range members[c] {
			res.NodeOf[id] = super
			w, err := g.NodeWeight(id)
			if err != nil {
				return nil, fmt.Errorf("contract: %w", err)
			}
			weight += w
		}
		res.MembersOf[super] = members[c]
		if err := res.Graph.AddNode(super, weight); err != nil {
			return nil, fmt.Errorf("contract: %w", err)
		}
	}
	for _, e := range g.Edges() {
		su, sv := res.NodeOf[e.U], res.NodeOf[e.V]
		if su == sv {
			continue // intra-cluster communication vanishes after merging
		}
		if err := res.Graph.AddEdge(su, sv, e.Weight); err != nil {
			return nil, fmt.Errorf("contract: %w", err)
		}
	}
	return res, nil
}

// maxDegreeNode returns the node with the most incident edges, ties toward
// the smallest ID: the paper's propagation starter. ok is false for an empty
// graph.
func maxDegreeNode(g *graph.Graph) (id graph.NodeID, ok bool) {
	best, bestDeg := graph.NodeID(0), -1
	for _, n := range g.Nodes() {
		if d := len(g.Neighbors(n)); d > bestDeg {
			best, bestDeg = n, d
		}
	}
	return best, bestDeg >= 0
}

// bfsOrder returns the nodes reachable from start in breadth-first order,
// visiting neighbors in ascending ID order.
func bfsOrder(g *graph.Graph, start graph.NodeID) ([]graph.NodeID, error) {
	if !g.HasNode(start) {
		return nil, fmt.Errorf("bfs from %d: %w", start, graph.ErrNodeNotFound)
	}
	seen := map[graph.NodeID]bool{start: true}
	order := []graph.NodeID{start}
	for i := 0; i < len(order); i++ {
		for _, nb := range g.Neighbors(order[i]) {
			if !seen[nb] {
				seen[nb] = true
				order = append(order, nb)
			}
		}
	}
	return order, nil
}

// PropagateResult reports one sub-graph's label propagation outcome.
type PropagateResult struct {
	// Labels assigns every node of the sub-graph a label; equal labels mean
	// "highly coupled, execute on the same device".
	Labels map[graph.NodeID]int
	// Rounds is the number of propagation rounds run.
	Rounds int
	// Threshold is the coupling threshold that was applied.
	Threshold float64
}

// Propagate runs the label rule of Algorithm 1 on a connected sub-graph.
// The caller is responsible for passing one component at a time (CompressMap
// does); unreachable nodes would keep fresh singleton labels.
func Propagate(g *graph.Graph, opts Options) (*PropagateResult, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if g.NumNodes() == 0 {
		return &PropagateResult{Labels: map[graph.NodeID]int{}}, nil
	}
	threshold := opts.WeightThreshold
	if threshold == 0 {
		threshold = AutoThreshold(g, 0.75)
	}

	starter, _ := maxDegreeNode(g)
	order, err := bfsOrder(g, starter)
	if err != nil {
		return nil, fmt.Errorf("lpa order: %w", err)
	}
	// Nodes unreachable from the starter (disconnected input) still need
	// labels; append them in ID order so every node is visited.
	if len(order) < g.NumNodes() {
		inOrder := make(map[graph.NodeID]bool, len(order))
		for _, id := range order {
			inOrder[id] = true
		}
		for _, id := range g.Nodes() {
			if !inOrder[id] {
				order = append(order, id)
			}
		}
	}

	labels := make(map[graph.NodeID]int, g.NumNodes())
	nextLabel := 0
	fresh := func() int {
		l := nextLabel
		nextLabel++
		return l
	}

	total := g.NumNodes()
	res := &PropagateResult{Threshold: threshold}
	for round := 0; round < opts.MaxRounds; round++ {
		updates := 0
		for _, u := range order {
			lu, ok := labels[u]
			if !ok {
				// First visit (round 1): the starter — and any node no
				// neighbor labelled before we reached it — opens a label.
				lu = fresh()
				labels[u] = lu
				updates++
			}
			for _, v := range g.Neighbors(u) {
				w, _ := g.EdgeWeight(u, v)
				lv, seen := labels[v]
				if w > threshold {
					// Highly coupled: v joins u's cluster.
					if !seen || lv != lu {
						labels[v] = lu
						updates++
					}
				} else if !seen {
					// Weak coupling: v opens its own label (paper: "it will
					// be given different label").
					labels[v] = fresh()
					updates++
				}
			}
		}
		res.Rounds = round + 1
		if float64(updates)/float64(total) <= opts.MinUpdateRate {
			break
		}
	}
	res.Labels = labels
	return res, nil
}

// CompressMap is the original map-based implementation of Algorithm 1, kept
// as the oracle for the CSR kernels: the property tests assert that Compress
// and CompressMap produce identical results on the same input.
func CompressMap(g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	comps := components(g)
	res := &Result{
		Subgraphs:   make([]Subgraph, len(comps)),
		NodesBefore: g.NumNodes(),
		EdgesBefore: g.NumEdges(),
	}

	sem := make(chan struct{}, opts.Workers)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i, comp := range comps {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, comp []graph.NodeID) {
			defer wg.Done()
			defer func() { <-sem }()
			sub, err := compressComponent(g, comp, opts)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			res.Subgraphs[i] = *sub
		}(i, comp)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	for i := range res.Subgraphs {
		res.NodesAfter += res.Subgraphs[i].Graph.NumNodes()
		res.EdgesAfter += res.Subgraphs[i].Graph.NumEdges()
	}
	return res, nil
}

// compressComponent runs propagation + contraction for one component.
func compressComponent(g *graph.Graph, comp []graph.NodeID, opts Options) (*Subgraph, error) {
	cg, err := inducedSubgraph(g, comp)
	if err != nil {
		return nil, fmt.Errorf("lpa compress: %w", err)
	}
	prop, err := Propagate(cg, opts)
	if err != nil {
		return nil, fmt.Errorf("lpa compress: %w", err)
	}
	// The paper merges nodes that share a label AND are connected directly.
	// Same-label classes are normally edge-connected, but round interleaving
	// can strand a node, so cluster by connectivity within label classes.
	clusters := connectedSameLabelClusters(cg, prop.Labels)
	contracted, err := contract(cg, clusters)
	if err != nil {
		return nil, fmt.Errorf("lpa compress: %w", err)
	}
	return &Subgraph{
		Graph:     contracted.Graph,
		MembersOf: contracted.MembersOf,
		NodeOf:    contracted.NodeOf,
		Labels:    prop.Labels,
		Rounds:    prop.Rounds,
		Threshold: prop.Threshold,
	}, nil
}

// connectedSameLabelClusters returns a cluster assignment in which two nodes
// share a cluster iff they are connected through edges whose endpoints carry
// equal labels (union-find over same-label edges).
func connectedSameLabelClusters(g *graph.Graph, labels map[graph.NodeID]int) map[graph.NodeID]int {
	parent := make(map[graph.NodeID]graph.NodeID, g.NumNodes())
	var find func(graph.NodeID) graph.NodeID
	find = func(x graph.NodeID) graph.NodeID {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b graph.NodeID) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra < rb { // deterministic roots
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	for _, id := range g.Nodes() {
		find(id)
	}
	for _, e := range g.Edges() {
		if labels[e.U] == labels[e.V] {
			union(e.U, e.V)
		}
	}
	clusters := make(map[graph.NodeID]int, g.NumNodes())
	next := 0
	rootCluster := make(map[graph.NodeID]int)
	for _, id := range g.Nodes() {
		r := find(id)
		c, ok := rootCluster[r]
		if !ok {
			c = next
			next++
			rootCluster[r] = c
		}
		clusters[id] = c
	}
	return clusters
}
