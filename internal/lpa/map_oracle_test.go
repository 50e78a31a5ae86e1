package lpa

import (
	"fmt"
	"sync"

	"copmecs/internal/graph"
)

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
// The caller is responsible for passing one component at a time (Compress
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

	starter, _ := g.MaxDegreeNode()
	var order []graph.NodeID
	var err error
	if opts.Traversal == BFS {
		order, err = g.BFSOrder(starter)
	} else {
		order, err = g.DFSOrder(starter)
	}
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
	comps := g.Components()
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
	cg, err := g.InducedSubgraph(comp)
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
	contracted, err := cg.Contract(clusters)
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
