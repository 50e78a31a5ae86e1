// Package mincut implements the combinatorial cut baselines the paper
// evaluates against (§IV): the Ford–Fulkerson / Edmonds–Karp maximum-flow
// minimum-cut algorithm and the Kernighan–Lin bisection heuristic, plus the
// Stoer–Wagner exact global minimum cut used for cross-validation.
//
// Every function takes a graph in CSR form over dense ids 0..n−1: node u's
// neighbours are tgt[off[u]:off[u+1]] (strictly ascending, no self-loops,
// symmetric) with weights w — the arrays the solver's cut stage hands every
// engine. Sides come back as ascending ids, and every tie breaks toward the
// smaller id.
package mincut

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by the package.
var (
	// ErrEmptyGraph is returned when there is nothing to cut.
	ErrEmptyGraph = errors.New("mincut: empty graph")
	// ErrSameNode is returned when source and sink coincide.
	ErrSameNode = errors.New("mincut: source equals sink")
	// ErrNodeNotFound is returned when an endpoint is missing.
	ErrNodeNotFound = errors.New("mincut: node not found")
)

// denseWeights returns the n×n weight matrix of the graph, each edge's
// weight read from its lower endpoint's row.
func denseWeights(off, tgt []int32, w []float64) [][]float64 {
	n := len(off) - 1
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for u := 0; u < n; u++ {
		for e := off[u]; e < off[u+1]; e++ {
			if v := tgt[e]; int(v) > u {
				d[u][v] += w[e]
				d[v][u] += w[e]
			}
		}
	}
	return d
}

// cutWeight sums the weight of the edges crossing inA's boundary, u
// ascending and v > u ascending.
func cutWeight(off, tgt []int32, w []float64, inA []bool) float64 {
	var cut float64
	for u := range inA {
		for e := off[u]; e < off[u+1]; e++ {
			if v := tgt[e]; int(v) > u && inA[u] != inA[v] {
				cut += w[e]
			}
		}
	}
	return cut
}

// bfsOrder returns the nodes reachable from start in breadth-first order,
// visiting neighbours in ascending order.
func bfsOrder(off, tgt []int32, start int32) []int32 {
	seen := make([]bool, len(off)-1)
	seen[start] = true
	order := []int32{start}
	for i := 0; i < len(order); i++ {
		u := order[i]
		for _, v := range tgt[off[u]:off[u+1]] {
			if !seen[v] {
				seen[v] = true
				order = append(order, v)
			}
		}
	}
	return order
}

// split lists the ids with inA set and the rest, both ascending.
func split(inA []bool) (sideA, sideB []int32) {
	for u, a := range inA {
		if a {
			sideA = append(sideA, int32(u))
		} else {
			sideB = append(sideB, int32(u))
		}
	}
	return sideA, sideB
}

// flowNet is a residual network: dense residual capacities, adjacency the
// graph's own rows (an undirected edge admits flow either way).
type flowNet struct {
	off, tgt []int32
	cap      [][]float64 // cap[u][v] residual capacity
}

// bfsAugment finds a shortest augmenting path s→t; returns parent links and
// whether t was reached.
func (net *flowNet) bfsAugment(s, t int32) ([]int32, bool) {
	parent := make([]int32, len(net.cap))
	for i := range parent {
		parent[i] = -1
	}
	parent[s] = s
	queue := []int32{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range net.tgt[net.off[u]:net.off[u+1]] {
			if parent[v] < 0 && net.cap[u][v] > 1e-12 {
				parent[v] = u
				if v == t {
					return parent, true
				}
				queue = append(queue, v)
			}
		}
	}
	return parent, false
}

// MaxFlowResult reports a maximum flow and the matching minimum s-t cut.
type MaxFlowResult struct {
	// Value is the maximum flow = minimum cut capacity (duality).
	Value float64
	// SourceSide marks the nodes reachable from the source in the residual
	// network: the source side of a minimum s-t cut.
	SourceSide []bool
}

// MaxFlow computes the maximum flow between s and t on the undirected
// weighted graph with the Edmonds–Karp algorithm (BFS augmenting paths,
// guaranteeing termination — the paper's noted fix over plain
// Ford–Fulkerson for non-integral capacities).
func MaxFlow(off, tgt []int32, w []float64, s, t int32) (*MaxFlowResult, error) {
	n := len(off) - 1
	if n <= 0 {
		return nil, ErrEmptyGraph
	}
	if s == t {
		return nil, fmt.Errorf("%w: %d", ErrSameNode, s)
	}
	if s < 0 || int(s) >= n {
		return nil, fmt.Errorf("%w: source %d", ErrNodeNotFound, s)
	}
	if t < 0 || int(t) >= n {
		return nil, fmt.Errorf("%w: sink %d", ErrNodeNotFound, t)
	}
	net := &flowNet{off: off, tgt: tgt, cap: denseWeights(off, tgt, w)}

	var value float64
	for {
		parent, ok := net.bfsAugment(s, t)
		if !ok {
			break
		}
		// Bottleneck along the path.
		bottleneck := math.Inf(1)
		for v := t; v != s; v = parent[v] {
			u := parent[v]
			if net.cap[u][v] < bottleneck {
				bottleneck = net.cap[u][v]
			}
		}
		for v := t; v != s; v = parent[v] {
			u := parent[v]
			net.cap[u][v] -= bottleneck
			net.cap[v][u] += bottleneck
		}
		value += bottleneck
	}

	// Residual reachability from s defines the cut's source side.
	side := make([]bool, n)
	side[s] = true
	stack := []int32{s}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range tgt[off[u]:off[u+1]] {
			if !side[v] && net.cap[u][v] > 1e-12 {
				side[v] = true
				stack = append(stack, v)
			}
		}
	}
	return &MaxFlowResult{Value: value, SourceSide: side}, nil
}

// MaxFlowBisect approximates the global minimum cut the way the paper's
// baseline uses max-flow: it fixes the highest-degree node (smallest id on
// ties) as the source — the hub a real application's entry function
// resembles — and tries the 3 nodes farthest from it (BFS depth) as sinks,
// keeping the best cut. A disconnected graph short-circuits to a free cut:
// node 0's component against the rest.
func MaxFlowBisect(off, tgt []int32, w []float64) (sideA, sideB []int32, weight float64, err error) {
	const sinks = 3
	n := len(off) - 1
	switch {
	case n <= 0:
		return nil, nil, 0, ErrEmptyGraph
	case n == 1:
		return []int32{0}, nil, 0, nil
	}
	if reach := bfsOrder(off, tgt, 0); len(reach) < n {
		inA := make([]bool, n)
		for _, u := range reach {
			inA[u] = true
		}
		sideA, sideB = split(inA)
		return sideA, sideB, 0, nil
	}
	var s int32
	for u := int32(1); u < int32(n); u++ {
		if off[u+1]-off[u] > off[s+1]-off[s] {
			s = u
		}
	}
	order := bfsOrder(off, tgt, s)
	best := math.Inf(1)
	for i := 0; i < sinks && i < len(order)-1; i++ {
		t := order[len(order)-1-i]
		res, err := MaxFlow(off, tgt, w, s, t)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("mincut bisect: %w", err)
		}
		if a, b := split(res.SourceSide); res.Value < best && len(a) > 0 && len(b) > 0 {
			best, sideA, sideB = res.Value, a, b
		}
	}
	if math.IsInf(best, 1) {
		return nil, nil, 0, fmt.Errorf("mincut bisect: no candidate sink produced a cut")
	}
	return sideA, sideB, best, nil
}
