package graph

// CutWeight returns the total weight of edges with exactly one endpoint in
// side (formula (8) of the paper). Nodes absent from the graph are ignored;
// membership is defined by the set passed in. Edges are accumulated in
// (U, V)-sorted order — the latched node order, then each row — so the float
// sum is bitwise deterministic across runs without materialising an edge
// list per call.
func (g *Graph) CutWeight(side map[NodeID]bool) float64 {
	nodes := g.sortedNodes()
	var cut float64
	if n := len(nodes); n > 0 && nodes[0] >= 0 && int(nodes[n-1]) < 2*n+64 {
		// Dense id space: one flat membership table replaces the two map
		// probes per edge. Entries of side outside the graph are ignored
		// either way; a false entry and an absent one are equivalent.
		in := make([]bool, int(nodes[n-1])+1)
		for id, v := range side {
			if v && id >= 0 && int(id) < len(in) {
				in[id] = true
			}
		}
		for _, u := range nodes {
			rec := g.rec(u)
			su := in[u]
			for i, v := range rec.nbr {
				if u < v && su != in[v] {
					cut += rec.w[i]
				}
			}
		}
		return cut
	}
	for _, u := range nodes {
		rec := g.rec(u)
		su := side[u]
		for i, v := range rec.nbr {
			if u < v && su != side[v] {
				cut += rec.w[i]
			}
		}
	}
	return cut
}
