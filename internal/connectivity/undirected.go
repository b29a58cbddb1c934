package connectivity

import (
	"fmt"

	"kadre/internal/graph"
	"kadre/internal/maxflow"
)

// UndirectedMin implements the (n-1)-pair shortcut the paper cites
// (Gomory & Hu 1961, §4.4): for an undirected graph it computes maximum
// flows from a single fixed source vertex to the n-1 other vertices on the
// Even-transformed graph and returns the minimum. The source is the vertex
// with the smallest degree, which is the most likely to sit on the weak
// side of a minimum cut.
//
// The value is an upper bound on the true vertex connectivity — a minimum
// vertex cut that contains the chosen source's entire neighbourhood but
// separates two other vertices can be missed — which is exactly the
// trade-off the paper accepts when exploiting near-undirectedness. Pairs
// where the source is adjacent to the target are skipped; if the source is
// adjacent to everything, its degree n-1 is returned.
func UndirectedMin(g *graph.Digraph) (int, error) {
	n := g.N()
	if n <= 1 {
		return 0, nil
	}
	if !g.IsSymmetric() {
		return 0, fmt.Errorf("connectivity: undirected shortcut requires a symmetric graph (symmetry ratio %.3f)", g.SymmetryRatio())
	}
	if g.IsComplete() {
		return n - 1, nil
	}
	src := 0
	for v := 1; v < n; v++ {
		if g.OutDegree(v) < g.OutDegree(src) {
			src = v
		}
	}
	solver := maxflow.NewDinicSource(2*n, &unitEdgeSource{edges: graph.EvenEdges(g)})
	min := n - 1
	found := false
	for w := 0; w < n; w++ {
		if w == src || g.HasEdge(src, w) {
			continue
		}
		found = true
		if f := solver.MaxFlowLimit(graph.Out(src), graph.In(w), min); f < min {
			min = f
		}
	}
	if !found {
		return g.OutDegree(src), nil
	}
	return min, nil
}

// MinDegree returns min(min out-degree, min in-degree), a cheap upper
// bound on the vertex connectivity of any digraph: removing all of a
// minimum-degree vertex's neighbours isolates it.
func MinDegree(g *graph.Digraph) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	in := g.InDegrees()
	min := n
	for v := 0; v < n; v++ {
		if d := g.OutDegree(v); d < min {
			min = d
		}
		if in[v] < min {
			min = in[v]
		}
	}
	return min
}
