// Package connectivity computes the vertex connectivity of directed
// connectivity graphs — the paper's central measurement. The vertex
// connectivity kappa(v, w) between non-adjacent vertices equals the
// maximum number of pairwise vertex-disjoint paths from v to w (Menger's
// theorem); it is computed as a maximum flow on Even's transformed graph.
// The graph connectivity kappa(D) is the minimum over all non-adjacent
// ordered pairs (Equation 1 of the paper), and the network tolerates
// r = kappa(D) - 1 compromised nodes (Equation 2).
//
// A full sweep needs n(n-1) flow computations. The paper's §5.2 heuristic
// cuts this to c*n*(n-1) by evaluating only the c*n sources with smallest
// out-degree (c = 0.02 was empirically sufficient on near-undirected
// Kademlia graphs); both modes are implemented, as is the undirected
// (n-1)-pair shortcut the paper cites.
//
// Engine is the one analysis object: it binds to a graph, keeps the Even
// transform, the per-worker solvers and the cut-mode network alive across
// bindings, and fuses the per-snapshot Min and Avg sweeps into a single
// pass. The one-shot functions (Analyze, GraphCut, PairCut) bind a fresh
// Engine per call.
package connectivity

import (
	"fmt"
	"math"

	"kadre/internal/graph"
	"kadre/internal/maxflow"
)

// DefaultSampleFraction is the paper's empirically validated sampling
// fraction c.
const DefaultSampleFraction = 0.02

// SourceSelection picks how sampled flow sources are chosen.
type SourceSelection int

const (
	// SmallestOutDegree is the paper's §5.2 heuristic: the c*n vertices
	// with the smallest out-degree, which bound the minimum. The default.
	SmallestOutDegree SourceSelection = iota + 1
	// UniformRandom picks c*n sources uniformly, yielding an unbiased
	// estimate of the average pair connectivity (the "Avg" curves of the
	// paper's figures) at the price of a looser minimum.
	UniformRandom
)

// Options configures a one-shot analysis (Analyze, GraphCut).
type Options struct {
	// SampleFraction is the paper's c: the fraction of vertices used as
	// flow sources. Values <= 0 or >= 1 mean a full n(n-1) sweep.
	SampleFraction float64
	// Selection chooses the sampling strategy; zero means
	// SmallestOutDegree.
	Selection SourceSelection
	// SelectionSeed seeds the UniformRandom selection; runs with the same
	// seed pick the same sources.
	SelectionSeed int64
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS. Each worker
	// owns a private solver, replacing the paper's cluster fan-out.
	Workers int
	// MinOnly skips exact flow values above the running minimum, which
	// prunes work but leaves Avg meaningless (reported as NaN).
	MinOnly bool
	// SkipMinPair reports MinPair as {-1, -1} without computing it.
	// Under MinOnly the deterministic pair may need a bounded re-check of
	// capped evaluations (see Engine.resolveMinPair), so callers that
	// only read Min can skip it.
	SkipMinPair bool
}

// Result reports the connectivity of one graph.
type Result struct {
	N        int     // vertices in the analyzed graph
	Min      int     // kappa(D): minimum kappa(v,w) over evaluated pairs
	Avg      float64 // mean kappa(v,w) over evaluated pairs (NaN if MinOnly)
	Pairs    int     // number of (source, target) pairs evaluated
	Sources  int     // number of source vertices used
	Complete bool    // graph was complete: Min = N-1 by definition
	// MinPair is the lexicographically smallest evaluated (source, target)
	// pair achieving Min, or {-1, -1} if no pair was evaluated or the
	// analysis ran with SkipMinPair. It is deterministic for a given
	// graph and options — independent of worker count and scheduling,
	// with or without MinOnly pruning.
	MinPair [2]int
}

// Resilience returns r = kappa - 1, the number of compromised nodes the
// network provably tolerates (Equation 2). A disconnected network has
// resilience -1: it does not even function with zero compromised nodes.
func Resilience(kappa int) int { return kappa - 1 }

// RequiredConnectivity returns the connectivity a network needs to
// tolerate a compromised nodes: kappa(D) > a, i.e. at least a+1.
func RequiredConnectivity(a int) int { return a + 1 }

// Analyze computes the connectivity of g with a freshly bound Engine.
// It fails for a negative or NaN sample fraction.
func Analyze(g *graph.Digraph, opts Options) (Result, error) {
	eng, q, err := bindFresh(g, opts)
	if err != nil {
		return Result{}, err
	}
	return eng.Analyze(q), nil
}

// bindFresh validates opts and returns a new Engine bound to g, plus the
// per-call query the options describe.
func bindFresh(g *graph.Digraph, opts Options) (*Engine, Query, error) {
	if opts.SampleFraction < 0 || math.IsNaN(opts.SampleFraction) {
		return nil, Query{}, fmt.Errorf("connectivity: sample fraction %v must be >= 0", opts.SampleFraction)
	}
	eng, err := NewEngine(EngineOptions{Workers: opts.Workers})
	if err != nil {
		return nil, Query{}, err
	}
	eng.Bind(g)
	return eng, Query{
		SampleFraction: opts.SampleFraction,
		Selection:      opts.Selection,
		SelectionSeed:  opts.SelectionSeed,
		MinOnly:        opts.MinOnly,
		SkipMinPair:    opts.SkipMinPair,
	}, nil
}

// Pair computes kappa(v, w) for one non-adjacent ordered pair via a
// maximum flow on the Even-transformed graph. It fails for v == w and for
// adjacent pairs, whose vertex connectivity is not defined by a vertex cut
// (the direct edge can never be cut). It builds a fresh Dinic solver, so
// it is also the independent per-pair reference the engine tests use.
func Pair(g *graph.Digraph, v, w int) (int, error) {
	if v == w {
		return 0, fmt.Errorf("connectivity: pair (%d,%d) has identical endpoints", v, w)
	}
	if v < 0 || v >= g.N() || w < 0 || w >= g.N() {
		return 0, fmt.Errorf("connectivity: pair (%d,%d) out of range [0,%d)", v, w, g.N())
	}
	if g.HasEdge(v, w) {
		return 0, fmt.Errorf("connectivity: vertices %d and %d are adjacent", v, w)
	}
	solver := maxflow.NewDinicSource(2*g.N(), &unitEdgeSource{edges: graph.EvenEdges(g)})
	return solver.MaxFlow(graph.Out(v), graph.In(w)), nil
}

func lexLess(a, b [2]int) bool {
	if b[0] < 0 {
		return true
	}
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}
