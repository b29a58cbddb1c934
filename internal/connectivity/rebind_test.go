package connectivity

import (
	"math"
	"math/rand"
	"testing"

	"kadre/internal/graph"
)

// mutateEdges returns a copy of g with `removals` random edges deleted
// and `additions` random new edges inserted.
func mutateEdges(r *rand.Rand, g *graph.Digraph, removals, additions int) *graph.Digraph {
	out := g.Clone()
	all := out.Edges()
	for i := 0; i < removals && len(all) > 0; i++ {
		k := r.Intn(len(all))
		out.RemoveEdge(all[k].U, all[k].V)
		all[k] = all[len(all)-1]
		all = all[:len(all)-1]
	}
	n := out.N()
	for i := 0; i < additions; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !out.HasEdge(u, v) {
			out.AddEdge(u, v)
		}
	}
	return out
}

func requireSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.N != want.N || got.Min != want.Min || got.Pairs != want.Pairs ||
		got.Sources != want.Sources || got.Complete != want.Complete ||
		got.MinPair != want.MinPair ||
		math.Float64bits(got.Avg) != math.Float64bits(want.Avg) {
		t.Fatalf("%s: engine %+v, reference %+v", label, got, want)
	}
}

// identityOrder is the compaction map of a dense graph: every vertex
// live, in index order.
func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// requireMatchesReference checks the engine's fused snapshot analysis
// and its MinOnly analysis (with the deterministic MinPair) on its bound
// graph against the independent reference implementation run on g.
func requireMatchesReference(t *testing.T, label string, eng *Engine, g *graph.Digraph, c float64, seed int64) {
	t.Helper()
	q := SnapshotQuery{SampleFraction: c, AvgSeed: seed}
	got, want := eng.AnalyzeSnapshot(q), referenceSnapshot(q, g)
	requireSameResult(t, label+" snapshot.Min", got.Min, want.Min)
	requireSameResult(t, label+" snapshot.Avg", got.Avg, want.Avg)
	requireSameResult(t, label+" minpair",
		eng.Analyze(Query{SampleFraction: c, MinOnly: true}),
		referenceAnalyze(Options{SampleFraction: c, MinOnly: true}, g))
}

// requireValidCut checks a GraphCut answer against the independent
// references: the pair is the reference MinPair, the cut has
// fresh-Dinic kappa(pair) vertices and separates the pair, and it is
// the cut a freshly bound engine extracts.
func requireValidCut(t *testing.T, label string, g *graph.Digraph, c float64, cut []int, pair [2]int, ok bool) {
	t.Helper()
	ref := referenceAnalyze(Options{SampleFraction: c, MinOnly: true}, g)
	if !ok {
		if !ref.Complete && ref.MinPair[0] >= 0 {
			t.Fatalf("%s: no cut, but the reference found pair %v", label, ref.MinPair)
		}
		return
	}
	if pair != ref.MinPair {
		t.Fatalf("%s: cut pair %v, reference MinPair %v", label, pair, ref.MinPair)
	}
	kappa, err := Pair(g, pair[0], pair[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(cut) != kappa {
		t.Fatalf("%s: cut %v has %d vertices, kappa%v = %d", label, cut, len(cut), pair, kappa)
	}
	reduced, mapping := RemoveVertices(g, cut)
	if k, err := Pair(reduced, mapping[pair[0]], mapping[pair[1]]); err != nil || k != 0 {
		t.Fatalf("%s: removing cut %v leaves kappa%v = %d (%v)", label, cut, pair, k, err)
	}
	fresh, err := PairCut(g, pair[0], pair[1])
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(cut, fresh) {
		t.Fatalf("%s: cut %v, freshly bound cut %v", label, cut, fresh)
	}
}

// TestRebindMatchesBind walks one engine through a chain of
// edge-mutated graphs via RebindSlots (identity order, so every step is
// a same-membership patch) and checks every analysis against the
// independent reference implementation — the engine-level differential
// oracle (churntest replays the same contract against membership churn
// too).
func TestRebindMatchesBind(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g := randomSymmetricGraph(5, 50, 400)
	order := identityOrder(g.N())
	inc := MustNewEngine(EngineOptions{Workers: 2})
	inc.Bind(g)
	var delta graph.Delta
	for step := 0; step < 20; step++ {
		next := mutateEdges(r, g, 1+r.Intn(6), 1+r.Intn(6))
		graph.DiffInto(g, next, &delta)
		if !inc.RebindSlots(next, delta, order) {
			t.Fatalf("step %d: RebindSlots refused a same-N delta", step)
		}
		requireMatchesReference(t, "step", inc, next, 0.3, int64(step))
		g = next
	}
	if inc.Rebinds() != 20 {
		t.Fatalf("Rebinds = %d, want 20", inc.Rebinds())
	}
	if inc.MembershipRebinds() != 0 {
		t.Fatalf("MembershipRebinds = %d on a fixed membership, want 0", inc.MembershipRebinds())
	}
}

// TestRebindCutPathMatchesBind pins the patched cut-mode network: the
// minimum vertex cuts after a chain of same-membership rebinds must be
// valid minimum cuts at the reference MinPair and equal a freshly bound
// engine's, and the cut network must never be rebuilt from scratch —
// the adversary's strike loop stays on one network across arbitrarily
// many patched snapshots.
func TestRebindCutPathMatchesBind(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	g := randomSymmetricGraph(6, 40, 260)
	order := identityOrder(g.N())
	inc := MustNewEngine(EngineOptions{Workers: 1})
	inc.Bind(g)
	var delta graph.Delta
	cuts := 0
	for step := 0; step < 15; step++ {
		next := mutateEdges(r, g, 1+r.Intn(4), 1+r.Intn(4))
		graph.DiffInto(g, next, &delta)
		inc.RebindSlots(next, delta, order)
		cut, pair, ok, err := inc.GraphCut(Query{SampleFraction: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		requireValidCut(t, "step", next, 0.5, cut, pair, ok)
		if ok {
			cuts++
		}
		g = next
	}
	if cuts == 0 {
		t.Fatal("trace produced no usable cuts; weak test")
	}
	if builds := inc.CutNetworkBuilds(); builds != 1 {
		t.Fatalf("cut network built %d times across rebinds, want 1", builds)
	}
}

// TestRebindFallsBackOnShapeChange pins the fallback contract: a nil
// binding or a different slot count silently becomes a full bind.
func TestRebindFallsBackOnShapeChange(t *testing.T) {
	g1 := randomSymmetricGraph(7, 30, 150)
	g2 := randomSymmetricGraph(8, 31, 150)
	eng := MustNewEngine(EngineOptions{Workers: 1})
	if eng.RebindSlots(g1, graph.Delta{}, identityOrder(g1.N())) {
		t.Fatal("RebindSlots with no previous binding must fall back")
	}
	q := Query{SampleFraction: 1.0, MinOnly: true}
	want := referenceAnalyze(Options{SampleFraction: 1.0, MinOnly: true}, g1)
	requireSameResult(t, "after nil fallback", eng.Analyze(q), want)
	if eng.RebindSlots(g2, graph.Delta{}, identityOrder(g2.N())) {
		t.Fatal("RebindSlots across slot counts must fall back")
	}
	want = referenceAnalyze(Options{SampleFraction: 1.0, MinOnly: true}, g2)
	requireSameResult(t, "after shape fallback", eng.Analyze(q), want)
	if eng.Rebinds() != 0 {
		t.Fatalf("Rebinds = %d after two fallbacks, want 0", eng.Rebinds())
	}
}

// TestIncrementalBinderPaths pins the binder's routing: a successor in
// the same slot space takes RebindSlots (with or without a membership
// change), a grown slot table takes a full bind, and the counts are
// observable.
func TestIncrementalBinderPaths(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g := randomSymmetricGraph(9, 40, 240)
	eng := MustNewEngine(EngineOptions{Workers: 1})
	b := NewIncrementalBinder(eng)
	if b.BindNextSlots(g, identityOrder(40)) {
		t.Fatal("first bind cannot be incremental")
	}
	g2 := mutateEdges(r, g, 3, 3)
	if !b.BindNextSlots(g2, identityOrder(40)) {
		t.Fatal("same-membership successor should rebind incrementally")
	}
	g3 := randomSymmetricGraph(10, 41, 240) // slot table grew
	if b.BindNextSlots(g3, identityOrder(41)) {
		t.Fatal("slot-table growth must full-bind")
	}
	// Slot 5 leaves: its edges go and the order skips it.
	g4 := g3.Clone()
	for _, e := range g3.Edges() {
		if e.U == 5 || e.V == 5 {
			g4.RemoveEdge(e.U, e.V)
		}
	}
	order4 := append(identityOrder(5), identityOrder(41)[6:]...)
	if !b.BindNextSlots(g4, order4) {
		t.Fatal("a leave within the slot space should rebind incrementally")
	}
	if b.IncrementalBinds() != 2 || b.FullBinds() != 2 {
		t.Fatalf("binder counters: incremental=%d full=%d, want 2/2", b.IncrementalBinds(), b.FullBinds())
	}
	if eng.MembershipRebinds() != 1 {
		t.Fatalf("MembershipRebinds = %d, want 1", eng.MembershipRebinds())
	}
	dense, _ := RemoveVertices(g3, []int{5})
	requireSameResult(t, "after leave",
		eng.Analyze(Query{SampleFraction: 1.0, MinOnly: true}),
		referenceAnalyze(Options{SampleFraction: 1.0, MinOnly: true}, dense))
}
