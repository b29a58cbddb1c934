package graph

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzDiffApply is the native fuzz oracle for the delta machinery: an
// arbitrary byte string decodes into a base slot graph (with some slots
// vacant), a mutation batch (edge churn plus slot activations and
// deactivations), and the resulting current graph. The invariants:
//
//   - DiffInto's edge delta applied to a clone of the base reconstructs
//     the current graph exactly (apply-vs-rebuild equivalence);
//   - DiffSlotsInto's vertex records equal the activation difference of
//     the two orders, sorted ascending;
//   - diffing a graph against itself is empty, and applying the reverse
//     delta undoes the forward one.
//
// CI runs a short -fuzztime smoke of this target; the checked-in corpus
// seeds cover the interesting shapes (vacancy, recycling, empty deltas).
func FuzzDiffApply(f *testing.F) {
	f.Add([]byte{8, 3, 12, 200, 9, 77})
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{16, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		n := 2 + next()%14 // slot count
		active := make([]bool, n)
		for v := range active {
			active[v] = next()%4 != 0 // ~3/4 of slots start active
		}
		base := NewDigraph(n)
		for i, m := 0, next()%32; i < m; i++ {
			u, v := next()%n, next()%n
			if u != v && active[u] && active[v] && !base.HasEdge(u, v) {
				base.AddEdge(u, v)
			}
		}
		oldOrder := orderOf(active)

		// Mutate: edge churn plus membership changes. Deactivating a slot
		// drops its incident edges (the capture never emits edges at a
		// vacant slot); activating one wires it randomly.
		cur := base.Clone()
		for i, m := 0, next()%24; i < m; i++ {
			switch next() % 4 {
			case 0: // deactivate a slot
				v := next() % n
				if !active[v] {
					continue
				}
				active[v] = false
				for u := 0; u < n; u++ {
					if u == v {
						continue
					}
					cur.RemoveEdge(u, v)
					cur.RemoveEdge(v, u)
				}
			case 1: // activate a slot and wire it
				v := next() % n
				if active[v] {
					continue
				}
				active[v] = true
				for d, deg := 0, next()%4; d < deg; d++ {
					u := next() % n
					if u != v && active[u] && !cur.HasEdge(v, u) {
						cur.AddEdge(v, u)
					}
				}
			case 2: // add an edge between active slots
				u, v := next()%n, next()%n
				if u != v && active[u] && active[v] && !cur.HasEdge(u, v) {
					cur.AddEdge(u, v)
				}
			default: // remove an edge
				u, v := next()%n, next()%n
				if u != v {
					cur.RemoveEdge(u, v)
				}
			}
		}
		newOrder := orderOf(active)

		var d Delta
		DiffSlotsInto(base, cur, oldOrder, newOrder, &d)

		// Apply-vs-rebuild: the edge delta reconstructs cur from base.
		patched := base.Clone()
		if !d.ApplyTo(patched) {
			t.Fatalf("delta inconsistent with its own base: %+v", d)
		}
		if !patched.Equal(cur) {
			t.Fatalf("patched graph differs from rebuilt: base+delta != cur\nadded=%v removed=%v", d.Added, d.Removed)
		}

		// Vertex records match the activation difference exactly.
		wantAdd, wantRem := activationDiff(oldOrder, newOrder, n)
		if !intsEqual(d.AddedVerts, wantAdd) || !intsEqual(d.RemovedVerts, wantRem) {
			t.Fatalf("vertex records: got added=%v removed=%v, want %v / %v",
				d.AddedVerts, d.RemovedVerts, wantAdd, wantRem)
		}

		// Reversal: the inverse delta restores the base graph.
		rev := Delta{Added: d.Removed, Removed: d.Added}
		if !rev.ApplyTo(patched) {
			t.Fatal("reverse delta inconsistent")
		}
		if !patched.Equal(base) {
			t.Fatal("reverse delta did not restore the base graph")
		}

		// Self-diff is empty.
		var selfD Delta
		DiffSlotsInto(cur, cur, newOrder, newOrder, &selfD)
		if selfD.Len() != 0 || len(selfD.AddedVerts) != 0 || len(selfD.RemovedVerts) != 0 {
			t.Fatalf("self-diff not empty: %+v", selfD)
		}
	})
}

func orderOf(active []bool) []int {
	var order []int
	for v, a := range active {
		if a {
			order = append(order, v)
		}
	}
	return order
}

func activationDiff(oldOrder, newOrder []int, n int) (added, removed []int) {
	old := make([]bool, n)
	for _, v := range oldOrder {
		old[v] = true
	}
	cur := make([]bool, n)
	for _, v := range newOrder {
		cur[v] = true
	}
	for v := 0; v < n; v++ {
		if cur[v] && !old[v] {
			added = append(added, v)
		}
		if old[v] && !cur[v] {
			removed = append(removed, v)
		}
	}
	return added, removed
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fuzzMaxVertices caps the vertex counts FuzzReadDIMACS feeds through:
// a legal count up to MaxVertices allocates gigabytes of adjacency, which
// says nothing about the parser. Counts above MaxVertices still run —
// they exercise the rejection path without allocating.
const fuzzMaxVertices = 1 << 16

// FuzzReadDIMACS holds the DIMACS reader — a kadconn -in input — to its
// contract on arbitrary bytes: it returns an error or a problem but never
// panics, and an accepted problem is well formed (pairs in range and
// distinct) and survives a WriteDIMACS/ReadDIMACS round trip unchanged.
func FuzzReadDIMACS(f *testing.F) {
	f.Add("p max 4 3\nn 1 s\nn 4 t\nc pair 2 4\na 1 2 1\na 2 3 1\na 3 4 1\n")
	f.Add("p max 2 1\na 2 2 1\n")
	f.Add("p max 9999999999999 0\n")
	f.Add("c comment only\n")
	f.Add("p max 3 0\nn 3 s\nn 3 t\n")
	f.Fuzz(func(t *testing.T, in string) {
		for _, line := range strings.Split(in, "\n") {
			if fields := strings.Fields(line); len(fields) == 4 && fields[0] == "p" {
				if n, err := strconv.Atoi(fields[2]); err == nil && n > fuzzMaxVertices && n <= MaxVertices {
					t.Skip("vertex count allocates beyond the fuzz budget")
				}
			}
		}
		prob, err := ReadDIMACS(strings.NewReader(in))
		if err != nil {
			return
		}
		g := prob.Graph
		for _, p := range prob.Pairs {
			if checkPair(g, p) != nil {
				t.Fatalf("accepted invalid pair %v on %d vertices", p, g.N())
			}
		}
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, g, prob.Pairs...); err != nil {
			t.Fatalf("accepted problem does not write back: %v", err)
		}
		back, err := ReadDIMACS(&buf)
		if err != nil {
			t.Fatalf("written problem does not read back: %v", err)
		}
		if !back.Graph.Equal(g) || !slices.Equal(back.Pairs, prob.Pairs) {
			t.Fatalf("round trip changed the problem: %d/%d vertices, pairs %v -> %v",
				g.N(), back.Graph.N(), prob.Pairs, back.Pairs)
		}
	})
}
