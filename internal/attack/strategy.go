package attack

import (
	"math/rand"
	"sort"

	"kadre/internal/connectivity"
	"kadre/internal/id"
	"kadre/internal/snapshot"
)

// eclipseTargetLabel seeds the default Eclipse target: hashing a fixed
// label keeps unconfigured eclipse runs deterministic.
const eclipseTargetLabel = "kadre/attack/eclipse-target"

// selectVictims returns count distinct rank indexes of the slot capture
// s to remove, according to the engine's strategy; strike keeps count
// within [1, s.N()-2]. Every strategy is deterministic given the capture
// (and, for Random, the simulator's seeded generator), so attack runs
// replay exactly under a seed.
func (e *Engine) selectVictims(s *snapshot.SlotSnapshot, count int) []int {
	switch e.cfg.Strategy {
	case Random:
		return selectRandom(s, count, e.sim.Rand())
	case Degree:
		return selectDegreeRanks(s, count)
	case Cutset:
		return e.selectCutset(s, count)
	case Eclipse:
		return e.selectEclipse(s, count)
	default:
		return nil // unreachable: NewEngine validates the strategy
	}
}

// selectRandom picks count distinct ranks uniformly from the seeded
// generator — the baseline comparable to the paper's random churn, but on
// the adversary's schedule.
func selectRandom(s *snapshot.SlotSnapshot, count int, rng *rand.Rand) []int {
	return rng.Perm(s.N())[:count]
}

// selectCutset picks vertices on a minimum vertex cut of a stable-slot
// reconnaissance capture — the nodes whose removal the paper's own
// metric identifies as optimal (Equation 2's compromised set). The flow
// engine binds the slot graph with its compaction map, incrementally
// across strikes since slot identity survives the adversary's own
// removals and the interleaved churn, and GraphCut answers in dense rank
// numbering, which is exactly the victim-indexing space of the capture's
// Addrs/IDs. The cut is deterministic because the engine's MinPair is
// scheduling-independent. A cut covering count is truncated (GraphCut
// returns sorted vertices); a shorter one is topped up with the
// highest-degree remaining vertices; a graph with no usable cut
// (complete, or a sample with no evaluable pair) falls back to the
// degree order entirely.
func (e *Engine) selectCutset(s *snapshot.SlotSnapshot, count int) []int {
	e.connBinder.BindNextSlots(s.Graph, s.Order)
	cut, _, ok, err := e.conn.GraphCut(connectivity.Query{
		SampleFraction: e.cfg.SampleFraction,
	})
	if err != nil || !ok || len(cut) == 0 {
		return selectDegreeRanks(s, count)
	}
	if len(cut) >= count {
		return cut[:count]
	}
	picked := make(map[int]bool, count)
	out := make([]int, 0, count)
	for _, v := range cut {
		picked[v] = true
		out = append(out, v)
	}
	for _, v := range selectDegreeRanks(s, s.N()) {
		if len(out) == count {
			break
		}
		if !picked[v] {
			picked[v] = true
			out = append(out, v)
		}
	}
	return out
}

// selectDegreeRanks picks the count ranks with the largest total
// slot-graph degree (out plus in), ties broken by rank so runs are
// deterministic.
func selectDegreeRanks(s *snapshot.SlotSnapshot, count int) []int {
	in := s.Graph.InDegrees()
	order := make([]int, s.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := s.Order[order[a]], s.Order[order[b]]
		da := s.Graph.OutDegree(sa) + in[sa]
		db := s.Graph.OutDegree(sb) + in[sb]
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	return order[:count]
}

// selectEclipse picks the count vertices whose identifiers are closest to
// the target under the XOR metric, erasing the nodes responsible for the
// target's keyspace region.
func (e *Engine) selectEclipse(s *snapshot.SlotSnapshot, count int) []int {
	if e.target.IsZeroValue() {
		e.target = id.Hash(s.IDs[0].Bits(), []byte(eclipseTargetLabel))
	}
	order := make([]int, s.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := order[a], order[b]
		if s.IDs[va].CloserTo(e.target, s.IDs[vb]) {
			return true
		}
		if s.IDs[vb].CloserTo(e.target, s.IDs[va]) {
			return false
		}
		return va < vb // identical distance is impossible for distinct IDs
	})
	return order[:count]
}
