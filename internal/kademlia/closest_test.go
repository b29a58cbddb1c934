package kademlia

import (
	"math/rand"
	"sort"
	"testing"

	"kadre/internal/id"
	"kadre/internal/simnet"
)

// randomTable builds a table that has observed uniform random peers, which
// crowd the high buckets, and near peers drawn for a random bucket each,
// which populate the low ones. Full buckets leave the surplus in
// replacement caches.
func randomTable(r *rand.Rand, bits, k, uniform, near int) *RoutingTable {
	self := id.Random(bits, r)
	rt := NewRoutingTable(self, Config{Bits: bits, K: k})
	for i := 0; i < uniform+near; i++ {
		pid := id.Random(bits, r)
		if i >= uniform {
			pid = id.RandomInBucket(self, r.Intn(bits), r)
		}
		rt.Observe(Contact{ID: pid, Addr: simnet.Addr(i + 1)})
	}
	return rt
}

// bruteClosest is the reference selection: sort every contact by distance
// to target, drop skip, keep the first count.
func bruteClosest(rt *RoutingTable, target id.ID, count int, skip id.ID) []Contact {
	var all []Contact
	for _, c := range rt.Contacts() {
		if !c.ID.Equal(skip) {
			all = append(all, c)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID.CloserTo(target, all[j].ID) })
	if len(all) > count {
		all = all[:count]
	}
	return all
}

func TestClosestMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, bits := range []int{80, 160} {
		for trial := 0; trial < 40; trial++ {
			k := []int{1, 3, 5, 20}[trial%4]
			rt := randomTable(r, bits, k, r.Intn(200), r.Intn(200))
			// Removals empty some buckets again.
			for _, c := range rt.Contacts() {
				if r.Intn(4) == 0 {
					rt.Remove(c.ID)
				}
			}
			contacts := rt.Contacts()
			self := rt.Self()
			targets := []id.ID{self, id.Random(bits, r)}
			for i := 0; i < 4; i++ {
				targets = append(targets, id.RandomInBucket(self, r.Intn(bits), r))
			}
			skips := []id.ID{{}, id.Random(bits, r)} // none, absent
			if len(contacts) > 0 {
				present := contacts[r.Intn(len(contacts))]
				targets = append(targets, present.ID)
				skips = append(skips, present.ID, contacts[r.Intn(len(contacts))].ID)
			}
			for _, target := range targets {
				for _, skip := range skips {
					for _, count := range []int{1, k, k + 1, rt.Size() + 3} {
						want := bruteClosest(rt, target, count, skip)
						got := rt.closest(target, count, skip)
						if len(got) != len(want) {
							t.Fatalf("bits %d k %d size %d count %d: got %d contacts, want %d",
								bits, k, rt.Size(), count, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("bits %d k %d size %d count %d: [%d] = %v, want %v",
									bits, k, rt.Size(), count, i, got[i], want[i])
							}
						}
						if skip.IsZeroValue() {
							if pub := rt.Closest(target, count); len(pub) != len(got) {
								t.Fatalf("Closest returned %d contacts, closest %d", len(pub), len(got))
							}
						}
					}
				}
			}
		}
	}
}

// TestFindNodeSelectionAllocs pins the cost of answering one FIND_NODE on
// a full table: the fresh response slice is the only allocation.
func TestFindNodeSelectionAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rt := randomTable(r, 160, DefaultK, 2000, 0)
	contacts := rt.Contacts()
	target := id.Random(160, r)
	requester := contacts[len(contacts)/2].ID
	allocs := testing.AllocsPerRun(100, func() {
		if got := rt.closest(target, DefaultK, requester); len(got) != DefaultK {
			t.Fatalf("selected %d contacts, want %d", len(got), DefaultK)
		}
	})
	if allocs != 1 {
		t.Fatalf("FIND_NODE selection allocates %v objects, want 1", allocs)
	}
}

var closestSink []Contact

// BenchmarkClosest measures one FIND_NODE selection (k = 20, the
// requester excluded) on a 160-bit table that has observed 2000 random
// peers, so every populated bucket is full.
func BenchmarkClosest(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	rt := randomTable(r, 160, DefaultK, 2000, 0)
	contacts := rt.Contacts()
	targets := make([]id.ID, 256)
	for i := range targets {
		targets[i] = id.Random(160, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		closestSink = rt.closest(targets[i%len(targets)], DefaultK, contacts[i%len(contacts)].ID)
	}
}
