package kademlia

import (
	"fmt"
	"math/bits"

	"kadre/internal/id"
	"kadre/internal/simnet"
)

// Contact is a routing-table entry: another node's identifier and network
// address.
type Contact struct {
	ID   id.ID
	Addr simnet.Addr
}

// String implements fmt.Stringer.
func (c Contact) String() string {
	return fmt.Sprintf("%s@%d", c.ID, c.Addr)
}

// entry is a live routing-table slot with staleness bookkeeping.
type entry struct {
	contact Contact
	// fails counts consecutive failed communication attempts; the contact
	// is evicted when fails reaches the staleness limit s.
	fails int
	// pingInFlight suppresses duplicate liveness probes for this entry.
	pingInFlight bool
}

// bucket is one k-bucket: entries in least-recently-seen-first order plus
// a bounded replacement cache of contacts that arrived while full. Entries
// are stored by value so that scanning a bucket reads one contiguous array.
type bucket struct {
	entries      []entry
	replacements []Contact // oldest first; newest appended at the end
}

func (b *bucket) find(nodeID id.ID) int {
	for i := range b.entries {
		if b.entries[i].contact.ID.Equal(nodeID) {
			return i
		}
	}
	return -1
}

// findStale returns the index of the first entry with fails >= limit that
// has no ping outstanding, or -1.
func (b *bucket) findStale(limit int) int {
	for i := range b.entries {
		if e := &b.entries[i]; e.fails >= limit && !e.pingInFlight {
			return i
		}
	}
	return -1
}

// moveToBack makes entry i the most recently seen and returns it.
func (b *bucket) moveToBack(i int) *entry {
	e := b.entries[i]
	last := len(b.entries) - 1
	copy(b.entries[i:], b.entries[i+1:])
	b.entries[last] = e
	return &b.entries[last]
}

func (b *bucket) removeReplacement(nodeID id.ID) {
	for i, c := range b.replacements {
		if c.ID.Equal(nodeID) {
			b.replacements = append(b.replacements[:i], b.replacements[i+1:]...)
			return
		}
	}
}

// RoutingTable is a node's view of the network: Bits k-buckets indexed by
// XOR distance (bucket i holds contacts with 2^i <= dist < 2^(i+1)).
// It is not safe for concurrent use; the simulation is single-threaded.
type RoutingTable struct {
	self    id.ID
	cfg     Config
	buckets []*bucket
	size    int

	// occupied has bit i%64 of word i/64 set while bucket i is non-empty,
	// so Closest skips empty buckets without touching them.
	occupied [id.MaxBits / 64]uint64
	// picks is Closest's selection scratch, reused across calls.
	picks []pick
}

// pick is a selection candidate: entry e of bucket b, ranked by key, the
// leading 64 bits of its XOR distance to the target. It holds no pointer,
// so shifting picks needs no write barriers.
type pick struct {
	key  uint64
	b, e int32
}

// NewRoutingTable builds an empty table for the given owner.
func NewRoutingTable(self id.ID, cfg Config) *RoutingTable {
	cfg = cfg.WithDefaults()
	buckets := make([]*bucket, cfg.Bits)
	for i := range buckets {
		buckets[i] = &bucket{}
	}
	return &RoutingTable{self: self, cfg: cfg, buckets: buckets}
}

// Self returns the owner's identifier.
func (rt *RoutingTable) Self() id.ID { return rt.self }

// Size returns the number of live contacts across all buckets.
func (rt *RoutingTable) Size() int { return rt.size }

// Contains reports whether nodeID is a live contact.
func (rt *RoutingTable) Contains(nodeID id.ID) bool {
	if nodeID.Equal(rt.self) {
		return false
	}
	b := rt.bucketFor(nodeID)
	return b != nil && b.find(nodeID) >= 0
}

// ObserveResult reports the consequences of an Observe call.
type ObserveResult struct {
	// Inserted is true when the contact now occupies a bucket slot.
	Inserted bool
	// NeedsPing, when non-zero, is the least-recently-seen entry of the
	// full bucket; the caller should ping it to test liveness. The entry
	// is marked ping-in-flight until RecordSuccess or RecordFailure.
	NeedsPing *Contact
}

// Observe records direct communication with a contact, per the protocol:
// "when a Kademlia node receives any message (request or reply) from
// another node, it updates the appropriate k-bucket for the sender's node
// ID". A known contact moves to most-recently-seen and its failure count
// resets. An unknown contact fills a free slot, or directly replaces a
// stale (failure count >= s) entry of a full bucket; otherwise it joins
// the replacement cache and the least-recently-seen live entry is
// nominated for a liveness ping.
func (rt *RoutingTable) Observe(c Contact) ObserveResult {
	if c.ID.Equal(rt.self) || c.ID.IsZeroValue() {
		return ObserveResult{}
	}
	bi := rt.self.BucketIndex(c.ID)
	b := rt.buckets[bi]
	if i := b.find(c.ID); i >= 0 {
		e := b.moveToBack(i)
		e.fails = 0
		e.contact = c // refresh address
		return ObserveResult{Inserted: true}
	}
	if len(b.entries) < rt.cfg.K {
		if len(b.entries) == cap(b.entries) {
			// Double, but never past k: a bucket holds no more.
			grown := make([]entry, len(b.entries), min(max(2*cap(b.entries), 1), rt.cfg.K))
			copy(grown, b.entries)
			b.entries = grown
		}
		b.entries = append(b.entries, entry{contact: c})
		rt.size++
		rt.occupied[bi/64] |= 1 << (bi % 64)
		return ObserveResult{Inserted: true}
	}
	// Bucket full: a stale entry (>= s consecutive failures) is replaced
	// outright by the newcomer we just heard from.
	if i := b.findStale(rt.cfg.StalenessLimit); i >= 0 {
		*b.moveToBack(i) = entry{contact: c}
		return ObserveResult{Inserted: true}
	}
	// Otherwise stash in the replacement cache (dropping the oldest
	// beyond capacity) and nominate the least-recently-seen entry for a
	// liveness check.
	b.removeReplacement(c.ID)
	b.replacements = append(b.replacements, c)
	if len(b.replacements) > rt.cfg.ReplacementCacheSize {
		b.replacements = b.replacements[1:]
	}
	lrs := &b.entries[0]
	if lrs.pingInFlight {
		return ObserveResult{}
	}
	lrs.pingInFlight = true
	probe := lrs.contact
	return ObserveResult{NeedsPing: &probe}
}

// RecordSuccess resets a contact's staleness budget and marks it
// most-recently-seen after a successful exchange initiated by us.
func (rt *RoutingTable) RecordSuccess(nodeID id.ID) {
	if nodeID.Equal(rt.self) {
		return
	}
	b := rt.bucketFor(nodeID)
	i := b.find(nodeID)
	if i < 0 {
		return
	}
	e := b.moveToBack(i)
	e.fails = 0
	e.pingInFlight = false
}

// RecordFailure charges one failed communication attempt against a
// contact. After s consecutive failures the contact is stale: it is
// evicted in favour of the freshest replacement-cache contact when one
// exists. With an empty replacement cache the stale entry is retained —
// a node never evicts into a hole, exactly like the Mainline DHT (BEP 5,
// the paper's reference [17]) keeps "bad" nodes until replacements
// arrive. Retained stale entries are the first to be replaced by any
// newly observed contact, and a later successful exchange fully
// rehabilitates them. RecordFailure reports whether the contact was
// evicted.
//
// This retention rule is what lets message loss *increase* connectivity
// (the paper's Simulation J): failures rotate bucket membership instead
// of shrinking tables, so the topology re-wires toward a more even
// in-degree distribution.
func (rt *RoutingTable) RecordFailure(nodeID id.ID) bool {
	if nodeID.Equal(rt.self) {
		return false
	}
	b := rt.bucketFor(nodeID)
	i := b.find(nodeID)
	if i < 0 {
		return false
	}
	e := &b.entries[i]
	e.pingInFlight = false
	if e.fails < rt.cfg.StalenessLimit {
		e.fails++ // cap the counter at s; staleness is already decided
	}
	if e.fails < rt.cfg.StalenessLimit {
		return false
	}
	n := len(b.replacements)
	if n == 0 {
		return false // no substitute: keep the stale entry (BEP 5 rule)
	}
	promoted := b.replacements[n-1]
	b.replacements = b.replacements[:n-1]
	*b.moveToBack(i) = entry{contact: promoted}
	return true
}

// IsStale reports whether a contact is present but marked stale (failure
// count at the staleness limit).
func (rt *RoutingTable) IsStale(nodeID id.ID) bool {
	if nodeID.Equal(rt.self) {
		return false
	}
	b := rt.bucketFor(nodeID)
	i := b.find(nodeID)
	return i >= 0 && b.entries[i].fails >= rt.cfg.StalenessLimit
}

// StaleCount returns the number of stale entries across all buckets.
func (rt *RoutingTable) StaleCount() int {
	count := 0
	for _, b := range rt.buckets {
		for i := range b.entries {
			if b.entries[i].fails >= rt.cfg.StalenessLimit {
				count++
			}
		}
	}
	return count
}

// Remove unconditionally drops a contact (used by tests and by node
// shutdown paths); the replacement cache is not consulted.
func (rt *RoutingTable) Remove(nodeID id.ID) bool {
	if nodeID.Equal(rt.self) {
		return false
	}
	bi := rt.self.BucketIndex(nodeID)
	b := rt.buckets[bi]
	i := b.find(nodeID)
	if i < 0 {
		return false
	}
	b.entries = append(b.entries[:i], b.entries[i+1:]...)
	rt.size--
	if len(b.entries) == 0 {
		rt.occupied[bi/64] &^= 1 << (bi % 64)
	}
	return true
}

// Closest returns up to count live contacts closest to target under the
// XOR metric, ascending by distance.
//
// It selects by walking buckets in distance order instead of sorting the
// whole table. With j = self.BucketIndex(target), bucket j holds every
// contact closer to target than 2^j; all buckets below j share top
// distance bit j; each higher bucket i > j has top distance bit i. So the
// groups "bucket j", "buckets 0..j-1", "bucket j+1", ..., are ordered
// (target == self makes j = -1: bucket 0, 1, ... in turn), and the walk
// stops at the first group boundary where count contacts are held; it
// visits only non-empty buckets, found through an occupancy bitmap. Within
// a group, contacts go into a bounded sorted array by the first 64-bit
// word of their distance, with a full CloserTo on equal words. XOR
// distances to one target are unique, so this yields exactly the order of
// a full sort of Contacts. The returned slice is freshly allocated and
// is the only allocation.
func (rt *RoutingTable) Closest(target id.ID, count int) []Contact {
	return rt.closest(target, count, id.ID{})
}

// closest is Closest leaving out the contact skip (a requester, which
// knows itself already); the zero ID skips nothing.
func (rt *RoutingTable) closest(target id.ID, count int, skip id.ID) []Contact {
	if count <= 0 {
		return []Contact{}
	}
	picks := rt.picks[:0]
	tp := target.Prefix64()
	skipKey := skip.Prefix64() ^ tp
	add := func(b int) {
		entries := rt.buckets[b].entries
		for i := range entries {
			c := &entries[i].contact
			p := pick{key: c.ID.Prefix64() ^ tp, b: int32(b), e: int32(i)}
			n := len(picks)
			if n == count && !rt.closer(p, picks[n-1], &target) {
				continue
			}
			if p.key == skipKey && c.ID.Equal(skip) {
				continue
			}
			if n < count {
				picks = append(picks, p)
			} else {
				n-- // the farthest pick drops out
			}
			for n > 0 && rt.closer(p, picks[n-1], &target) {
				picks[n] = picks[n-1]
				n--
			}
			picks[n] = p
		}
	}
	j := rt.self.BucketIndex(target)
	if j >= 0 {
		add(j)
		if len(picks) < count {
			// Buckets below j are one group: none is ordered before
			// another, so the walk cannot stop inside it.
			for i := rt.nextOccupied(0); i < j; i = rt.nextOccupied(i + 1) {
				add(i)
			}
		}
	}
	for i := rt.nextOccupied(j + 1); i < len(rt.buckets) && len(picks) < count; i = rt.nextOccupied(i + 1) {
		add(i)
	}
	out := make([]Contact, len(picks))
	for i, p := range picks {
		out[i] = *rt.contact(p)
	}
	rt.picks = picks
	return out
}

// nextOccupied returns the lowest non-empty bucket index >= i, or
// len(rt.buckets) when there is none.
func (rt *RoutingTable) nextOccupied(i int) int {
	for w := i / 64; w < len(rt.occupied); w++ {
		m := rt.occupied[w]
		if w == i/64 {
			m &= ^uint64(0) << (i % 64)
		}
		if m != 0 {
			return w*64 + bits.TrailingZeros64(m)
		}
	}
	return len(rt.buckets)
}

func (rt *RoutingTable) contact(p pick) *Contact {
	return &rt.buckets[p.b].entries[p.e].contact
}

// closer reports whether pick p is strictly closer to target than q. It
// stays small enough to inline; equal keys, which are rare, take a call.
func (rt *RoutingTable) closer(p, q pick, target *id.ID) bool {
	if p.key != q.key {
		return p.key < q.key
	}
	return rt.closerTie(p, q, target)
}

func (rt *RoutingTable) closerTie(p, q pick, target *id.ID) bool {
	return rt.contact(p).ID.CloserTo(*target, rt.contact(q).ID)
}

// Contacts returns every live contact, bucket by bucket.
func (rt *RoutingTable) Contacts() []Contact {
	out := make([]Contact, 0, rt.size)
	for _, b := range rt.buckets {
		for i := range b.entries {
			out = append(out, b.entries[i].contact)
		}
	}
	return out
}

// BucketLen returns the number of live contacts in bucket i.
func (rt *RoutingTable) BucketLen(i int) int {
	return len(rt.buckets[i].entries)
}

// BucketCount returns the number of buckets (the id bit-length).
func (rt *RoutingTable) BucketCount() int { return len(rt.buckets) }

// RefreshTargets returns the bucket indexes that periodic refresh should
// probe: every bucket from just below the lowest non-empty one upward.
// Refreshing all Bits buckets (the literal protocol) would waste most
// lookups on distance ranges where no nodes can exist; this covers every
// populated range plus one deeper bucket, and is documented as a
// substitution in DESIGN.md.
func (rt *RoutingTable) RefreshTargets() []int {
	lowest := -1
	for i, b := range rt.buckets {
		if len(b.entries) > 0 {
			lowest = i
			break
		}
	}
	if lowest < 0 {
		return nil
	}
	if lowest > 0 {
		lowest--
	}
	out := make([]int, 0, len(rt.buckets)-lowest)
	for i := lowest; i < len(rt.buckets); i++ {
		out = append(out, i)
	}
	return out
}

func (rt *RoutingTable) bucketFor(nodeID id.ID) *bucket {
	i := rt.self.BucketIndex(nodeID)
	if i < 0 {
		return nil
	}
	return rt.buckets[i]
}
