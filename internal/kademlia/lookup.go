package kademlia

import (
	"sort"

	"kadre/internal/id"
)

// The iterative lookup procedure (§4.1 of the paper): starting from the k
// closest known contacts, query alpha of them in parallel; each response
// contributes new, closer candidates; the lookup converges on the target
// and terminates once the k closest discovered nodes have all been
// successfully contacted (or no progress is possible), or — for value
// lookups — as soon as any node returns the value.

type lookupKind int

const (
	lookupNode lookupKind = iota + 1
	lookupValue
)

type candidateState int

const (
	stateUnqueried candidateState = iota + 1
	stateInflight
	stateResponded
	stateFailed
)

type candidate struct {
	contact Contact
	key     uint64 // leading 64 bits of the distance to the target
	state   candidateState
}

type lookup struct {
	node   *Node
	target id.ID
	kind   lookupKind

	// slab holds the candidates in discovery order and order indexes it
	// ascending by XOR distance to target; an index stays valid as slab
	// grows, a pointer would not.
	slab      []candidate
	order     []int32
	targetKey uint64 // target.Prefix64()
	inflight  int
	responded int
	finished  bool

	// claim, when set, must approve every candidate before it joins this
	// lookup; disjoint-path lookups share one claim set across paths so
	// no two paths traverse the same node. A rejected contact is offered
	// again each time it is rediscovered, so claim must keep rejecting an
	// ID it rejected once.
	claim func(id.ID) bool

	onComplete func(closest []Contact, responded int)
	onValue    func(value []byte)
}

func newLookup(n *Node, target id.ID, kind lookupKind, onValue func([]byte)) *lookup {
	return &lookup{
		node:      n,
		target:    target,
		kind:      kind,
		slab:      make([]candidate, 0, 2*n.cfg.K),
		order:     make([]int32, 0, 2*n.cfg.K),
		targetKey: target.Prefix64(),
		onValue:   onValue,
	}
}

func (l *lookup) start() {
	for _, c := range l.node.table.Closest(l.target, l.node.cfg.K) {
		l.addCandidate(c)
	}
	l.step()
}

// addCandidate inserts a newly discovered contact in distance order.
// Distances to the target are unique, so a contact already present sits
// exactly at its insertion point.
func (l *lookup) addCandidate(c Contact) {
	if c.ID.Equal(l.node.self.ID) {
		return
	}
	key := c.ID.Prefix64() ^ l.targetKey
	idx := sort.Search(len(l.order), func(i int) bool {
		o := &l.slab[l.order[i]]
		if o.key != key {
			return o.key > key
		}
		return !o.contact.ID.CloserTo(l.target, c.ID)
	})
	if idx < len(l.order) && l.slab[l.order[idx]].contact.ID.Equal(c.ID) {
		return
	}
	if l.claim != nil && !l.claim(c.ID) {
		return // another disjoint path owns this node
	}
	l.slab = append(l.slab, candidate{contact: c, key: key, state: stateUnqueried})
	l.order = append(l.order, 0)
	copy(l.order[idx+1:], l.order[idx:])
	l.order[idx] = int32(len(l.slab) - 1)
}

// step drives the state machine: fire queries up to the parallelism limit,
// and detect termination.
func (l *lookup) step() {
	if l.finished {
		return
	}
	if !l.node.running {
		l.finish()
		return
	}
	cfg := l.node.cfg
	if l.responded >= cfg.K || l.converged() {
		l.finish()
		return
	}
	for l.inflight < cfg.Alpha {
		next := l.nextUnqueried()
		if next < 0 {
			break
		}
		l.query(next)
	}
	if l.inflight == 0 {
		// No queries in flight and none startable: no more progress.
		l.finish()
	}
}

// converged reports the standard termination rule: among the k closest
// non-failed candidates there is nothing left to query.
func (l *lookup) converged() bool {
	k := l.node.cfg.K
	checked := 0
	for _, i := range l.order {
		c := &l.slab[i]
		if c.state == stateFailed {
			continue
		}
		if c.state != stateResponded {
			return false
		}
		checked++
		if checked >= k {
			return true
		}
	}
	return checked > 0
}

// nextUnqueried returns the slab index of the closest unqueried
// candidate, or -1.
func (l *lookup) nextUnqueried() int32 {
	for _, i := range l.order {
		if l.slab[i].state == stateUnqueried {
			return i
		}
	}
	return -1
}

func (l *lookup) query(i int32) {
	l.slab[i].state = stateInflight
	l.inflight++
	var req any
	if l.kind == lookupValue {
		req = findValueRequest{Key: l.target}
	} else {
		req = findNodeRequest{Target: l.target}
	}
	l.node.sendRequest(l.slab[i].contact, req, func(resp any, err error) {
		l.inflight--
		if err != nil {
			l.slab[i].state = stateFailed
			l.step()
			return
		}
		l.slab[i].state = stateResponded
		l.responded++
		switch r := resp.(type) {
		case findNodeResponse:
			for _, nc := range r.Contacts {
				l.addCandidate(nc)
			}
		case findValueResponse:
			if r.Found {
				if !l.finished {
					l.finished = true
					if l.onValue != nil {
						l.onValue(r.Value)
					}
				}
				return
			}
			for _, nc := range r.Contacts {
				l.addCandidate(nc)
			}
		}
		l.step()
	})
}

// finish reports the k closest successfully contacted nodes.
func (l *lookup) finish() {
	if l.finished {
		return
	}
	l.finished = true
	closest := make([]Contact, 0, l.node.cfg.K)
	for _, i := range l.order {
		c := &l.slab[i]
		if c.state != stateResponded {
			continue
		}
		closest = append(closest, c.contact)
		if len(closest) == l.node.cfg.K {
			break
		}
	}
	if l.onComplete != nil {
		l.onComplete(closest, l.responded)
	}
}
