package totem

// seenKeysRetain bounds the suppression keys a ring remembers. It matches
// the replication layer's duplicate-detection window: a queued copy older
// than that many foreign keyed deliveries is sent (and then discarded by
// its receivers) instead of withdrawn.
const seenKeysRetain = 4096

// keySet is the bounded set of suppression keys delivered from other
// senders: a fixed ring buffer evicts the oldest key once full, and the map
// answers membership. Owned by the run goroutine (deliverMsg adds,
// handleToken queries), so it needs no lock.
type keySet struct {
	fifo [seenKeysRetain]uint64
	next int // fifo slot the next key overwrites
	m    map[uint64]struct{}
}

func newKeySet() *keySet {
	return &keySet{m: make(map[uint64]struct{}, seenKeysRetain)}
}

// add records a nonzero key, evicting the oldest once the set is full.
func (s *keySet) add(k uint64) {
	if _, ok := s.m[k]; ok {
		return
	}
	if old := s.fifo[s.next]; old != 0 {
		delete(s.m, old)
	}
	s.fifo[s.next] = k
	s.m[k] = struct{}{}
	s.next = (s.next + 1) % seenKeysRetain
}

func (s *keySet) has(k uint64) bool {
	_, ok := s.m[k]
	return ok
}
