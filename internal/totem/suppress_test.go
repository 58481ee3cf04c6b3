package totem

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

// keyedCluster starts a 3-node ring whose members all subscribe to "g".
func keyedCluster(t *testing.T) *cluster {
	t.Helper()
	c := newCluster(t, netsim.Config{Latency: 50 * time.Microsecond}, 3)
	c.startAll()
	for _, n := range c.nodes {
		if err := c.rings[n].JoinGroup("g"); err != nil {
			t.Fatal(err)
		}
	}
	c.waitStableRing(3*time.Second, c.nodes)
	return c
}

// payloadCount counts the deliveries of payload p at node n.
func (c *cluster) payloadCount(n, p string) int {
	k := 0
	for _, d := range c.collect[n].deliverSnapshot() {
		if string(d.Payload) == p {
			k++
		}
	}
	return k
}

// waitDelivered waits until payload p has been delivered at every node.
func (c *cluster) waitDelivered(p string) {
	c.t.Helper()
	waitFor(c.t, 5*time.Second, "delivery of "+p, func() bool {
		for _, n := range c.nodes {
			if c.payloadCount(n, p) == 0 {
				return false
			}
		}
		return true
	})
}

// TestKeyedCopySuppressed: two members queue messages with the same key;
// the second is queued only after the first was delivered at its node, so
// its token visit must withdraw it. Exactly one copy is ordered anywhere,
// and the withdrawing member counts it.
func TestKeyedCopySuppressed(t *testing.T) {
	c := keyedCluster(t)
	const key = 0xc0ffee
	if err := c.rings["n1"].MulticastKeyed("g", key, []byte("copy-n1")); err != nil {
		t.Fatal(err)
	}
	c.waitDelivered("copy-n1")
	if err := c.rings["n2"].MulticastKeyed("g", key, []byte("copy-n2")); err != nil {
		t.Fatal(err)
	}
	// FIFO per sender: once n2's later unkeyed marker is delivered, its
	// keyed copy either went before it or was withdrawn.
	if err := c.rings["n2"].Multicast("g", []byte("marker")); err != nil {
		t.Fatal(err)
	}
	c.waitDelivered("marker")
	for _, n := range c.nodes {
		if got := c.payloadCount(n, "copy-n1"); got != 1 {
			t.Errorf("%s: copy-n1 delivered %d times, want 1", n, got)
		}
		if got := c.payloadCount(n, "copy-n2"); got != 0 {
			t.Errorf("%s: copy-n2 delivered %d times, want 0 (suppressed)", n, got)
		}
	}
	if s := c.rings["n2"].Stats(); s.Suppressed != 1 {
		t.Errorf("n2 Stats.Suppressed = %d, want 1", s.Suppressed)
	}
	if s := c.rings["n1"].Stats(); s.Suppressed != 0 {
		t.Errorf("n1 Stats.Suppressed = %d, want 0", s.Suppressed)
	}
}

// TestUnkeyedAndOwnCopiesNotSuppressed: an unkeyed message is never
// withdrawn, and neither is a keyed message whose only earlier copy came
// from the same node.
func TestUnkeyedAndOwnCopiesNotSuppressed(t *testing.T) {
	c := keyedCluster(t)
	const key = 0xbeef
	if err := c.rings["n1"].MulticastKeyed("g", key, []byte("own-1")); err != nil {
		t.Fatal(err)
	}
	c.waitDelivered("own-1")
	if err := c.rings["n1"].MulticastKeyed("g", key, []byte("own-2")); err != nil {
		t.Fatal(err)
	}
	// n2 has seen the key from n1; its unkeyed messages must still flow.
	for _, p := range []string{"plain-1", "plain-2"} {
		if err := c.rings["n2"].Multicast("g", []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"own-2", "plain-1", "plain-2"} {
		c.waitDelivered(p)
	}
	for _, n := range c.nodes {
		if s := c.rings[n].Stats(); s.Suppressed != 0 {
			t.Errorf("%s Stats.Suppressed = %d, want 0", n, s.Suppressed)
		}
	}
}

// TestKeySetEvictsOldest pins the bounded set: it holds the newest
// seenKeysRetain keys and forgets the oldest one first.
func TestKeySetEvictsOldest(t *testing.T) {
	s := newKeySet()
	for k := uint64(1); k <= seenKeysRetain+1; k++ {
		s.add(k)
		s.add(k) // re-adding a present key must not use a slot
	}
	if s.has(1) {
		t.Error("oldest key not evicted")
	}
	if !s.has(2) || !s.has(seenKeysRetain+1) {
		t.Error("newest keys missing")
	}
	if len(s.m) != seenKeysRetain {
		t.Errorf("set holds %d keys, want %d", len(s.m), seenKeysRetain)
	}
}
