package replication

import (
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/orb"
)

// gatedAccount is an account whose first "add" blocks until released,
// announcing on entered that the invocation reached it.
type gatedAccount struct {
	*account
	entered chan struct{}
	release chan struct{}
	fired   bool // executor goroutine only
}

func newGatedAccount() *gatedAccount {
	return &gatedAccount{account: &account{}, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedAccount) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	if inv.Operation == "add" && !g.fired {
		g.fired = true
		close(g.entered)
		<-g.release
	}
	return g.account.Dispatch(inv)
}

// TestRetryAfterHealGetsUnkeyedAnswer covers the answer to a
// retransmitted invocation. The client is cut off while the reply of its
// ACTIVE operation is ordered among the replicas; the senior replica's
// ring thereby holds the reply's suppression key from another replica's
// copy. After the heal the client's retry must be answered: were the
// senior's re-sent reply keyed, its ring would withdraw it on every retry
// and the call could only time out.
func TestRetryAfterHealGetsUnkeyedAnswer(t *testing.T) {
	c := newCluster(t, 4)
	def := GroupDef{ID: 21, Name: "heal", Style: Active}
	replicas := []string{"n1", "n2", "n3"}
	gates := make(map[string]*gatedAccount)
	for _, n := range replicas {
		g := newGatedAccount()
		gates[n] = g
		c.servants[n][def.ID] = g.account
		if err := c.engines[n].HostReplica(def, g, true); err != nil {
			t.Fatal(err)
		}
	}
	c.waitMembers(def.ID, replicas)

	const retry = 50 * time.Millisecond
	proxy := c.engines["n4"].Proxy(GroupRef{ID: def.ID}, WithRetryInterval(retry), WithTimeout(5*time.Second))
	type result struct {
		out []cdr.Value
		err error
		at  time.Time
	}
	done := make(chan result, 1)
	go func() {
		out, err := proxy.Invoke("add", cdr.Long(7))
		done <- result{out, err, time.Now()}
	}()
	for _, n := range replicas {
		select {
		case <-gates[n].entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("invocation never reached %s", n)
		}
	}

	// Cut the client off and let the replicas' ring re-form without it, so
	// the replies are ordered (with their keys) in steady state.
	c.fabric.Partition(replicas, []string{"n4"})
	waitFor(t, 5*time.Second, "replica-only ring", func() bool {
		_, members := c.rings["n1"].CurrentRing()
		return equalStrings(members, replicas)
	})
	close(gates["n2"].release)
	close(gates["n3"].release)
	// n1 learns of another replica's reply, then finishes executing and
	// takes the executor early-out: the only copy it can send later is
	// the logged one, in answer to a retry.
	r1 := c.engines["n1"].replicaFor(def.ID)
	waitFor(t, 5*time.Second, "reply ordered at n1", func() bool {
		r1.mu.lock()
		defer r1.mu.unlock()
		for _, rec := range r1.dedup {
			if rec.answered && rec.reply != nil && rec.reply.Node != "n1" {
				return true
			}
		}
		return false
	})
	close(gates["n1"].release)
	waitFor(t, 5*time.Second, "n1 early-out", func() bool {
		return c.engines["n1"].Stats().SuppressedReplies == 1
	})

	c.fabric.Heal()
	healed := time.Now()
	res := <-done
	if res.err != nil {
		t.Fatalf("retried call after heal: %v", res.err)
	}
	if got := res.out[0].AsLongLong(); got != 7 {
		t.Fatalf("balance %d, want 7", got)
	}
	// The backoff caps at 8 retry intervals; allow the remerge and two
	// capped retries on top.
	if took := res.at.Sub(healed); took > 40*retry {
		t.Errorf("call completed %v after the heal, want within %v", took, 40*retry)
	}
	for _, n := range replicas {
		if _, ops := gates[n].snapshot(); ops != 1 {
			t.Errorf("%s executed %d ops, want 1", n, ops)
		}
	}
}
