package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/ftcorba"
	"repro/internal/interception"
	"repro/internal/orb"
	"repro/internal/replication"
	"repro/internal/service"
	"repro/internal/totem"
)

// forwarderType is the repository id of the nested-call relay used by E5.
const forwarderType = "IDL:repro/Forwarder:1.0"

// E5DuplicateSuppression quantifies the duplicate detection/suppression
// machinery: an actively replicated caller group (1–3 replicas) performs
// nested invocations on a 2-replica active target. Each caller replica
// independently multicasts the nested invocation; the target must execute
// exactly once per logical operation. Expected shape: delivered
// invocations grow linearly with caller degree while executions stay
// constant; latency is nearly flat (duplicates are suppressed cheaply).
func E5DuplicateSuppression(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Duplicate suppression in nested invocations (active caller -> active 2-replica target)",
		Columns: []string{"caller replicas", "logical ops", "target executions", "dup invocations", "suppressed replies", "ring-suppressed", "mean(us)"},
	}
	for _, callers := range []int{1, 2, 3} {
		d, err := buildDomain(5, 0)
		if err != nil {
			return nil, err
		}
		targetGid, err := createEcho(d, replication.Active, 2)
		if err != nil {
			d.Stop()
			return nil, err
		}
		// The forwarder relays "relay(payload)" to the target group from
		// inside its replicated dispatch.
		factory := func() orb.Servant {
			return orb.NewMethodServant(forwarderType).
				Define("relay", func(inv *orb.Invocation) ([]cdr.Value, error) {
					return replication.Nested(inv, replication.GroupRef{ID: targetGid}).
						Invoke("echo", inv.Args[0])
				})
		}
		if err := d.RegisterFactory(forwarderType, factory, "n1", "n2", "n3", "n4", "n5"); err != nil {
			d.Stop()
			return nil, err
		}
		_, callerGid, err := d.Create("fwd", forwarderType, &ftcorba.Properties{
			ReplicationStyle:      replication.Active,
			InitialNumberReplicas: callers,
			MembershipStyle:       ftcorba.MembershipApplication,
		})
		if err != nil {
			d.Stop()
			return nil, err
		}
		if err := d.WaitGroupReady(callerGid, callers, 10*time.Second); err != nil {
			d.Stop()
			return nil, err
		}

		proxy, err := d.Proxy("client", callerGid)
		if err != nil {
			d.Stop()
			return nil, err
		}
		arg := cdr.OctetSeq(payloadOf(64))
		base := sumStats(d)
		s, err := measure(scale, func() error {
			_, err := proxy.Invoke("relay", arg)
			return err
		})
		if err != nil {
			d.Stop()
			return nil, fmt.Errorf("E5 callers=%d: %w", callers, err)
		}
		// Let stragglers (suppressed duplicates in flight) settle.
		time.Sleep(100 * time.Millisecond)
		delta := sumStats(d).sub(base)
		logical := scale.Invocations + scale.Warmup

		t.Rows = append(t.Rows, []string{
			fmt.Sprint(callers),
			fmt.Sprint(logical),
			fmt.Sprint(delta.executions),
			fmt.Sprint(delta.dupInvocations),
			fmt.Sprint(delta.suppressedReplies),
			fmt.Sprint(delta.ringSuppressed),
			usStr(s.mean),
		})
		d.Stop()
	}
	t.Notes = append(t.Notes,
		"target executions include both target replicas (2 per logical op is correct)",
		"executions also include the caller group's own dispatches (callers per logical op)",
		"suppressed replies: executor early-out (never encoded); ring-suppressed: keyed reply copies withdrawn from the totem send queue",
	)
	return t, nil
}

type statSum struct {
	executions        uint64
	dupInvocations    uint64
	suppressedReplies uint64
	ringSuppressed    uint64
}

func (a statSum) sub(b statSum) statSum {
	return statSum{
		executions:        a.executions - b.executions,
		dupInvocations:    a.dupInvocations - b.dupInvocations,
		suppressedReplies: a.suppressedReplies - b.suppressedReplies,
		ringSuppressed:    a.ringSuppressed - b.ringSuppressed,
	}
}

func sumStats(d *core.Domain) statSum {
	var out statSum
	for _, name := range d.Nodes() {
		n := d.Node(name)
		if n == nil {
			continue
		}
		s := n.Engine.Stats()
		out.executions += s.Executions
		out.dupInvocations += s.DupInvocations
		out.suppressedReplies += s.SuppressedReplies
		out.ringSuppressed += totem.AggregateStats(n.Rings).Suppressed
	}
	return out
}

// E6CheckpointInterval sweeps the cold passive checkpoint interval and
// measures failover cost. Expected shape: steady-state latency is flat
// (checkpoints are off the client's critical path but consume bandwidth);
// replayed operations — and hence failover blackout — grow with the
// interval: the classic checkpoint-frequency/recovery-time trade-off.
func E6CheckpointInterval(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Checkpoint interval vs recovery (cold passive, 3 replicas, 256B echo)",
		Columns: []string{"ckpt every", "ops before crash", "replays", "blackout(ms)"},
	}
	// Offset the op count so it is not a multiple of the intervals (a
	// crash exactly at a checkpoint boundary would hide the replay cost).
	ops := scale.Invocations + 11
	for _, every := range []int{1, 4, 16, 64} {
		replays, blackout, err := checkpointTrial(every, ops)
		if err != nil {
			return nil, fmt.Errorf("E6 every=%d: %w", every, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(every), fmt.Sprint(ops), fmt.Sprint(replays),
			fmt.Sprintf("%.2f", float64(blackout.Microseconds())/1000),
		})
	}
	return t, nil
}

func checkpointTrial(every, ops int) (uint64, time.Duration, error) {
	names := []string{"n1", "n2", "n3", "client"}
	d, err := core.NewDomain(core.Options{
		Nodes:         names,
		Net:           netConfig(),
		Heartbeat:     heartbeat,
		CallTimeout:   30 * time.Second,
		RetryInterval: 30 * heartbeat,
	})
	if err != nil {
		return 0, 0, err
	}
	defer d.Stop()
	if err := d.WaitReady(10 * time.Second); err != nil {
		return 0, 0, err
	}
	if err := d.RegisterFactory(EchoType, func() orb.Servant { return NewEchoServant() }, "n1", "n2", "n3"); err != nil {
		return 0, 0, err
	}
	_, gid, err := d.Create("cold", EchoType, &ftcorba.Properties{
		ReplicationStyle:      replication.ColdPassive,
		InitialNumberReplicas: 3,
		CheckpointInterval:    every,
		MembershipStyle:       ftcorba.MembershipApplication,
	})
	if err != nil {
		return 0, 0, err
	}
	if err := d.WaitGroupReady(gid, 3, 10*time.Second); err != nil {
		return 0, 0, err
	}
	proxy, err := d.Proxy("client", gid)
	if err != nil {
		return 0, 0, err
	}
	arg := cdr.OctetSeq(payloadOf(256))
	for i := 0; i < ops; i++ {
		if _, err := proxy.Invoke("echo", arg); err != nil {
			return 0, 0, err
		}
	}
	members, _ := d.RM.Members(gid)
	crashAt := time.Now()
	d.CrashNode(members[0])
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := proxy.Invoke("echo", arg); err == nil {
			blackout := time.Since(crashAt)
			var replays uint64
			for _, n := range names {
				if node := d.Node(n); node != nil {
					replays += node.Engine.Stats().Replays
				}
			}
			return replays, blackout, nil
		}
	}
	return 0, 0, fmt.Errorf("cold group never recovered")
}

// counterType is the additive servant used by E7.
const counterType = "IDL:repro/PartitionCounter:1.0"

// partitionCounter accumulates adds; fulfillment replays adds unchanged.
type partitionCounter struct {
	mu  sync.Mutex
	sum int64
}

func (c *partitionCounter) RepoID() string { return counterType }

func (c *partitionCounter) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch inv.Operation {
	case "add":
		c.sum += int64(inv.Args[0].AsLong())
		return []cdr.Value{cdr.LongLong(c.sum)}, nil
	case "sum":
		return []cdr.Value{cdr.LongLong(c.sum)}, nil
	}
	return nil, &orb.UserException{Name: "IDL:repro/BadOp:1.0"}
}

func (c *partitionCounter) GetState() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteLongLong(c.sum)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

func (c *partitionCounter) SetState(b []byte) error {
	d := cdr.NewDecoder(b, cdr.BigEndian)
	v, err := d.ReadLongLong()
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.sum = v
	c.mu.Unlock()
	return nil
}

// E7PartitionRemerge measures partition healing: operations continue in
// both components; at remerge the secondary's operations replay as
// fulfillment operations. Expected shape: reconciliation time grows with
// the number of queued fulfillment operations (state transfer is constant
// here; replay is the variable part).
func E7PartitionRemerge(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Partition remerge: fulfillment replay cost (active, 3+1 nodes)",
		Columns: []string{"secondary ops", "fulfillments", "reconcile(ms)", "final sum ok"},
		Notes: []string{
			"reconcile = heal() to all replicas agreeing on the merged state",
		},
	}
	for _, secOps := range []int{8, 32, 128} {
		fulfills, reconcile, ok, err := partitionTrial(secOps)
		if err != nil {
			return nil, fmt.Errorf("E7 ops=%d: %w", secOps, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(secOps), fmt.Sprint(fulfills),
			fmt.Sprintf("%.2f", float64(reconcile.Microseconds())/1000),
			fmt.Sprint(ok),
		})
	}
	return t, nil
}

func partitionTrial(secOps int) (uint64, time.Duration, bool, error) {
	names := []string{"n1", "n2", "n3", "client"}
	d, err := core.NewDomain(core.Options{
		Nodes:         names,
		Net:           netConfig(),
		Heartbeat:     heartbeat,
		CallTimeout:   30 * time.Second,
		RetryInterval: 60 * heartbeat,
	})
	if err != nil {
		return 0, 0, false, err
	}
	defer d.Stop()
	if err := d.WaitReady(10 * time.Second); err != nil {
		return 0, 0, false, err
	}
	if err := d.RegisterFactory(counterType, func() orb.Servant { return &partitionCounter{} }, "n1", "n2", "n3"); err != nil {
		return 0, 0, false, err
	}
	_, gid, err := d.Create("pc", counterType, &ftcorba.Properties{
		ReplicationStyle:      replication.Active,
		InitialNumberReplicas: 3,
		MembershipStyle:       ftcorba.MembershipApplication,
	})
	if err != nil {
		return 0, 0, false, err
	}
	if err := d.WaitGroupReady(gid, 3, 10*time.Second); err != nil {
		return 0, 0, false, err
	}

	// Partition n3 away; {n1,n2,client} is the primary component.
	d.Partition([]string{"n1", "n2", "client"}, []string{"n3"})
	if err := waitSecondary(d, "n3", gid); err != nil {
		return 0, 0, false, err
	}

	primarySide, err := d.Proxy("client", gid)
	if err != nil {
		return 0, 0, false, err
	}
	secondarySide, err := d.Proxy("n3", gid)
	if err != nil {
		return 0, 0, false, err
	}
	const primaryOps = 10
	for i := 0; i < primaryOps; i++ {
		if _, err := primarySide.Invoke("add", cdr.Long(1)); err != nil {
			return 0, 0, false, fmt.Errorf("primary-side add: %w", err)
		}
	}
	for i := 0; i < secOps; i++ {
		if _, err := secondarySide.Invoke("add", cdr.Long(1)); err != nil {
			return 0, 0, false, fmt.Errorf("secondary-side add: %w", err)
		}
	}

	want := int64(primaryOps + secOps)
	healAt := time.Now()
	d.Heal()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if converged(d, gid, want) {
			reconcile := time.Since(healAt)
			var fulfills uint64
			for _, n := range names {
				if node := d.Node(n); node != nil {
					fulfills += node.Engine.Stats().Fulfillments
				}
			}
			return fulfills, reconcile, true, nil
		}
		time.Sleep(time.Millisecond)
	}
	return 0, 0, false, fmt.Errorf("components never reconciled")
}

func waitSecondary(d *core.Domain, node string, gid uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := d.Node(node).Engine.GroupStatus(gid); ok && st.Secondary {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s never became a secondary component", node)
}

func converged(d *core.Domain, gid uint64, want int64) bool {
	for _, name := range []string{"n1", "n2", "n3"} {
		node := d.Node(name)
		if node == nil {
			return false
		}
		st, ok := node.Engine.GroupStatus(gid)
		if !ok || st.Secondary || st.Syncing || len(st.Members) != 3 {
			return false
		}
	}
	// Confirm the merged value via a read.
	proxy, err := d.Proxy("client", gid)
	if err != nil {
		return false
	}
	out, err := proxy.Invoke("sum")
	return err == nil && out[0].AsLongLong() == want
}

// E8Approaches compares the three architectural integration approaches the
// lessons-learned literature contrasts, plus the unreplicated baseline.
// Expected shape: integrated < interception < service (each adds a
// marshal/hop), all above unreplicated.
func E8Approaches(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Integration approach comparison (active 3-replica echo, 256B)",
		Columns: []string{"approach", "mean(us)", "p50(us)", "p99(us)"},
		Notes: []string{
			"integrated  = application linked against the replication engine",
			"interception = unmodified client ORB, IIOP captured below it",
			"service     = explicit group-service object invoked via the ORB",
		},
	}
	d, err := buildDomain(3, 7000)
	if err != nil {
		return nil, err
	}
	defer d.Stop()
	gid, err := createEcho(d, replication.Active, 3)
	if err != nil {
		return nil, err
	}
	arg := cdr.OctetSeq(payloadOf(256))

	// Unreplicated baseline.
	plainRef := d.Node("n1").ORB.ActivateObject("echo-plain", NewEchoServant())
	plain := d.Node("client").ORB.Proxy(plainRef)
	s, err := measure(scale, func() error {
		_, err := plain.Invoke("echo", arg)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"unreplicated", usStr(s.mean), usStr(s.p50), usStr(s.p99)})

	// Integrated.
	integrated, err := d.Proxy("client", gid)
	if err != nil {
		return nil, err
	}
	s, err = measure(scale, func() error {
		_, err := integrated.Invoke("echo", arg)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"integrated", usStr(s.mean), usStr(s.p50), usStr(s.p99)})

	// Interception.
	bridge, err := interception.Attach(d.Fabric, "client", 7100, d.Node("client").Engine)
	if err != nil {
		return nil, err
	}
	defer bridge.Close()
	legacy := d.Node("client").ORB.Proxy(bridge.RefFor(EchoType, gid))
	s, err = measure(scale, func() error {
		_, err := legacy.Invoke("echo", arg)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"interception", usStr(s.mean), usStr(s.p50), usStr(s.p99)})

	// Service.
	svcRef := service.Publish(d.Node("n1").ORB, d.Node("n1").Engine)
	svc := service.NewClient(d.Node("client").ORB, svcRef)
	s, err = measure(scale, func() error {
		_, err := svc.Invoke(gid, "echo", arg)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"service", usStr(s.mean), usStr(s.p50), usStr(s.p99)})
	return t, nil
}
