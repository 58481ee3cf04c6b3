package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ftcorba"
	"repro/internal/netsim"
	"repro/internal/replication"
	"repro/internal/totem"
	"repro/internal/transport"
	"repro/internal/transport/udp"
)

const (
	// setupReps is how many times a run builds the domain; setup_s is the
	// median, and the last domain carries the load.
	setupReps = 5
	// warmupOps run before the load so leases, connections and pools exist.
	warmupOps = 200
	// orbPort hosts the plain ORBs, interceptPort the interception bridge.
	orbPort       = 7000
	interceptPort = 7100
	// settle bounds every wait for the domain to reach a state.
	settle = 20 * time.Second
	// maxProblems caps the correctness messages kept for the report.
	maxProblems = 20
)

// rec is the outcome of one generated op.
type rec struct {
	start int64 // send time (closed loop) or due time (open loop), ns since t0
	sent  int64 // when the request was actually handed to the proxy
	end   int64
	ver   uint64 // version returned by a put
	done  bool
	ok    bool
}

// episode is one crash of a replica, timed in ns since t0.
type episode struct {
	victim                   string
	crash, detect, recruit   int64
	restartStart, restartEnd int64
	restore                  int64
}

// counters sums the layers' public counters over every node incarnation.
type counters struct {
	rep   replication.Stats
	totem totem.Stats
}

func (c *counters) addRep(s replication.Stats) {
	c.rep.Executions += s.Executions
	c.rep.DupInvocations += s.DupInvocations
	c.rep.DupReplies += s.DupReplies
	c.rep.Replays += s.Replays
	c.rep.Checkpoints += s.Checkpoints
	c.rep.StateTransfers += s.StateTransfers
	c.rep.Retries += s.Retries
	c.rep.LfReads += s.LfReads
	c.rep.LfRedirects += s.LfRedirects
}

func (c *counters) addTotem(s totem.Stats) {
	c.totem.Sent += s.Sent
	c.totem.Retransmit += s.Retransmit
	c.totem.Formations += s.Formations
	c.totem.Batches += s.Batches
}

// runner drives one workload run.
type runner struct {
	w       workload
	seconds time.Duration
	in      *inputs
	tr      *tracer            // nil in the untraced program
	ct      *countingTransport // nil in the untraced program
	reg     *servantRegistry

	d       *core.Domain
	fabric  *netsim.Fabric // the ring fabric on netsim workloads
	gid     uint64
	proxies []*replication.Proxy
	names   []string

	setupS, readyMs, createMs []float64

	// mu guards nodes and dead: the episode code replaces node incarnations
	// while the window marks read their counters.
	mu    sync.Mutex
	nodes map[string]*core.Node
	dead  counters // final counters of crashed incarnations

	t0       time.Time
	recs     []rec
	rssBase  float64      // resident set (MB) before the first domain, inputs and recs built
	okWrite  atomic.Int64 // send time of the latest acknowledged write
	episodes []episode
	extra    []uint64 // acknowledged writes outside the generated ops

	pmu      sync.Mutex
	problems []string
	nProblem int
}

func (r *runner) now() int64 { return int64(time.Since(r.t0)) }

func (r *runner) problem(format string, args ...any) {
	r.pmu.Lock()
	defer r.pmu.Unlock()
	r.nProblem++
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// setup builds the domain setupReps times, timing each, and keeps the last.
func (r *runner) setup() error {
	for i := 0; i < setupReps; i++ {
		if r.d != nil {
			r.d.Stop()
			r.d = nil
		}
		if err := r.buildDomain(); err != nil {
			return fmt.Errorf("setup %d: %w", i+1, err)
		}
	}
	return nil
}

func (r *runner) buildDomain() error {
	r.names = nil
	for i := 1; i <= r.w.workers; i++ {
		r.names = append(r.names, fmt.Sprintf("n%d", i))
	}
	r.names = append(r.names, "client")

	start := time.Now()
	var tp transport.Transport
	idle := time.Duration(0) // totem's default idle-token hold
	r.fabric = nil
	if r.w.udp {
		c, err := udp.NewLoopbackCluster(r.names, core.BaseRingPort, core.BaseRingPort+8)
		if err != nil {
			return err
		}
		tp = c
		idle = -1 // eager rotation, the real-socket pacing regime
	} else {
		r.fabric = netsim.NewFabric(netsim.Config{})
		for _, n := range r.names {
			r.fabric.AddNode(n)
		}
		tp = r.fabric
	}
	if r.tr != nil {
		r.ct = newCountingTransport(tp, 1<<20)
		tp = r.ct
	}
	d, err := core.NewDomain(core.Options{
		Nodes:          r.names,
		Transport:      tp,
		IdleTokenDelay: idle,
		ORBPort:        orbPort,
		RetryInterval:  50 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	r.d = d
	if err := d.WaitReady(settle); err != nil {
		return err
	}
	ready := time.Now()
	r.reg = &servantRegistry{byNode: make(map[string]*storeServant)}
	for _, n := range r.names[:r.w.workers] {
		if err := d.RegisterFactory(servantType, r.reg.factory(n, r.tr), n); err != nil {
			return err
		}
	}
	props := &ftcorba.Properties{
		ReplicationStyle:      r.w.style,
		InitialNumberReplicas: 3,
		MinimumNumberReplicas: 3,
		MembershipStyle:       ftcorba.MembershipApplication,
	}
	if r.w.crashEvery > 0 {
		props.MembershipStyle = ftcorba.MembershipInfrastructure
	}
	if r.w.style == replication.LeaderFollower {
		props.ReadOnlyOps = []string{opGet}
	}
	createStart := time.Now()
	_, gid, err := d.Create("perfbench", servantType, props)
	if err != nil {
		return err
	}
	if err := d.WaitGroupReady(gid, 3, settle); err != nil {
		return err
	}
	r.gid = gid
	r.proxies = nil
	for c := 0; c < max(r.w.clients, 2); c++ {
		p, err := d.Proxy("client", gid)
		if err != nil {
			return err
		}
		r.proxies = append(r.proxies, p)
	}
	end := time.Now()
	r.setupS = append(r.setupS, end.Sub(start).Seconds())
	r.readyMs = append(r.readyMs, ms(ready.Sub(start)))
	r.createMs = append(r.createMs, ms(end.Sub(createStart)))

	r.mu.Lock()
	r.nodes = make(map[string]*core.Node)
	for _, n := range r.names {
		r.nodes[n] = d.Node(n)
	}
	r.dead = counters{}
	r.mu.Unlock()
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// warmup runs writes outside the generated schedule, so leases, reply
// subscriptions and buffer pools exist before anything is timed.
func (r *runner) warmup() error {
	for i := 0; i < warmupOps; i++ {
		o := op{id: opID(streamWarmup, uint64(i+1)), kind: kindEcho, client: uint8(i % len(r.proxies))}
		if r.w.keys > 0 {
			o.kind = kindPut
		}
		name, args := r.in.args(o)
		if _, err := r.proxies[o.client].Invoke(name, args...); err != nil {
			return fmt.Errorf("warmup op %d: %w", i, err)
		}
		r.extra = append(r.extra, o.id)
	}
	return nil
}

// snapshot reads the counters of every live node plus the crashed ones.
func (r *runner) snapshot() counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.dead
	for _, n := range r.nodes {
		c.addRep(n.Engine.Stats())
		for _, ring := range n.Rings {
			c.addTotem(ring.Stats())
		}
	}
	return c
}

// crash fail-stops a node, keeping its final counters.
func (r *runner) crash(victim string) {
	r.mu.Lock()
	if n := r.nodes[victim]; n != nil {
		r.dead.addRep(n.Engine.Stats())
		for _, ring := range n.Rings {
			r.dead.addTotem(ring.Stats())
		}
		delete(r.nodes, victim)
	}
	r.mu.Unlock()
	r.d.CrashNode(victim)
	if r.fabric != nil {
		r.fabric.CrashNode(victim)
	}
}

// restart brings a crashed node back and waits for one ring of all nodes.
func (r *runner) restart(victim string) error {
	if r.fabric != nil {
		r.fabric.RestartNode(victim)
	}
	if err := r.d.RestartNode(victim); err != nil {
		return err
	}
	r.mu.Lock()
	r.nodes[victim] = r.d.Node(victim)
	r.mu.Unlock()
	return r.d.WaitReady(settle)
}

func (r *runner) members() []string {
	m, _ := r.d.RM.Members(r.gid)
	return m
}

// waitMembers polls the Replication Manager until cond holds.
func (r *runner) waitMembers(cond func([]string) bool) error {
	deadline := time.Now().Add(settle)
	for time.Now().Before(deadline) {
		if cond(r.members()) {
			return nil
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("membership of group %d stuck at %v", r.gid, r.members())
}

// runEpisode crashes the group's primary under load and times detection,
// the Replication Manager's recruit of the spare, the state transfer that
// restores degree 3, and the victim's restart as the next spare. It
// returns once a write sent after the crash has been acknowledged, so
// episodes never overlap.
func (r *runner) runEpisode() (episode, error) {
	members := r.members()
	if len(members) == 0 {
		return episode{}, errors.New("group has no members")
	}
	victim := r.primary(members)
	ep := episode{victim: victim}
	reports, cancel := r.d.Notifier.Subscribe(func(rep fault.Report) bool {
		return rep.Node == victim && rep.Event == fault.EventFault
	})
	defer cancel()

	ep.crash = r.now()
	r.crash(victim)
	select {
	case <-reports:
		ep.detect = r.now()
	case <-time.After(settle):
		return ep, fmt.Errorf("crash of %s never reported", victim)
	}
	recruited := func(m []string) bool {
		for _, n := range m {
			if n == victim {
				return false
			}
		}
		return len(m) >= 3
	}
	if err := r.waitMembers(recruited); err != nil {
		return ep, err
	}
	ep.recruit = r.now()
	if err := r.waitGroupReady(); err != nil {
		return ep, err
	}
	ep.restore = r.now()
	ep.restartStart = r.now()
	if err := r.restart(victim); err != nil {
		return ep, err
	}
	ep.restartEnd = r.now()

	deadline := time.Now().Add(settle)
	for r.okWrite.Load() < ep.crash {
		if time.Now().After(deadline) {
			return ep, fmt.Errorf("no write acknowledged after crashing %s", victim)
		}
		time.Sleep(time.Millisecond)
	}
	return ep, nil
}

// waitGroupReady waits for three synchronized replicas and, if they never
// appear, says what each member reports.
func (r *runner) waitGroupReady() error {
	err := r.d.WaitGroupReady(r.gid, 3, settle)
	if err == nil {
		return nil
	}
	for _, m := range r.members() {
		if n := r.d.Node(m); n != nil {
			st, hosted := n.Engine.GroupStatus(r.gid)
			err = fmt.Errorf("%w; %s: hosted=%v %+v", err, m, hosted, st)
		}
	}
	return err
}

// primary returns the member the replicas name as primary (leader), or
// the senior member when none answers.
func (r *runner) primary(members []string) string {
	for _, m := range members {
		if n := r.d.Node(m); n != nil {
			if st, ok := n.Engine.GroupStatus(r.gid); ok && st.Primary != "" {
				return st.Primary
			}
		}
	}
	return members[0]
}

// cpuNs is the process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssEvery is how often the untraced program samples its resident set.
const rssEvery = 100 * time.Millisecond

// rssMB is the process's current resident set size, from /proc.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// memStats reads the Go runtime's allocation counters.
func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// finalCheck waits for the live replicas to converge and checks that every
// acknowledged write is applied exactly once and nothing is applied twice.
func (r *runner) finalCheck() {
	var states [][]byte
	var members []string
	deadline := time.Now().Add(settle)
	for {
		members = r.members()
		states = states[:0]
		for _, m := range members {
			s := r.reg.get(m)
			if s == nil {
				r.problem("member %s has no servant", m)
				return
			}
			st, _ := s.GetState()
			states = append(states, st)
		}
		same := len(states) == 3
		for _, st := range states[min(1, len(states)):] {
			same = same && bytes.Equal(st, states[0])
		}
		if same {
			break
		}
		if time.Now().After(deadline) {
			r.problem("replica states differ after the load (members %v)", members)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	s := r.reg.get(members[0])
	if n, ids := s.duplicates(); n > 0 {
		r.problem("%d writes applied more than once, e.g. %v", n, ids)
	}
	for i := range r.recs {
		if !r.recs[i].ok {
			continue
		}
		if o := r.in.op(i); o.kind.isWrite() && !s.applied(o.id) {
			r.problem("acknowledged write %#x is missing from the final state", o.id)
		}
	}
	for _, id := range r.extra {
		if !s.applied(id) {
			r.problem("acknowledged write %#x is missing from the final state", id)
		}
	}
}
