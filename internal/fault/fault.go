// Package fault implements FT-CORBA-style fault management: fault
// detectors that monitor targets, and a fault notifier that fans fault
// reports out to interested consumers (chiefly the replication manager).
//
// The standard defines two monitoring styles, both provided here:
//
//   - PULL: the detector periodically invokes an is_alive probe on the
//     target and declares a fault after Retries consecutive misses, so the
//     detection time is roughly Interval*Retries + Timeout — the quantity
//     experiment E3 sweeps;
//   - PUSH: the target sends heartbeats and the detector declares a fault
//     when none arrives within the window.
//
// Detectors are arranged per-host with the notifier global, mirroring the
// hierarchical detector deployment of the FT-CORBA standard.
package fault

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a fault report.
type Kind uint8

// Fault kinds.
const (
	ObjectCrash Kind = iota + 1
	ProcessCrash
	NodeCrash
	// InvariantViolation reports a broken protocol invariant detected at
	// runtime (e.g. a non-contiguous delivery or an unencodable message).
	// In strict-invariant builds these abort instead; in production they
	// are reported here and the protocol recovers by reformation.
	InvariantViolation
)

var kindNames = map[Kind]string{
	ObjectCrash:        "object-crash",
	ProcessCrash:       "process-crash",
	NodeCrash:          "node-crash",
	InvariantViolation: "invariant-violation",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// Event distinguishes confirmed faults from the suspicion lifecycle around
// them. The zero value is EventFault so every pre-existing Push site keeps
// its meaning.
type Event uint8

const (
	// EventFault is a confirmed fault: the entity is declared failed.
	EventFault Event = iota
	// EventSuspect reports a raised suspicion: the entity missed enough
	// heartbeats to be quarantined but not yet evicted.
	EventSuspect
	// EventRecover reports a retracted suspicion or a post-fault recovery:
	// the entity is alive after all.
	EventRecover
)

var eventNames = map[Event]string{
	EventFault:   "fault",
	EventSuspect: "suspect",
	EventRecover: "recover",
}

// String names the event.
func (e Event) String() string {
	if s, ok := eventNames[e]; ok {
		return s
	}
	return "unknown"
}

// Report is one fault notification, identifying the failed entity in the
// object→process→node hierarchy.
type Report struct {
	Kind Kind
	// Event is the lifecycle stage: confirmed fault (the zero value),
	// raised suspicion, or recovery.
	Event Event
	// Node is the host of the failed entity.
	Node string
	// GroupID identifies the object group of a failed member (object
	// faults only).
	GroupID uint64
	// Member identifies the failed member/target within its scope.
	Member string
	// Detail describes the fault (invariant violations).
	Detail string
	// Detected is when the detector declared the fault.
	Detected time.Time
}

// Notifier fans fault reports out to subscribers. The zero value is ready
// to use.
type Notifier struct {
	mu      sync.Mutex
	subs    map[int]*subscription
	next    int
	dropped atomic.Uint64
}

type subscription struct {
	filter func(Report) bool
	ch     chan Report
}

// Subscribe registers a consumer. Reports matching filter (nil = all) are
// delivered on the returned channel; cancel unsubscribes and closes it.
// Delivery never blocks the notifier: a subscriber that falls more than
// 1024 reports behind loses the oldest ones.
func (n *Notifier) Subscribe(filter func(Report) bool) (<-chan Report, func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.subs == nil {
		n.subs = make(map[int]*subscription)
	}
	id := n.next
	n.next++
	sub := &subscription{filter: filter, ch: make(chan Report, 1024)}
	n.subs[id] = sub
	cancel := func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if s, ok := n.subs[id]; ok {
			delete(n.subs, id)
			close(s.ch)
		}
	}
	return sub.ch, cancel
}

// Push publishes a fault report to all matching subscribers.
func (n *Notifier) Push(r Report) {
	if r.Detected.IsZero() {
		r.Detected = time.Now()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, s := range n.subs {
		if s.filter != nil && !s.filter(r) {
			continue
		}
		select {
		case s.ch <- r:
		default:
			// Drop the oldest to make room; a fault consumer that is this
			// far behind is itself suspect. The loss is counted so chaos
			// invariants can assert no report vanished during a storm.
			select {
			case <-s.ch:
				n.dropped.Add(1)
			default:
			}
			select {
			case s.ch <- r:
			default:
				n.dropped.Add(1)
			}
		}
	}
}

// Dropped reports how many reports were discarded because a subscriber fell
// behind its channel buffer.
func (n *Notifier) Dropped() uint64 { return n.dropped.Load() }

// Config parameterizes a detector.
type Config struct {
	// Interval between probes (PULL) or expected heartbeats (PUSH).
	Interval time.Duration
	// Timeout for one probe to answer.
	Timeout time.Duration
	// Retries is how many consecutive failed probes (or missed heartbeat
	// windows) are tolerated before a fault is declared.
	Retries int

	// Adaptive switches the fixed Retries*Interval window for a per-target
	// phi-accrual Suspicion machine: faults are preceded by EventSuspect
	// reports, late recoveries push EventRecover, and the effective window
	// adapts to observed arrival jitter between MinWindow (Retries*Interval)
	// and MaxWindow.
	Adaptive bool
	// PhiSuspect / PhiFail override the suspicion thresholds (defaults 1, 8).
	PhiSuspect float64
	PhiFail    float64
	// FDWindow is the inter-arrival history length (default 64).
	FDWindow int
	// MaxWindow caps the adaptive window (default 3*Retries*Interval).
	MaxWindow time.Duration
	// ConfirmGrace is the minimum suspect dwell before a fault is confirmed
	// (default Retries*Interval).
	ConfirmGrace time.Duration

	// AdaptiveProbe derives each PULL target's probe cadence from its phi
	// estimator instead of the fixed Interval: a target answering with
	// tight regularity is probed at a relaxed spacing (up to
	// MaxProbeInterval), while a suspect, dead, or history-poor target is
	// probed at the base Interval — so steady-state probe traffic shrinks
	// without widening detection latency once suspicion is raised. Implies
	// Adaptive (the estimator supplies the statistics); PUSH targets are
	// unaffected.
	AdaptiveProbe bool
	// MaxProbeInterval caps the relaxed probe spacing (default 4*Interval).
	MaxProbeInterval time.Duration
}

func (c *Config) fill() {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval
	}
	if c.Retries <= 0 {
		c.Retries = 2
	}
	if c.AdaptiveProbe {
		c.Adaptive = true // the probe scheduler reads the phi estimator
		if c.MaxProbeInterval <= 0 {
			c.MaxProbeInterval = 4 * c.Interval
		}
	}
}

// suspicionConfig derives the per-target machine parameters.
func (c *Config) suspicionConfig() SuspicionConfig {
	return SuspicionConfig{
		Window:       c.FDWindow,
		PhiSuspect:   c.PhiSuspect,
		PhiFail:      c.PhiFail,
		MinWindow:    time.Duration(c.Retries) * c.Interval,
		MaxWindow:    c.MaxWindow,
		ConfirmGrace: c.ConfirmGrace,
	}
}

// Target is one monitored entity.
type Target struct {
	// Report template: Kind/Node/GroupID/Member copied into fault reports.
	Report Report
	// Probe implements PULL monitoring: return nil if alive. A nil Probe
	// makes the target PUSH-monitored (liveness asserted via Heartbeat).
	Probe func() error
}

// Detector monitors a set of targets and pushes faults to a Notifier.
type Detector struct {
	cfg      Config
	notifier *Notifier

	mu      sync.Mutex
	targets map[string]*targetState
	stopped bool
	wg      sync.WaitGroup
	stopCh  chan struct{}
}

type targetState struct {
	target    Target
	misses    int
	lastBeat  time.Time
	announced bool
	stop      chan struct{}
	// probing serializes PULL probes: at most one outstanding probe per
	// target, so a stuck Probe pins one goroutine instead of leaking one
	// per tick.
	probing    bool
	probeStart time.Time
	// susp drives adaptive (phi-accrual) detection; nil in fixed mode.
	susp *Suspicion
}

// NewDetector creates a detector pushing reports into notifier.
func NewDetector(cfg Config, notifier *Notifier) *Detector {
	cfg.fill()
	return &Detector{
		cfg:      cfg,
		notifier: notifier,
		targets:  make(map[string]*targetState),
		stopCh:   make(chan struct{}),
	}
}

// Watch starts monitoring a target under the given id; watching an existing
// id replaces the previous target.
func (d *Detector) Watch(id string, t Target) {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	if old, ok := d.targets[id]; ok {
		close(old.stop)
	}
	st := &targetState{target: t, lastBeat: time.Now(), stop: make(chan struct{})}
	if d.cfg.Adaptive {
		st.susp = NewSuspicion(d.cfg.suspicionConfig())
		st.susp.Observe(st.lastBeat)
	}
	d.targets[id] = st
	d.mu.Unlock()

	d.wg.Add(1)
	go d.monitor(id, st)
}

// Unwatch stops monitoring the id.
func (d *Detector) Unwatch(id string) {
	d.mu.Lock()
	if st, ok := d.targets[id]; ok {
		close(st.stop)
		delete(d.targets, id)
	}
	d.mu.Unlock()
}

// Heartbeat records a PUSH-style liveness assertion for the id.
func (d *Detector) Heartbeat(id string) {
	now := time.Now()
	var recover Report
	push := false
	d.mu.Lock()
	if st, ok := d.targets[id]; ok {
		st.lastBeat = now
		st.misses = 0
		st.announced = false
		if st.susp != nil {
			switch st.susp.Observe(now) {
			case TransRetract, TransRecover:
				recover = st.target.Report
				recover.Event = EventRecover
				recover.Detected = now
				push = true
			}
		}
	}
	d.mu.Unlock()
	if push {
		d.notifier.Push(recover)
	}
}

// Quality aggregates the detection-quality counters over all adaptive
// targets: suspicions raised, confirmed, retracted, and total time-to-detect.
func (d *Detector) Quality() SuspicionStats {
	var agg SuspicionStats
	d.mu.Lock()
	for _, st := range d.targets {
		if st.susp == nil {
			continue
		}
		s := st.susp.Stats()
		agg.Raised += s.Raised
		agg.Retracted += s.Retracted
		agg.Confirmed += s.Confirmed
		agg.DetectTotal += s.DetectTotal
	}
	d.mu.Unlock()
	return agg
}

// Stop terminates all monitoring.
func (d *Detector) Stop() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	d.stopped = true
	for id, st := range d.targets {
		close(st.stop)
		delete(d.targets, id)
	}
	d.mu.Unlock()
	close(d.stopCh)
	d.wg.Wait()
}

func (d *Detector) monitor(id string, st *targetState) {
	defer d.wg.Done()
	timer := time.NewTimer(d.cfg.Interval)
	defer timer.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-d.stopCh:
			return
		case <-timer.C:
		}
		if st.target.Probe != nil {
			d.pullProbe(id, st)
		} else {
			d.pushCheck(id, st)
		}
		timer.Reset(d.nextDelay(st))
	}
}

// nextDelay schedules the following monitoring tick. PUSH targets and
// fixed-mode PULL targets keep the configured Interval; with AdaptiveProbe
// a PULL target's spacing follows its phi estimator (see
// Suspicion.ProbeSpacing).
func (d *Detector) nextDelay(st *targetState) time.Duration {
	if !d.cfg.AdaptiveProbe || st.target.Probe == nil {
		return d.cfg.Interval
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if st.susp == nil {
		return d.cfg.Interval
	}
	return st.susp.ProbeSpacing(time.Now(), d.cfg.Interval, d.cfg.MaxProbeInterval)
}

// pullProbe drives PULL monitoring for one tick. Probes are serialized per
// target: if the previous probe is still in flight the tick launches
// nothing — an overdue in-flight probe counts as a miss, so a stuck Probe
// pins exactly one goroutine and is still detected within Retries ticks.
func (d *Detector) pullProbe(id string, st *targetState) {
	now := time.Now()
	d.mu.Lock()
	if st.probing {
		var r Report
		ok := false
		if now.Sub(st.probeStart) > d.cfg.Timeout {
			r, ok = d.missLocked(st, now)
		}
		d.mu.Unlock()
		if ok {
			d.notifier.Push(r)
		}
		return
	}
	st.probing = true
	st.probeStart = now
	d.mu.Unlock()

	go func() {
		err := st.target.Probe()
		select {
		case <-st.stop:
			return
		case <-d.stopCh:
			return
		default:
		}
		done := time.Now()
		var r Report
		ok := false
		d.mu.Lock()
		st.probing = false
		if err == nil {
			st.misses = 0
			st.announced = false
			st.lastBeat = done
			if st.susp != nil {
				switch st.susp.Observe(done) {
				case TransRetract, TransRecover:
					r = st.target.Report
					r.Event = EventRecover
					r.Detected = done
					ok = true
				}
			}
		} else {
			r, ok = d.missLocked(st, done)
		}
		d.mu.Unlock()
		if ok {
			d.notifier.Push(r)
		}
	}()
}

// missLocked records one failed/overdue probe and advances the detection
// state, returning a report to push (after unlocking). Caller holds d.mu.
func (d *Detector) missLocked(st *targetState, now time.Time) (Report, bool) {
	if st.susp != nil {
		return d.evalLocked(st, now)
	}
	st.misses++
	if st.misses >= d.cfg.Retries && !st.announced {
		st.announced = true
		return st.target.Report, true
	}
	return Report{}, false
}

// evalLocked steps an adaptive target's suspicion machine, returning a
// report to push (after unlocking). Caller holds d.mu.
func (d *Detector) evalLocked(st *targetState, now time.Time) (Report, bool) {
	r := st.target.Report
	switch st.susp.Eval(now) {
	case TransSuspect:
		r.Event = EventSuspect
	case TransDead:
		r.Event = EventFault
	default:
		return Report{}, false
	}
	r.Detected = now
	return r, true
}

// pushCheck verifies a heartbeat arrived within the window.
func (d *Detector) pushCheck(id string, st *targetState) {
	now := time.Now()
	d.mu.Lock()
	if st.susp != nil {
		r, ok := d.evalLocked(st, now)
		d.mu.Unlock()
		if ok {
			d.notifier.Push(r)
		}
		return
	}
	window := time.Duration(d.cfg.Retries) * d.cfg.Interval
	late := now.Sub(st.lastBeat) > window
	declare := late && !st.announced
	if declare {
		st.announced = true
	}
	d.mu.Unlock()
	if declare {
		d.notifier.Push(st.target.Report)
	}
}
