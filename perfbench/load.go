package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
)

const (
	// A wait longer than sleepAbove sleeps until sleepMargin before the
	// due time and spins the rest: on a host whose timers fire ~1 ms
	// late, sleeping through a sub-millisecond wait makes every send late.
	sleepAbove  = 2 * time.Millisecond
	sleepMargin = 1500 * time.Microsecond
	// spinStep is the longest gap between two spin turns still counted as
	// spinning; a longer one means the thread was descheduled.
	spinStep = 20 * time.Microsecond
)

// waitUntil returns at t0+due. It returns the time it spent spinning, an
// estimate of the CPU the wait burned. The spin does not yield: yielding
// on every turn churns the scheduler the system under test runs on, and
// made latencies swing by a sixth from run to run.
func waitUntil(t0 time.Time, due time.Duration) int64 {
	var spin int64
	last := time.Since(t0)
	for {
		rem := due - last
		if rem <= 0 {
			return spin
		}
		if rem > sleepAbove {
			time.Sleep(rem - sleepMargin)
			last = time.Since(t0)
			continue
		}
		now := time.Since(t0)
		if step := now - last; step < spinStep {
			spin += int64(step)
		}
		last = now
	}
}

// sleepUntil sleeps until t0+at.
func sleepUntil(t0 time.Time, at time.Duration) {
	if d := at - time.Since(t0); d > 0 {
		time.Sleep(d)
	}
}

// session is one logical client's view: the newest version it wrote and
// read per key, for the read-your-writes and monotonic-read checks.
type session struct {
	wrote, read map[uint16]uint64
}

func newSession() *session {
	return &session{wrote: make(map[uint16]uint64), read: make(map[uint16]uint64)}
}

// startLoad starts the senders; they run until stopAt (ns since t0)
// passes. Closed loops get one goroutine per client, open loops a single
// sender.
func (r *runner) startLoad(stopAt, spin *atomic.Int64) *sync.WaitGroup {
	var wg sync.WaitGroup
	if r.w.openLoop() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.openLoop(stopAt, spin)
		}()
		return &wg
	}
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.closedLoop(c, stopAt)
		}(c)
	}
	return &wg
}

// openLoop sends every op due before the stop time, also those it is
// still behind on when the stop comes: dropping them would hide the
// backlog from the latencies.
func (r *runner) openLoop(stopAt, spin *atomic.Int64) {
	sessions := []*session{newSession(), newSession()}
	for i := range r.in.ops {
		o := r.in.ops[i]
		if int64(o.due) >= stopAt.Load() {
			return
		}
		spin.Add(waitUntil(r.t0, o.due))
		rc := &r.recs[i]
		rc.start = int64(o.due)
		rc.sent = r.now()
		r.invoke(o, rc, sessions[o.client])
	}
}

func (r *runner) closedLoop(c int, stopAt *atomic.Int64) {
	s := newSession()
	for k := 0; ; k++ {
		i := k*r.w.clients + c
		if r.now() >= stopAt.Load() {
			return
		}
		if i >= r.in.n {
			r.problem("client %d sent all its %d ops before the load stopped: raise closedLoopRate", c, k)
			return
		}
		rc := &r.recs[i]
		rc.sent = r.now()
		rc.start = rc.sent
		r.invoke(r.in.op(i), rc, s)
	}
}

// invoke sends o through its client's proxy and checks the reply.
func (r *runner) invoke(o op, rc *rec, s *session) {
	name, args := r.in.args(o)
	out, err := r.proxies[o.client].Invoke(name, args...)
	rc.end = r.now()
	rc.done = true
	if r.tr != nil && r.tr.on.Load() {
		r.tr.add(span{Name: "invoke", ID: o.id, Start: rc.sent, End: rc.end})
	}
	if err != nil {
		return
	}
	rc.ok = true
	if o.kind.isWrite() {
		for cur := r.okWrite.Load(); rc.start > cur && !r.okWrite.CompareAndSwap(cur, rc.start); {
			cur = r.okWrite.Load()
		}
	}
	if msg := r.checkReply(o, rc, out, s); msg != "" {
		r.problem("op %d (%s): %s", o.id, name, msg)
	}
}

// checkReply validates one reply and returns what is wrong with it.
func (r *runner) checkReply(o op, rc *rec, out []cdr.Value, s *session) string {
	switch o.kind {
	case kindEcho:
		if len(out) != 1 || !bytes.Equal(out[0].AsOctetSeq(), r.in.payloads[o.payload]) {
			return "echo reply differs from its payload"
		}
	case kindPut:
		if len(out) != 1 {
			return fmt.Sprintf("put returned %d values", len(out))
		}
		rc.ver = out[0].U64
		if floor := max(s.wrote[o.key], s.read[o.key]); rc.ver <= floor {
			return fmt.Sprintf("put on key %d got version %d, client already saw %d", o.key, rc.ver, floor)
		}
		s.wrote[o.key] = rc.ver
	case kindGet:
		if len(out) != 2 {
			return fmt.Sprintf("get returned %d values", len(out))
		}
		ver, writer := out[0].U64, out[1].U64
		if ver < s.wrote[o.key] {
			return fmt.Sprintf("read-your-writes: key %d read version %d after writing %d", o.key, ver, s.wrote[o.key])
		}
		if ver < s.read[o.key] {
			return fmt.Sprintf("monotonic reads: key %d read version %d after reading %d", o.key, ver, s.read[o.key])
		}
		s.read[o.key] = ver
		return r.checkWriter(o, ver, writer)
	}
	return ""
}

// checkWriter checks that a read names a put on the same key, and the
// version that put was acknowledged with.
func (r *runner) checkWriter(o op, ver, writer uint64) string {
	switch {
	case ver == 0 && writer == 0:
		return ""
	case writer == 0 || ver == 0:
		return fmt.Sprintf("key %d read version %d written by op %d", o.key, ver, writer)
	}
	if st, _ := splitID(writer); st == streamWarmup {
		// Every warmup put writes key 0.
		if o.key != 0 {
			return fmt.Sprintf("key %d read the value of warmup op %#x", o.key, writer)
		}
		return ""
	}
	i, ok := r.in.indexOf(writer)
	if !ok {
		return fmt.Sprintf("key %d read the value of unknown op %#x", o.key, writer)
	}
	w, wr := r.in.op(i), r.recs[i]
	if w.kind != kindPut || w.key != o.key {
		return fmt.Sprintf("key %d read the value of op %d, which did not write it", o.key, writer)
	}
	if wr.ok && wr.ver != ver {
		return fmt.Sprintf("key %d read version %d for op %d, acknowledged as %d", o.key, ver, writer, wr.ver)
	}
	return ""
}

// window is the measured stretch of one phase, in ns since t0.
type window struct{ from, to int64 }

func (w window) has(t int64) bool { return t >= w.from && t < w.to }

// phases records what the timeline measured.
type phases struct {
	main   window // end-to-end metrics (untraced program) or untraced half
	traced window // traced half of the traced program
	// Untraced program only: process CPU and generator spin (ns) at the
	// start and at each slice boundary of main, and resident-set samples.
	cpu, spin []int64
	rssMB     []float64
	c0, c1    counters
	m0, m1    runtime.MemStats
}

// measure runs the load and the crash episodes and returns the windows.
func (r *runner) measure() (*phases, error) {
	T := r.seconds
	var stopAt, spin atomic.Int64
	stopAt.Store(math.MaxInt64)
	r.t0 = time.Now()
	if r.tr != nil {
		r.tr.t0 = r.t0
	}
	wg := r.startLoad(&stopAt, &spin)
	stopLoad := func() {
		stopAt.Store(r.now())
		wg.Wait()
	}

	var epErr error
	epDone := make(chan struct{})
	go func() {
		defer close(epDone)
		for _, at := range r.in.crashAt {
			sleepUntil(r.t0, at)
			ep, err := r.runEpisode()
			if err != nil {
				epErr = err
				return
			}
			r.episodes = append(r.episodes, ep)
		}
	}()

	ph := &phases{main: window{0, int64(T)}}
	if r.tr == nil {
		// Every rssEvery a resident-set sample; at every slice boundary
		// the CPU time and generator spin so far.
		mark := func() { ph.cpu, ph.spin = append(ph.cpu, cpuNs()), append(ph.spin, spin.Load()) }
		mark()
		for at := rssEvery; at <= T; at += rssEvery {
			sleepUntil(r.t0, at)
			ph.rssMB = append(ph.rssMB, rssMB())
			if at%slice == 0 || at == T {
				mark()
			}
		}
	} else {
		ph.main.to = int64(T / 2)
		sleepUntil(r.t0, T/2)
		ph.c0, ph.m0 = r.snapshot(), memStats()
		ph.traced.from = r.now()
		r.ct.on.Store(true)
		r.tr.on.Store(true)
		sleepUntil(r.t0, T)
		r.tr.on.Store(false)
		r.ct.on.Store(false)
		ph.traced.to = r.now()
		ph.c1, ph.m1 = r.snapshot(), memStats()
	}
	<-epDone
	if epErr != nil {
		stopLoad()
		return nil, epErr
	}
	stopLoad()
	return ph, nil
}
