package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/interception"
	"repro/internal/orb"
)

const (
	// sideOps is how many requests each side phase times, after sideWarm
	// untimed ones.
	sideOps  = 400
	sideWarm = 40
	// giopOps is how many of the workload's requests the codec phase
	// marshals per repetition, and giopReps how many repetitions it runs.
	giopOps  = 2000
	giopReps = 5
)

// sideResults are the layers timed apart from the load.
type sideResults struct {
	orb, intercept         []float64 // µs per invocation
	marshalNs, unmarshalNs float64
	marshalAllocs          float64
}

// sidePhases times the codec on the workload's own requests, a plain
// unreplicated ORB echo, and the same echo through the interception
// bridge into the workload's group.
func (r *runner) sidePhases() (*sideResults, error) {
	s := &sideResults{}
	r.codecPhase(s)

	// Every crashed node has been restarted by now.
	client := r.d.Node("client").ORB
	srv := r.d.Node(r.names[0]).ORB
	ref := srv.ActivateObject("perfbench-plain", newStoreServant(r.names[0], nil))
	defer srv.DeactivateObject("perfbench-plain")
	var err error
	nextID := uint64(1)
	s.orb, err = r.timeEcho(client.Proxy(ref), func() uint64 { nextID++; return nextID }, nil)
	if err != nil {
		return nil, fmt.Errorf("orb echo: %w", err)
	}

	bridge, err := interception.Attach(r.d.Fabric, "client", interceptPort, r.d.Node("client").Engine)
	if err != nil {
		return nil, err
	}
	defer bridge.Close()
	// Intercepted echoes are writes to the workload's group and join the
	// exactly-once check.
	seq := uint64(0)
	s.intercept, err = r.timeEcho(client.Proxy(bridge.RefFor(servantType, r.gid)),
		func() uint64 { seq++; return opID(streamIntercept, seq) }, &r.extra)
	if err != nil {
		return nil, fmt.Errorf("intercepted echo: %w", err)
	}
	return s, nil
}

// timeEcho times sideOps echoes through p and checks each reply. The ids
// of acknowledged echoes go to acked when it is not nil.
func (r *runner) timeEcho(p *orb.ObjectRef, nextID func() uint64, acked *[]uint64) ([]float64, error) {
	payload := r.in.payloads[0]
	var lat []float64
	for i := 0; i < sideWarm+sideOps; i++ {
		id := nextID()
		start := time.Now()
		out, err := p.Invoke(opEcho, cdr.ULongLong(id), cdr.OctetSeq(payload))
		d := time.Since(start)
		if err != nil {
			return nil, err
		}
		if acked != nil {
			*acked = append(*acked, id)
		}
		if len(out) != 1 || !bytes.Equal(out[0].AsOctetSeq(), payload) {
			r.problem("echo %d: reply differs from its payload", id)
		}
		if i >= sideWarm {
			lat = append(lat, float64(d)/1e3)
		}
	}
	return lat, nil
}

// codecPhase marshals and unmarshals the workload's first requests as GIOP
// Request messages and checks that they round-trip.
func (r *runner) codecPhase(s *sideResults) {
	n := min(giopOps, r.in.n)
	names := make([]string, n)
	args := make([][]cdr.Value, n)
	for i := range args {
		names[i], args[i] = r.in.args(r.in.op(i))
	}
	key := []byte("perfbench")
	frames := make([][]byte, n)
	marshal := func() {
		for i := range frames {
			frames[i] = giop.Marshal(&giop.Request{
				RequestID:     uint32(i),
				ResponseFlags: 3,
				ObjectKey:     key,
				Operation:     names[i],
				Body:          orb.EncodeRequestBody(args[i]),
			})
		}
	}
	unmarshal := func(check bool) {
		for i, f := range frames {
			m, err := giop.Unmarshal(f)
			req, ok := m.(*giop.Request)
			if err != nil || !ok {
				r.problem("request %d does not unmarshal: %v", i, err)
				continue
			}
			vals, err := orb.DecodeRequestBody(req.Body)
			if check && (err != nil || req.Operation != names[i] || !sameValues(vals, args[i])) {
				r.problem("request %d does not round-trip through GIOP", i)
			}
		}
	}
	var mNs, uNs []float64
	for rep := 0; rep < giopReps; rep++ {
		m0 := memStats()
		start := time.Now()
		marshal()
		mNs = append(mNs, float64(time.Since(start))/float64(n))
		m1 := memStats()
		if rep == 0 {
			s.marshalAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		}
		start = time.Now()
		unmarshal(rep == 0)
		uNs = append(uNs, float64(time.Since(start))/float64(n))
	}
	s.marshalNs, s.unmarshalNs = median(mNs), median(uNs)
}

// sameValues compares decoded request arguments with the sent ones.
func sameValues(a, b []cdr.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].U64 != b[i].U64 || !bytes.Equal(a[i].Bytes, b[i].Bytes) {
			return false
		}
	}
	return true
}

// perLayer computes the traced program's metrics: spans and counter
// deltas from the traced window, episodes, set-up and the side phases.
func (r *runner) perLayer(ph *phases, side *sideResults) *result {
	res := newResult()
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	invokes := map[uint64]span{}
	kids := map[uint64][]span{}
	for _, s := range r.tr.snapshot() {
		switch {
		case s.Name == "invoke":
			invokes[s.ID] = s
		case s.Parent != 0 && s.Parent < episodeBase:
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var orderWait, reply, skew, self, servant, first, whole []float64
	for id, inv := range invokes {
		ks := kids[id]
		// f is the first replica to execute the call; warm passive backups
		// only apply its postimage, which counts towards the skew.
		var f *span
		firstStart, lastStart := int64(math.MaxInt64), int64(math.MinInt64)
		for i := range ks {
			k := &ks[i]
			firstStart, lastStart = min(firstStart, k.Start), max(lastStart, k.Start)
			if !strings.HasPrefix(k.Name, "dispatch@") {
				continue
			}
			servant = append(servant, us(k.dur()))
			if f == nil || k.Start < f.Start {
				f = k
			}
		}
		if i, ok := r.in.indexOf(id); f == nil || !ok || !r.in.op(i).kind.isWrite() {
			continue
		}
		if f.Start < inv.Start || f.End > inv.End {
			continue // executed outside this call, e.g. replayed after a failover
		}
		orderWait = append(orderWait, us(f.Start-inv.Start))
		first = append(first, us(f.dur()))
		reply = append(reply, us(inv.End-f.End))
		whole = append(whole, us(inv.dur()))
		self = append(self, us(selfTime(inv, ks)))
		if len(ks) > 1 {
			skew = append(skew, us(lastStart-firstStart))
		}
	}
	res.set("replication.order_wait_p50_us", median(orderWait), "us", len(orderWait))
	res.set("replication.reply_p50_us", median(reply), "us", len(reply))
	res.set("replication.replica_skew_p50_us", median(skew), "us", len(skew))
	res.set("replication.self_p50_us", median(self), "us", len(self))
	res.set("servant.dispatch_p50_us", median(servant), "us", len(servant))
	parts := median(orderWait) + median(first) + median(reply)
	res.set("trace.closure_err", math.Abs(parts-median(whole))/median(whole), "ratio", len(whole))

	tracedLat, ops := r.latencies(ph.traced, allOps)
	untracedLat, _ := r.latencies(ph.main, allOps)
	untracedWrites, _ := r.latencies(ph.main, writeOps)
	res.setTail("lat", untracedLat)
	res.setTail("write", untracedWrites)
	untracedReads, _ := r.latencies(ph.main, readOps)
	res.set("read_p50_us", median(untracedReads), "us", len(untracedReads))
	res.setTail("read", untracedReads)
	res.set("trace.overhead_frac", median(tracedLat)/median(untracedLat)-1, "ratio", len(tracedLat))
	kop := float64(max(ops, 1)) / 1000
	per := func(v uint64) float64 { return float64(v) / float64(max(ops, 1)) }
	rep0, rep1 := ph.c0.rep, ph.c1.rep
	res.set("replication.executions_per_op", per(rep1.Executions-rep0.Executions), "count", ops)
	res.set("replication.dups_per_kop", float64(rep1.DupInvocations+rep1.DupReplies-rep0.DupInvocations-rep0.DupReplies)/kop, "count", ops)
	res.set("replication.retries_per_kop", float64(rep1.Retries-rep0.Retries)/kop, "count", ops)
	res.set("replication.lf_redirects_per_kop", float64(rep1.LfRedirects-rep0.LfRedirects)/kop, "count", ops)
	res.set("replication.checkpoints_per_kop", float64(rep1.Checkpoints-rep0.Checkpoints)/kop, "count", ops)
	res.set("replication.state_transfers", float64(rep1.StateTransfers-rep0.StateTransfers), "count", 1)
	res.set("replication.replays", float64(rep1.Replays-rep0.Replays), "count", 1)
	reads := 0
	for i := range r.recs {
		if r.recs[i].done && ph.traced.has(r.recs[i].start) && r.in.op(i).kind == kindGet {
			reads++
		}
	}
	localFrac := 0.0
	if reads > 0 {
		localFrac = float64(rep1.LfReads-rep0.LfReads) / float64(reads)
	}
	res.set("replication.lf_local_read_frac", localFrac, "ratio", reads)

	t0, t1 := ph.c0.totem, ph.c1.totem
	sent := t1.Sent - t0.Sent
	res.set("totem.msgs_per_op", per(sent), "count", ops)
	// Totem counts only the frames that carry more than one message, so
	// messages per frame cannot be had from its counters.
	res.set("totem.batches_per_kop", float64(t1.Batches-t0.Batches)/kop, "count", ops)
	res.set("totem.retransmits_per_kop", float64(t1.Retransmit-t0.Retransmit)/kop, "count", ops)
	res.set("totem.formations", float64(t1.Formations-t0.Formations), "count", 1)

	pkts, bytes := r.ct.counts()
	res.set("transport.pkts_per_op", per(pkts), "count", ops)
	res.set("transport.bytes_per_op", per(bytes), "B", ops)
	sends := r.ct.sendSamples()
	res.set("transport.send_p50_ns", median(sends), "ns", len(sends))

	res.set("giop.marshal_ns", side.marshalNs, "ns", giopReps)
	res.set("giop.unmarshal_ns", side.unmarshalNs, "ns", giopReps)
	res.set("giop.marshal_allocs", side.marshalAllocs, "count", 1)
	orbP50 := median(side.orb)
	res.set("orb.invoke_p50_us", orbP50, "us", len(side.orb))
	res.set("interception.invoke_p50_us", median(side.intercept), "us", len(side.intercept))
	res.set("ft_overhead_x", median(untracedLat)/orbP50, "x", len(untracedLat))

	n := len(r.episodes)
	b := r.blackouts()
	res.set("failover.blackout_ms", median(b), "ms", len(b))
	res.set("failover.restore_ms", median(r.episodeMs(func(e episode) int64 { return e.restore - e.crash })), "ms", n)
	res.set("fault.detect_ms", median(r.episodeMs(func(e episode) int64 { return e.detect - e.crash })), "ms", n)
	res.set("ftcorba.recruit_ms", median(r.episodeMs(func(e episode) int64 { return e.recruit - e.detect })), "ms", n)
	res.set("core.restart_ms", median(r.episodeMs(func(e episode) int64 { return e.restartEnd - e.restartStart })), "ms", n)
	res.set("ftcorba.create_ms", median(r.createMs), "ms", len(r.createMs))
	res.set("core.ready_ms", median(r.readyMs), "ms", len(r.readyMs))

	m0, m1 := ph.m0, ph.m1
	res.set("go.allocs_per_op", per(m1.Mallocs-m0.Mallocs), "count", ops)
	res.set("go.bytes_per_op", per(m1.TotalAlloc-m0.TotalAlloc), "B", ops)
	res.set("go.gc_cycles_per_kop", float64(m1.NumGC-m0.NumGC)/kop, "count", ops)

	late := summarize(r.lateness(window{ph.main.from, ph.traced.to}))
	res.set("loadgen.late_p50_us", late.p50, "us", late.n)
	res.set("loadgen.late_p99_us", late.tail, "us", late.n)
	res.quant["loadgen.late_p99_us"] = late.tailQ
	return res
}

// episodeSpans turns the crash episodes into spans for the trace file.
func (r *runner) episodeSpans() []span {
	var out []span
	for n, ep := range r.episodes {
		id := uint64(episodeBase + n)
		out = append(out,
			span{Name: "episode", ID: id, Start: ep.crash, End: max(ep.restore, ep.restartEnd)},
			span{Name: "crash@" + ep.victim, Parent: id, Start: ep.crash, End: ep.crash},
			span{Name: "detect", Parent: id, Start: ep.crash, End: ep.detect},
			span{Name: "recruit", Parent: id, Start: ep.detect, End: ep.recruit},
			span{Name: "restart", Parent: id, Start: ep.restartStart, End: ep.restartEnd})
		if b, ok := r.blackout(ep); ok {
			out = append(out, span{Name: "first_ok", Parent: id, Start: ep.crash, End: ep.crash + int64(b*1e6)})
		}
	}
	return out
}
