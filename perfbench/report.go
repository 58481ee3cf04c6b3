package main

import (
	"math"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects the metrics of one run and the sample count behind each.
type result struct {
	metrics map[string]metric
	samples map[string]int
	quant   map[string]float64 // tail quantile actually used, per tail metric
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, samples: map[string]int{}, quant: map[string]float64{}}
}

// set records a metric. With no samples it reads 0; a latency made
// infinite by failed ops reads as the largest float, which JSON can carry.
func (r *result) set(name string, v float64, unit string, n int) {
	switch {
	case math.IsNaN(v):
		v = 0
	case math.IsInf(v, 1):
		v = math.MaxFloat64
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// setTail reports the tail of a latency distribution as <prefix>_p99_us,
// at the highest quantile with enough samples beyond it.
func (r *result) setTail(prefix string, xs []float64) {
	d := summarize(xs)
	name := prefix + "_p99_us"
	r.set(name, d.tail, "us", d.n)
	r.quant[name] = d.tailQ
}

// Op filters for latencies.
var (
	allOps   = func(opKind) bool { return true }
	writeOps = opKind.isWrite
	readOps  = func(k opKind) bool { return !k.isWrite() }
)

// latencies returns the latency in µs of every op of a kind keep accepts
// whose start lies in w, and how many of them completed. A failed op
// counts as infinitely slow, so it misses every limit.
func (r *runner) latencies(w window, keep func(opKind) bool) (lat []float64, completed int) {
	for i := range r.recs {
		rc := &r.recs[i]
		if !rc.done || !w.has(rc.start) || !keep(r.in.op(i).kind) {
			continue
		}
		if !rc.ok {
			lat = append(lat, math.Inf(1))
			continue
		}
		completed++
		lat = append(lat, float64(rc.end-rc.start)/1e3)
	}
	return lat, completed
}

// lateness returns how late the generator sent each op in w, in µs: past
// its due time in an open loop, past the previous reply in a closed one.
func (r *runner) lateness(w window) []float64 {
	var out []float64
	for i := range r.recs {
		rc := &r.recs[i]
		if !rc.done || !w.has(rc.start) {
			continue
		}
		var ref int64
		switch {
		case r.w.openLoop():
			ref = rc.start
		case i >= r.w.clients && r.recs[i-r.w.clients].done:
			ref = r.recs[i-r.w.clients].end
		default:
			continue
		}
		out = append(out, float64(rc.sent-ref)/1e3)
	}
	return out
}

// attempted and failed count the ops sent in w.
func (r *runner) attempted(w window) (attempted, failed int) {
	for i := range r.recs {
		rc := &r.recs[i]
		if rc.done && w.has(rc.start) {
			attempted++
			if !rc.ok {
				failed++
			}
		}
	}
	return attempted, failed
}

// blackout is the time from an episode's crash to the first acknowledged
// write sent after it, in ms; ok is false when there is none. Reads are
// left out: leased reads keep succeeding while writes wait for the new
// leader.
func (r *runner) blackout(ep episode) (ms float64, ok bool) {
	first := int64(math.MaxInt64)
	for i := range r.recs {
		rc := &r.recs[i]
		if rc.ok && rc.start >= ep.crash && rc.end < first && r.in.op(i).kind.isWrite() {
			first = rc.end
		}
	}
	if first == math.MaxInt64 {
		return 0, false
	}
	return float64(first-ep.crash) / 1e6, true
}

// blackouts returns the blackout of every episode that ended in a success.
func (r *runner) blackouts() []float64 {
	var out []float64
	for _, ep := range r.episodes {
		if b, ok := r.blackout(ep); ok {
			out = append(out, b)
		}
	}
	return out
}

// episodeMs maps each episode to a duration in ms.
func (r *runner) episodeMs(f func(episode) int64) []float64 {
	out := make([]float64, 0, len(r.episodes))
	for _, ep := range r.episodes {
		out = append(out, float64(f(ep))/1e6)
	}
	return out
}

// slice is the stretch of the measured window each end-to-end figure is
// taken over; a metric reports the median over the slices, so a burst of
// interference from outside the program moves a slice, not the result.
const slice = 2 * time.Second

// slices cuts w into consecutive stretches of slice, the last one shorter
// when slice does not divide w.
func slices(w window) []window {
	var out []window
	for from := w.from; from < w.to; from += int64(slice) {
		out = append(out, window{from, min(from+int64(slice), w.to)})
	}
	return out
}

// endToEnd computes the metrics of the untraced program: per slice of the
// measured window the completed ops per second, the latency medians and
// the CPU per op, each reported as the median over the slices.
func (r *runner) endToEnd(ph *phases) *result {
	res := newResult()
	res.set("setup_s", median(r.setupS), "s", len(r.setupS))
	var thr, lat, wlat, cpu []float64
	nOps, nWrites := 0, 0
	for k, w := range slices(ph.main) {
		// Replies in the slice over the time up to the last of them: an
		// open loop that keeps up reads its offered rate.
		done, last := 0, w.from
		for i := range r.recs {
			if rc := &r.recs[i]; rc.ok && w.has(rc.end) {
				done++
				last = max(last, rc.end)
			}
		}
		thr = append(thr, float64(done)/(float64(max(last-w.from, 1))/1e9))
		l, n := r.latencies(w, allOps)
		lat = append(lat, median(l))
		nOps += n
		l, n = r.latencies(w, writeOps)
		wlat = append(wlat, median(l))
		nWrites += n
		used := (ph.cpu[k+1] - ph.cpu[k]) - (ph.spin[k+1] - ph.spin[k])
		cpu = append(cpu, float64(used)/1e3/float64(max(done, 1)))
	}
	res.set("throughput_ops", median(thr), "1/s", nOps)
	res.set("lat_p50_us", median(lat), "us", nOps)
	res.set("write_p50_us", median(wlat), "us", nWrites)
	res.set("cpu_us_per_op", median(cpu), "us", nOps)
	res.set("mem_rss_mb", median(ph.rssMB)-r.rssBase, "MB", len(ph.rssMB))
	return res
}
