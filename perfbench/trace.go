package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced run. Operation spans use the
// op id as ID; an invoke span is a root (Parent 0) and the replicas'
// dispatch spans name it as Parent. Crash episodes are roots with
// episodeBase+n as ID and their phases as children; the crash span names
// the victim.
type span struct {
	Name       string
	ID, Parent uint64
	Start, End int64 // ns since the tracer's origin
}

// episodeBase keeps episode ids apart from op ids.
const episodeBase = 1 << 62

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. The untraced program
// has none; the traced one records only while on is set.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

// newTracer returns a tracer with room for capacity spans; the run sets
// its origin when the load starts.
func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, 0, capacity)}
}

// now returns the tracer clock: monotonic ns since its origin.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is the part of parent's interval that none of its children
// cover: its duration minus the union of the children's intervals clipped
// to it.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := int64(0)
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.a > cur.b {
			covered += cur.b - cur.a
			cur = v
		} else if v.b > cur.b {
			cur.b = v.b
		}
	}
	covered += cur.b - cur.a
	return parent.dur() - covered
}

// writeSpans writes one span per line (name, id, parent, start, end) to
// path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tparent\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.Name, s.ID, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
