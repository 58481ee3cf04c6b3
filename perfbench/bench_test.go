package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/orb"
	"repro/internal/transport"
)

// classPort records the class of every datagram sent through it.
type classPort struct {
	transport.Port
	classes []transport.Class
}

func (p *classPort) Send(node string, port uint16, payload []byte) error {
	p.classes = append(p.classes, transport.ClassData)
	return nil
}

func (p *classPort) SendClass(node string, port uint16, payload []byte, class transport.Class) error {
	p.classes = append(p.classes, class)
	return nil
}

type onePort struct{ p transport.Port }

func (t onePort) Open(string, uint16) (transport.Port, error) { return t.p, nil }

func TestCountingPortKeepsControlLane(t *testing.T) {
	inner := &classPort{}
	ct := newCountingTransport(onePort{inner}, 4)
	p, err := ct.Open("n1", 4000)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(transport.ClassSender); !ok {
		t.Fatal("wrapped port does not implement transport.ClassSender")
	}
	for _, on := range []bool{false, true} {
		ct.on.Store(on)
		inner.classes = nil
		if err := transport.SendClass(p, "n2", 4000, []byte("hello"), transport.ClassControl); err != nil {
			t.Fatal(err)
		}
		if err := p.Send("n2", 4000, []byte("data")); err != nil {
			t.Fatal(err)
		}
		want := []transport.Class{transport.ClassControl, transport.ClassData}
		if len(inner.classes) != 2 || inner.classes[0] != want[0] || inner.classes[1] != want[1] {
			t.Errorf("counting=%v: inner port saw classes %v, want %v", on, inner.classes, want)
		}
	}
	if pkts, bytes := ct.counts(); pkts != 2 || bytes != 9 {
		t.Errorf("counted %d datagrams of %d bytes, want 2 of 9 (only while on)", pkts, bytes)
	}
	if n := len(ct.sendSamples()); n != 2 {
		t.Errorf("%d send samples, want 2", n)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {100000, 0.99},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	d := summarize(xs)
	if d.n != 1000 || d.p50 != 500 || d.tailQ != 0.99 || d.tail != 990 {
		t.Errorf("summarize = %+v, want n=1000 p50=500 tail p99=990", d)
	}
	if d := summarize(xs[:150]); d.n != 150 || d.tailQ != 0.9 {
		t.Errorf("150 samples: %+v, want the p90 as tail", d)
	}
	if d := summarize(xs[:5]); d.tailQ != 0 || d.tail != 1000 {
		t.Errorf("5 samples: %+v, want the maximum as tail", d)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 20, End: 40}, {Start: 10, End: 30}, {Start: 90, End: 120}, {Start: -5, End: -1}}
	// Covered: [10,40] and [90,100] = 40 of 100.
	if got := selfTime(parent, kids); got != 60 {
		t.Errorf("selfTime = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func put(t *testing.T, s *storeServant, id uint64, key uint32, v string) uint64 {
	t.Helper()
	out, err := s.Dispatch(&orb.Invocation{Operation: opPut,
		Args: []cdr.Value{cdr.ULongLong(id), cdr.ULong(key), cdr.OctetSeq([]byte(v))}})
	if err != nil {
		t.Fatal(err)
	}
	return out[0].U64
}

func TestServantStateExactlyOnce(t *testing.T) {
	s := newStoreServant("n1", nil)
	put(t, s, opID(0, 1), 7, "a")
	put(t, s, opID(1, 1), 7, "b")
	put(t, s, opID(0, 3), 7, "c") // seq 2 of stream 0 never arrived
	if !s.applied(opID(0, 1)) || !s.applied(opID(0, 3)) || s.applied(opID(0, 2)) {
		t.Fatal("applied() disagrees with the writes made")
	}
	if n, _ := s.duplicates(); n != 0 {
		t.Fatalf("%d duplicates before any", n)
	}
	if v := put(t, s, opID(0, 2), 7, "d"); v != 4 || !s.applied(opID(0, 2)) {
		t.Fatalf("late write: version %d, applied %v", v, s.applied(opID(0, 2)))
	}
	put(t, s, opID(1, 1), 7, "e") // applied twice
	if n, ids := s.duplicates(); n != 1 || ids[0] != opID(1, 1) {
		t.Fatalf("duplicates = %d %v, want 1 [%#x]", n, ids, opID(1, 1))
	}

	// A replica built from the snapshot, or from the postimages, holds
	// the same state.
	st, _ := s.GetState()
	copyOf := newStoreServant("n2", nil)
	if err := copyOf.SetState(st); err != nil {
		t.Fatal(err)
	}
	if again, _ := copyOf.GetState(); !bytes.Equal(st, again) {
		t.Fatal("state changed across SetState/GetState")
	}
	backup := newStoreServant("n3", nil)
	primary := newStoreServant("n4", nil)
	for seq := uint64(1); seq <= 3; seq++ {
		put(t, primary, opID(0, seq), uint32(seq), "v")
		up, _ := primary.LastUpdate()
		if err := backup.ApplyUpdate(up); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := primary.GetState()
	b, _ := backup.GetState()
	if !bytes.Equal(a, b) {
		t.Fatal("backup built from postimages differs from the primary")
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	w, _ := workloadByName("lf_mixed")
	a := generate(w, 7, 2*time.Second, 3*time.Second)
	b := generate(w, 7, 2*time.Second, 3*time.Second)
	c := generate(w, 8, 2*time.Second, 3*time.Second)
	if len(a.ops) != len(b.ops) || a.ops[100] != b.ops[100] || !bytes.Equal(a.payloads[3], b.payloads[3]) {
		t.Fatal("same seed gave different inputs")
	}
	if bytes.Equal(a.payloads[3], c.payloads[3]) {
		t.Fatal("different seeds gave the same payloads")
	}
	for i, o := range a.ops[:1000] {
		if j, ok := a.indexOf(o.id); !ok || j != i {
			t.Fatalf("indexOf(%#x) = %d %v, want %d", o.id, j, ok, i)
		}
	}
	e, _ := workloadByName("active_echo")
	in := generate(e, 7, time.Second, time.Second)
	for _, i := range []int{0, 1, 2, 12345} {
		if j, ok := in.indexOf(in.op(i).id); !ok || j != i {
			t.Fatalf("closed loop indexOf(%#x) = %d %v, want %d", in.op(i).id, j, ok, i)
		}
	}
	if in.op(5) != generate(e, 7, time.Second, time.Second).op(5) {
		t.Fatal("same seed gave different closed-loop ops")
	}
	if _, ok := in.indexOf(opID(0, uint64(in.n))); ok {
		t.Fatal("indexOf accepted an op past the inputs")
	}
}

// declaredMetrics reads the metric lists of ../BENCHMARK.json: name to
// unit, for the end-to-end and the per-layer metrics.
func declaredMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	toMap := func(ds []decl) map[string]string {
		m := make(map[string]string, len(ds))
		for _, d := range ds {
			m[d.Name] = d.Unit
		}
		return m
	}
	return toMap(bench.EndToEnd), toMap(bench.PerLayer)
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced, and
// requires every correctness check to pass and each run to report exactly
// the metrics BENCHMARK.json declares for it, every end-to-end one nonzero.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := declaredMetrics(t)
	// The traced program writes its spans under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			seconds := time.Second
			if w.crashEvery > 0 {
				seconds = 2 * w.crashEvery // at least one crash
			}
			out, err := runWorkload(w, 1, seconds, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			s := out.summary
			if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, traced, s.Correct, s.Attempted, s.Failed, out.info["problems"])
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(s.Metrics), len(want))
			}
			for name, m := range s.Metrics {
				unit, ok := want[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s is not declared", w.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s in %s, declared in %s", w.name, traced, name, m.Unit, unit)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
		}
	}
}
