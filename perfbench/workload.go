package main

import (
	"math/rand"
	"time"

	"repro/internal/cdr"
	"repro/internal/replication"
)

// workload is one named traffic mix. Names are fixed: later changes cite
// them.
type workload struct {
	name  string
	style replication.Style
	// workers host replicas; one more node, "client", hosts the proxies
	// and never hosts a replica.
	workers int
	udp     bool // rings on loopback UDP instead of the netsim fabric
	// clients > 0 makes a closed loop of echoes with that many sender
	// goroutines; 0 makes an open loop from one sender at rate ops/s.
	clients  int
	rate     float64
	readFrac float64 // share of reads (get); the rest are writes
	keys     int     // key space of put/get
	sizeMin  int     // payload bytes, drawn uniformly in [sizeMin, sizeMax]
	sizeMax  int
	// crashEvery > 0 crashes the primary about this often while the load
	// is measured, and the Replication Manager recruits a spare
	// (infrastructure-controlled membership); a calm workload (0) sees no
	// fault.
	crashEvery time.Duration
}

var workloads = []workload{
	{name: "active_echo", style: replication.Active, workers: 3, clients: 2,
		sizeMin: 256, sizeMax: 256},
	{name: "active_udp", style: replication.Active, workers: 3, clients: 2, udp: true,
		sizeMin: 256, sizeMax: 256},
	{name: "lf_mixed", style: replication.LeaderFollower, workers: 3, rate: 2000,
		readFrac: 0.9, keys: 16, sizeMin: 64, sizeMax: 64},
	{name: "passive_failover", style: replication.WarmPassive, workers: 4,
		rate: 1000, keys: 8, sizeMin: 1024, sizeMax: 4096, crashEvery: 2 * time.Second},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) openLoop() bool { return w.clients == 0 }

// opKind is what an op does to the store.
type opKind uint8

const (
	kindEcho opKind = iota
	kindPut
	kindGet
)

func (k opKind) isWrite() bool { return k != kindGet }

// Streams of op ids (see opID): a client's writes, its reads, the warmup
// writes and the writes of the interception side phase.
const (
	streamReads     = 8 // + client
	streamWarmup    = 2
	streamIntercept = 3
)

// op is one generated request.
type op struct {
	id      uint64
	due     time.Duration // open loop: offset from the start of the load
	kind    opKind
	client  uint8
	key     uint16
	payload uint16 // index into inputs.payloads
}

// inputs is everything the run sends, generated from the seed before any
// timing starts.
type inputs struct {
	payloads [][]byte
	// n is how many ops the run can send. An open loop lists them in ops
	// in send order; a closed loop derives client c's k-th request, at
	// index k*clients+c, from the seed (see op), so its inputs take no
	// memory however fast the system runs.
	n    int
	ops  []op
	seed int64
	// crashAt are the crash offsets from the start of the load.
	crashAt []time.Duration
	// index maps an open-loop op id to its place in ops; a closed loop
	// computes it (client c's k-th request has sequence number k+1).
	index   map[uint64]int
	clients int
}

// op returns the i-th op. A closed loop sends echoes, with a payload
// drawn from the seed and i.
func (in *inputs) op(i int) op {
	if in.ops != nil {
		return in.ops[i]
	}
	c := i % in.clients
	return op{
		id:      opID(uint16(c), uint64(i/in.clients+1)),
		kind:    kindEcho,
		client:  uint8(c),
		payload: uint16(splitmix(uint64(in.seed)^uint64(i)) % payloadPool),
	}
}

// splitmix is the SplitMix64 finalizer: a cheap, well-mixed hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// indexOf returns the place of op id among the ops.
func (in *inputs) indexOf(id uint64) (int, bool) {
	if in.index != nil {
		i, ok := in.index[id]
		return i, ok
	}
	st, seq := splitID(id)
	i := int(seq-1)*in.clients + int(st)
	if seq == 0 || int(st) >= in.clients || i >= in.n {
		return 0, false
	}
	return i, true
}

// payloadPool is how many distinct payloads a run draws from.
const payloadPool = 512

// closedLoopRate is the most ops per second one closed-loop client can
// send before it runs out of ops, about four times what the system does
// today. A client that runs out fails the run: raise this then.
const closedLoopRate = 25000

// generate builds the inputs of w: crashes within the measured window and
// an open-loop schedule lasting schedule.
func generate(w workload, seed int64, measured, schedule time.Duration) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{payloads: make([][]byte, payloadPool), seed: seed}
	for i := range in.payloads {
		n := w.sizeMin + rng.Intn(w.sizeMax-w.sizeMin+1)
		b := make([]byte, n)
		rng.Read(b)
		in.payloads[i] = b
	}
	if !w.openLoop() {
		// The load stops within a second of the measured window.
		in.clients = w.clients
		in.n = w.clients * closedLoopRate * int(measured.Seconds()+1)
		return in
	}
	in.n = int(w.rate * schedule.Seconds())
	in.ops = make([]op, in.n)
	in.index = make(map[uint64]int, in.n)
	seqs := map[uint16]uint64{}
	interval := time.Duration(float64(time.Second) / w.rate)
	for i := range in.ops {
		o := op{payload: uint16(rng.Intn(payloadPool)), due: time.Duration(i) * interval, client: uint8(i % 2)}
		switch {
		case w.keys == 0:
			o.kind = kindEcho
		case rng.Float64() < w.readFrac:
			o.kind = kindGet
		default:
			o.kind = kindPut
		}
		if w.keys > 0 {
			o.key = uint16(rng.Intn(w.keys))
		}
		stream := uint16(o.client)
		if !o.kind.isWrite() {
			stream += streamReads
		}
		seqs[stream]++
		o.id = opID(stream, seqs[stream])
		in.index[o.id] = i
		in.ops[i] = o
	}
	if w.crashEvery > 0 {
		// The first crash waits for the load to settle; later ones follow
		// at crashEvery with ±10% jitter.
		at := w.crashEvery / 2
		for at < measured-w.crashEvery/2 {
			in.crashAt = append(in.crashAt, at)
			at += w.crashEvery + time.Duration((rng.Float64()-0.5)*0.2*float64(w.crashEvery))
		}
	}
	return in
}

// args returns the request arguments of o.
func (in *inputs) args(o op) (string, []cdr.Value) {
	id := cdr.ULongLong(o.id)
	switch o.kind {
	case kindPut:
		return opPut, []cdr.Value{id, cdr.ULong(uint32(o.key)), cdr.OctetSeq(in.payloads[o.payload])}
	case kindGet:
		return opGet, []cdr.Value{id, cdr.ULong(uint32(o.key))}
	default:
		return opEcho, []cdr.Value{id, cdr.OctetSeq(in.payloads[o.payload])}
	}
}
