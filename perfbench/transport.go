package main

import (
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// countingTransport wraps the ring transport of the traced program and
// counts what the totem layer hands it: datagrams, bytes and the time each
// send call takes. Counting is switched on only for the traced phase.
type countingTransport struct {
	inner transport.Transport
	on    atomic.Bool
	pkts  atomic.Uint64
	bytes atomic.Uint64
	// sendNs holds one sample per counted send; next is the next free slot.
	sendNs []int64
	next   atomic.Int64
}

func newCountingTransport(inner transport.Transport, samples int) *countingTransport {
	return &countingTransport{inner: inner, sendNs: make([]int64, samples)}
}

// Open opens the port on the wrapped transport and wraps it.
func (c *countingTransport) Open(node string, port uint16) (transport.Port, error) {
	p, err := c.inner.Open(node, port)
	if err != nil {
		return nil, err
	}
	return &countingPort{Port: p, c: c}, nil
}

// counts returns the datagrams and bytes sent while counting was on.
func (c *countingTransport) counts() (pkts, bytes uint64) {
	return c.pkts.Load(), c.bytes.Load()
}

// sendSamples returns the recorded send durations in ns.
func (c *countingTransport) sendSamples() []float64 {
	n := min(int(c.next.Load()), len(c.sendNs))
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(c.sendNs[i])
	}
	return out
}

func (c *countingTransport) record(n int, start time.Time) {
	d := time.Since(start)
	c.pkts.Add(1)
	c.bytes.Add(uint64(n))
	if i := c.next.Add(1) - 1; i < int64(len(c.sendNs)) {
		c.sendNs[i] = int64(d)
	}
}

// countingPort forwards every call to the wrapped port. It implements
// transport.ClassSender so control traffic keeps its priority lane: without
// it, transport.SendClass would fall back to plain Send and the traced
// program would schedule heartbeats differently from the untraced one.
type countingPort struct {
	transport.Port
	c *countingTransport
}

var _ transport.ClassSender = (*countingPort)(nil)

func (p *countingPort) Send(node string, port uint16, payload []byte) error {
	return p.SendClass(node, port, payload, transport.ClassData)
}

func (p *countingPort) SendClass(node string, port uint16, payload []byte, class transport.Class) error {
	if !p.c.on.Load() {
		return transport.SendClass(p.Port, node, port, payload, class)
	}
	start := time.Now()
	err := transport.SendClass(p.Port, node, port, payload, class)
	p.c.record(len(payload), start)
	return err
}
