package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/cdr"
	"repro/internal/orb"
)

// servantType is the repository id of the benchmark's servant.
const servantType = "IDL:perfbench/Store:1.0"

// Operations. Every request carries its op id first, so a replica's
// dispatch span can name the invocation it belongs to.
//
//	echo(id, payload) -> payload      a write: records id
//	put(id, key, payload) -> version  a write: records id, replaces the slot
//	get(id, key) -> (version, writer) read-only
const (
	opEcho = "echo"
	opPut  = "put"
	opGet  = "get"
)

// slot is one key of the store.
type slot struct {
	version uint64
	writer  uint64 // op id of the put that wrote it
	value   []byte
}

// An op id names its stream in the high bits and its place in the stream
// in the low ones. A stream's writes are sent one after another, so a
// replica applies them in sequence order; that lets the state prove each
// write applied exactly once in a few bytes per stream instead of a
// record per op.
const seqBits = 40

func opID(stream uint16, seq uint64) uint64 { return uint64(stream)<<seqBits | seq }

func splitID(id uint64) (stream uint16, seq uint64) {
	return uint16(id >> seqBits), id & (1<<seqBits - 1)
}

// gap is a run of sequence numbers a stream skipped: writes that were
// never applied, which is correct only for writes that were never
// acknowledged.
type gap struct {
	stream   uint16
	from, to uint64
}

// maxDups bounds the duplicate ids a state keeps as evidence.
const maxDups = 16

// storeServant is the benchmark's replicated object: a small keyed store,
// the highest applied sequence number of every write stream with the gaps
// and duplicates seen, and an order-sensitive hash over the applied ids.
// Replicas that executed the same writes in the same order hold
// byte-identical state.
type storeServant struct {
	node string
	tr   *tracer

	mu    sync.Mutex
	last  map[uint16]uint64
	gaps  []gap
	ndups uint64
	dups  []uint64
	chain uint64 // FNV-1a over applied ids, in order
	slots map[uint32]*slot
	post  []byte // postimage of the last write, for warm passive backups
}

func newStoreServant(node string, tr *tracer) *storeServant {
	return &storeServant{node: node, tr: tr, last: make(map[uint16]uint64),
		chain: fnvOffset, slots: make(map[uint32]*slot)}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (s *storeServant) RepoID() string { return servantType }

// Dispatch executes one operation and, when traced, stamps a dispatch span
// under the invocation's op id.
func (s *storeServant) Dispatch(inv *orb.Invocation) ([]cdr.Value, error) {
	traced := s.tr != nil && s.tr.on.Load()
	var start int64
	if traced {
		start = s.tr.now()
	}
	out, id, err := s.dispatch(inv)
	if traced && id != 0 {
		s.tr.add(span{Name: "dispatch@" + s.node, Parent: id, Start: start, End: s.tr.now()})
	}
	return out, err
}

var errBadArgs = &orb.UserException{Name: "IDL:perfbench/BadArgs:1.0"}

func (s *storeServant) dispatch(inv *orb.Invocation) ([]cdr.Value, uint64, error) {
	if len(inv.Args) < 2 {
		return nil, 0, errBadArgs
	}
	id := inv.Args[0].U64
	s.mu.Lock()
	defer s.mu.Unlock()
	switch inv.Operation {
	case opEcho:
		payload := inv.Args[1].AsOctetSeq()
		s.applyLocked(id, 0, nil, false)
		return []cdr.Value{cdr.OctetSeq(payload)}, id, nil
	case opPut:
		if len(inv.Args) < 3 {
			return nil, id, errBadArgs
		}
		key := uint32(inv.Args[1].U64)
		ver := s.applyLocked(id, key, inv.Args[2].AsOctetSeq(), true)
		return []cdr.Value{cdr.ULongLong(ver)}, id, nil
	case opGet:
		key := uint32(inv.Args[1].U64)
		var ver, writer uint64
		if sl := s.slots[key]; sl != nil {
			ver, writer = sl.version, sl.writer
		}
		return []cdr.Value{cdr.ULongLong(ver), cdr.ULongLong(writer)}, id, nil
	default:
		return nil, id, &orb.UserException{Name: "IDL:perfbench/BadOp:1.0"}
	}
}

// applyLocked records write id in its stream and, for a put, writes the
// slot. It keeps the postimage for LastUpdate and returns the slot's new
// version.
func (s *storeServant) applyLocked(id uint64, key uint32, value []byte, put bool) uint64 {
	st, seq := splitID(id)
	next := s.last[st] + 1
	switch {
	case seq == next:
		s.last[st] = seq
	case seq > next:
		s.gaps = append(s.gaps, gap{stream: st, from: next, to: seq - 1})
		s.last[st] = seq
	case !s.fillGapLocked(st, seq):
		s.ndups++
		if len(s.dups) < maxDups {
			s.dups = append(s.dups, id)
		}
	}
	s.chain = (s.chain ^ id) * fnvPrime
	var ver uint64
	if put {
		sl := s.slots[key]
		if sl == nil {
			sl = &slot{}
			s.slots[key] = sl
		}
		sl.version++
		sl.writer = id
		sl.value = append(sl.value[:0], value...)
		ver = sl.version
	}
	s.post = encodeUpdate(s.post[:0], id, key, value, put)
	return ver
}

// fillGapLocked removes seq from the gap holding it, if any.
func (s *storeServant) fillGapLocked(st uint16, seq uint64) bool {
	for i, g := range s.gaps {
		if g.stream != st || seq < g.from || seq > g.to {
			continue
		}
		rest := append([]gap(nil), s.gaps[i+1:]...)
		s.gaps = s.gaps[:i]
		if seq > g.from {
			s.gaps = append(s.gaps, gap{st, g.from, seq - 1})
		}
		if seq < g.to {
			s.gaps = append(s.gaps, gap{st, seq + 1, g.to})
		}
		s.gaps = append(s.gaps, rest...)
		return true
	}
	return false
}

// applied reports whether write id is in the state.
func (s *storeServant) applied(id uint64) bool {
	st, seq := splitID(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq == 0 || seq > s.last[st] {
		return false
	}
	for _, g := range s.gaps {
		if g.stream == st && seq >= g.from && seq <= g.to {
			return false
		}
	}
	return true
}

// duplicates returns how many writes were applied again, with examples.
func (s *storeServant) duplicates() (uint64, []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ndups, append([]uint64(nil), s.dups...)
}

// encodeUpdate is the postimage of one write: id, key, put flag, value.
func encodeUpdate(b []byte, id uint64, key uint32, value []byte, put bool) []byte {
	b = binary.BigEndian.AppendUint64(b, id)
	b = binary.BigEndian.AppendUint32(b, key)
	flag := byte(0)
	if put {
		flag = 1
	}
	b = append(b, flag)
	return append(b, value...)
}

// LastUpdate returns the postimage of the most recent write.
func (s *storeServant) LastUpdate() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.post...), nil
}

// ApplyUpdate replays a postimage produced by LastUpdate and, when traced,
// stamps an apply span under the write's op id.
func (s *storeServant) ApplyUpdate(b []byte) error {
	if len(b) < 13 {
		return errors.New("perfbench: short update")
	}
	id := binary.BigEndian.Uint64(b)
	key := binary.BigEndian.Uint32(b[8:])
	traced := s.tr != nil && s.tr.on.Load()
	var start int64
	if traced {
		start = s.tr.now()
	}
	s.mu.Lock()
	s.applyLocked(id, key, b[13:], b[12] == 1)
	s.mu.Unlock()
	if traced {
		s.tr.add(span{Name: "apply@" + s.node, Parent: id, Start: start, End: s.tr.now()})
	}
	return nil
}

// GetState serializes the whole state deterministically.
func (s *storeServant) GetState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.encodeLocked(), nil
}

func (s *storeServant) encodeLocked() []byte {
	be := binary.BigEndian
	b := be.AppendUint64(nil, s.chain)
	streams := make([]uint16, 0, len(s.last))
	for st := range s.last {
		streams = append(streams, st)
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i] < streams[j] })
	b = be.AppendUint32(b, uint32(len(streams)))
	for _, st := range streams {
		b = be.AppendUint16(b, st)
		b = be.AppendUint64(b, s.last[st])
	}
	b = be.AppendUint32(b, uint32(len(s.gaps)))
	for _, g := range s.gaps {
		b = be.AppendUint16(b, g.stream)
		b = be.AppendUint64(b, g.from)
		b = be.AppendUint64(b, g.to)
	}
	b = be.AppendUint64(b, s.ndups)
	b = be.AppendUint32(b, uint32(len(s.dups)))
	for _, id := range s.dups {
		b = be.AppendUint64(b, id)
	}
	keys := make([]uint32, 0, len(s.slots))
	for k := range s.slots {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b = be.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		sl := s.slots[k]
		b = be.AppendUint32(b, k)
		b = be.AppendUint64(b, sl.version)
		b = be.AppendUint64(b, sl.writer)
		b = be.AppendUint32(b, uint32(len(sl.value)))
		b = append(b, sl.value...)
	}
	return b
}

// SetState replaces the state with a GetState snapshot.
func (s *storeServant) SetState(b []byte) error {
	r := bytes.NewReader(b)
	be := binary.BigEndian
	read := func(v any) error { return binary.Read(r, be, v) }
	var chain uint64
	var n uint32
	if err := errors.Join(read(&chain), read(&n)); err != nil {
		return fmt.Errorf("perfbench: state header: %w", err)
	}
	last := make(map[uint16]uint64, n)
	for i := uint32(0); i < n; i++ {
		var e struct {
			Stream uint16
			Seq    uint64
		}
		if err := read(&e); err != nil {
			return fmt.Errorf("perfbench: state stream: %w", err)
		}
		last[e.Stream] = e.Seq
	}
	if err := read(&n); err != nil {
		return fmt.Errorf("perfbench: state gap count: %w", err)
	}
	gaps := make([]gap, n)
	for i := range gaps {
		var g struct {
			Stream   uint16
			From, To uint64
		}
		if err := read(&g); err != nil {
			return fmt.Errorf("perfbench: state gap: %w", err)
		}
		gaps[i] = gap{g.Stream, g.From, g.To}
	}
	var ndups uint64
	if err := errors.Join(read(&ndups), read(&n)); err != nil {
		return fmt.Errorf("perfbench: state duplicates: %w", err)
	}
	dups := make([]uint64, n)
	if err := read(dups); err != nil {
		return fmt.Errorf("perfbench: state duplicate ids: %w", err)
	}
	if err := read(&n); err != nil {
		return fmt.Errorf("perfbench: state key count: %w", err)
	}
	slots := make(map[uint32]*slot, n)
	for i := uint32(0); i < n; i++ {
		var hdr struct {
			Key             uint32
			Version, Writer uint64
			Len             uint32
		}
		if err := read(&hdr); err != nil {
			return fmt.Errorf("perfbench: state slot: %w", err)
		}
		v := make([]byte, hdr.Len)
		if _, err := io.ReadFull(r, v); err != nil {
			return fmt.Errorf("perfbench: state slot value: %w", err)
		}
		slots[hdr.Key] = &slot{version: hdr.Version, writer: hdr.Writer, value: v}
	}
	s.mu.Lock()
	s.chain, s.last, s.gaps, s.ndups, s.dups, s.slots = chain, last, gaps, ndups, dups, slots
	s.mu.Unlock()
	return nil
}

// servantRegistry remembers the newest servant instance on each node, so
// the final checks read the state the live replicas hold.
type servantRegistry struct {
	mu     sync.Mutex
	byNode map[string]*storeServant
}

func (r *servantRegistry) factory(node string, tr *tracer) func() orb.Servant {
	return func() orb.Servant {
		s := newStoreServant(node, tr)
		r.mu.Lock()
		r.byNode[node] = s
		r.mu.Unlock()
		return s
	}
}

func (r *servantRegistry) get(node string) *storeServant {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byNode[node]
}
