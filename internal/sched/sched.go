// Package sched holds compiled communication schedules — the inspector half
// of the inspector/executor split the paper assigns to the KF1 compiler
// ("the compiler would hoist that derivation out of iterative loops so only
// the data motion repeats").
//
// An inspector (darray's halo/gather/move compilers, kf's loop plans) walks
// a distributed array's layout once and emits a Schedule: for every message,
// the peer rank, the tag part within the phase scope, the payload size, and
// the contiguous pack (or unpack) runs into the local flat storage. The
// executor, Execute, replays the schedule against any scope: it packs each
// send from pooled message buffers with plain copies, performs the purely
// local moves, then receives and unpacks in the compiled order. Replay
// performs no derivation and, in steady state, no heap allocation — the same
// messages, in the same order, with the same byte counts as the direct
// derivation it was compiled from, so virtual times are bit-identical.
//
// A schedule names its peers as rank offsets from the executing processor,
// so it is a position-class object: in a block distribution every interior
// rank compiles the same halo exchange — the same runs into the same local
// layout, to the same relative neighbours — and Intern lets them hold one
// copy, whatever the rank count. Execute adds p.Rank() to each offset.
//
// Schedules speak only to machine.Proc's Send/Recv, never to a delivery
// mechanism, so a compiled schedule replays unchanged — same messages, same
// virtual times — on any machine.Transport (shared-memory mailboxes or the
// node-federated transport); the machine package's conformance suite and
// experiment S2 hold every transport to that.
package sched

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"repro/internal/machine"
)

// Run is one contiguous run of values in a flat []float64 storage.
type Run struct {
	Off, Len int
}

// Msg is one compiled message: the peer's machine rank as an offset from
// the executing processor's, the tag part distinguishing the stream within
// the executing phase's scope, the payload length in values, and the
// pack/unpack runs in payload order.
type Msg struct {
	Peer int
	Part uint16
	N    int
	Runs []Run
}

// Move is one purely local copy from the source storage to the destination
// storage (no message, no virtual-time cost — a compiler would never ship
// local data through the network).
type Move struct {
	SrcOff, DstOff, Len int
}

// Schedule is a compiled communication pattern: sends packed from the
// source storage, local moves, then receives unpacked into the destination
// storage. The zero value is an empty schedule and executes as a no-op.
type Schedule struct {
	Sends []Msg
	Local []Move
	Recvs []Msg
}

// AddSendRun appends a run to the last send message, merging with the
// previous run when storage-adjacent, and grows the message's size.
func (s *Schedule) AddSendRun(off, n int) { s.Sends[len(s.Sends)-1].add(off, n) }

// AddRecvRun appends a run to the last receive message, merging adjacent
// runs.
func (s *Schedule) AddRecvRun(off, n int) { s.Recvs[len(s.Recvs)-1].add(off, n) }

func (m *Msg) add(off, n int) {
	m.N += n
	if k := len(m.Runs); k > 0 {
		if last := &m.Runs[k-1]; last.Off+last.Len == off {
			last.Len += n
			return
		}
	}
	m.Runs = append(m.Runs, Run{Off: off, Len: n})
}

// AddMove appends a local move, merging with the previous move when both
// source and destination are adjacent.
func (s *Schedule) AddMove(srcOff, dstOff, n int) {
	if k := len(s.Local); k > 0 {
		if last := &s.Local[k-1]; last.SrcOff+last.Len == srcOff && last.DstOff+last.Len == dstOff {
			last.Len += n
			return
		}
	}
	s.Local = append(s.Local, Move{SrcOff: srcOff, DstOff: dstOff, Len: n})
}

// Counts returns the schedule's outgoing traffic: messages and values sent.
func (s *Schedule) Counts() (msgs, words int) {
	for i := range s.Sends {
		words += s.Sends[i].N
	}
	return len(s.Sends), words
}

// Execute replays the schedule on processor p under scope sc — each peer is
// p.Rank() plus its message's offset: every send is
// packed from src into a pooled buffer and shipped with ownership transfer;
// local moves copy src into dst; every receive is unpacked into dst and its
// buffer released back to the pool. Steady-state replay allocates nothing.
//
// src and dst may alias (a halo exchange packs and unpacks the same local
// block); either may be nil when the schedule has no runs on that side.
//
// Execute is Step driven to the end, waiting wherever a receive would
// block.
func (s *Schedule) Execute(p *machine.Proc, sc machine.Scope, src, dst []float64) {
	var cur Cursor
	for !s.Step(p, sc, src, dst, &cur) {
		p.Wait()
	}
}

// Cursor is a replay in progress: how far Step has come through a
// schedule. The zero value is a replay not yet begun.
type Cursor struct {
	recvd int32 // 0: nothing done; k > 0: sends and moves done, k-1 receives
}

// Step advances the replay Execute performs from cur, without parking: it
// returns true once every receive is unpacked, and false when the next
// receive would block (p.TryRecv), with cur holding the replay's place —
// call Step again with the same arguments to resume it. The sends and local
// moves go out on the first call.
func (s *Schedule) Step(p *machine.Proc, sc machine.Scope, src, dst []float64, cur *Cursor) bool {
	if cur.recvd == 0 {
		for i := range s.Sends {
			m := &s.Sends[i]
			buf := p.AcquireBuf(m.N)
			k := 0
			for _, r := range m.Runs {
				copy(buf[k:k+r.Len], src[r.Off:r.Off+r.Len])
				k += r.Len
			}
			p.SendOwned(p.Rank()+m.Peer, sc.Tag(m.Part), buf)
		}
		for _, mv := range s.Local {
			copy(dst[mv.DstOff:mv.DstOff+mv.Len], src[mv.SrcOff:mv.SrcOff+mv.Len])
		}
		cur.recvd = 1
	}
	for ; int(cur.recvd) <= len(s.Recvs); cur.recvd++ {
		m := &s.Recvs[cur.recvd-1]
		buf, ok := p.TryRecv(p.Rank()+m.Peer, sc.Tag(m.Part))
		if !ok {
			return false
		}
		if len(buf) != m.N {
			panic(fmt.Sprintf("sched: message from rank %d part %d has %d values, schedule expects %d",
				p.Rank()+m.Peer, m.Part, len(buf), m.N))
		}
		k := 0
		for _, r := range m.Runs {
			copy(dst[r.Off:r.Off+r.Len], buf[k:k+r.Len])
			k += r.Len
		}
		p.ReleaseBuf(buf)
	}
	return true
}

// runCap is the run capacity a message under compilation starts with: one
// allocation covers the common strided-plane case instead of a doubling
// sequence. Compact gives the slack back.
const runCap = 8

// Compact moves every message's runs into one slab of exactly their total
// length. Intern calls it on the schedule it publishes (and an inspector
// that keeps a schedule of its own, once it is complete): what a machine
// keeps is then the runs it replays and no growth capacity, in one
// allocation. Adding runs afterwards still works (each message's share of
// the slab is capped, so an append copies it out) — but not to an
// interned schedule, which must not change.
func (s *Schedule) Compact() {
	n := 0
	for _, msgs := range [2][]Msg{s.Sends, s.Recvs} {
		for i := range msgs {
			n += len(msgs[i].Runs)
		}
	}
	slab := make([]Run, 0, n)
	for _, msgs := range [2][]Msg{s.Sends, s.Recvs} {
		for i := range msgs {
			k := len(slab)
			slab = append(slab, msgs[i].Runs...)
			msgs[i].Runs = slab[k:len(slab):len(slab)]
		}
	}
}

// BeginSend starts a new (empty) send message to the rank at offset peer
// from the executing processor, with the given tag part; fill it with
// AddSendRun.
func (s *Schedule) BeginSend(peer int, part uint16) {
	s.Sends = append(s.Sends, Msg{Peer: peer, Part: part, Runs: make([]Run, 0, runCap)})
}

// BeginRecv starts a new (empty) receive message from the rank at offset
// peer, with the given tag part; fill it with AddRecvRun.
func (s *Schedule) BeginRecv(peer int, part uint16) {
	s.Recvs = append(s.Recvs, Msg{Peer: peer, Part: part, Runs: make([]Run, 0, runCap)})
}

// Intern returns machine m's one schedule with s's content (see
// machine.Intern): s itself, compacted, when no rank has compiled this
// content before, else the copy that rank published, and s is dropped. A
// schedule must not be changed once interned.
func (s *Schedule) Intern(m *machine.Machine) *Schedule {
	var buf [512]byte
	key := appendMsgs(append(buf[:0], 'S'), s.Sends)
	key = binary.AppendUvarint(key, uint64(len(s.Local)))
	for _, mv := range s.Local {
		key = binary.AppendUvarint(key, uint64(mv.SrcOff))
		key = binary.AppendUvarint(key, uint64(mv.DstOff))
		key = binary.AppendUvarint(key, uint64(mv.Len))
	}
	key = appendMsgs(key, s.Recvs)
	return machine.Intern(m, key, func() *Schedule {
		s.Compact()
		return s
	})
}

// InternRuns is Intern for a bare run list (a gather's pack runs, say): the
// machine's one copy of runs' content, nil for no runs.
func InternRuns(m *machine.Machine, runs []Run) []Run {
	if len(runs) == 0 {
		return nil
	}
	var buf [256]byte
	key := appendRuns(append(buf[:0], 'R'), runs)
	// The table holds the copy by its first run; the key fixes its length.
	first := machine.Intern(m, key, func() *Run { return &append([]Run(nil), runs...)[0] })
	return unsafe.Slice(first, len(runs))
}

func appendMsgs(key []byte, msgs []Msg) []byte {
	key = binary.AppendUvarint(key, uint64(len(msgs)))
	for i := range msgs {
		m := &msgs[i]
		key = binary.AppendVarint(key, int64(m.Peer))
		key = binary.AppendUvarint(key, uint64(m.Part))
		key = binary.AppendUvarint(key, uint64(m.N))
		key = appendRuns(key, m.Runs)
	}
	return key
}

func appendRuns(key []byte, runs []Run) []byte {
	key = binary.AppendUvarint(key, uint64(len(runs)))
	for _, r := range runs {
		key = binary.AppendUvarint(key, uint64(r.Off))
		key = binary.AppendUvarint(key, uint64(r.Len))
	}
	return key
}
