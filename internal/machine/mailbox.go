package machine

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// message is a delivered-but-not-yet-received payload with its virtual
// arrival time at the destination.
type message struct {
	data    []float64
	arrival float64
}

// msgKey matches receives to sends: point-to-point by source and tag.
type msgKey struct {
	src int
	tag Tag
}

// mailbox is one processor's incoming message state: the pending messages,
// indexed so that a match is arithmetic and two array reads, and the receive
// its owner is blocked on. Each mailbox has its own lock, so senders targeting
// different receivers never contend — the post office is sharded by
// destination. Only the owning processor's goroutine receives from a mailbox;
// any processor may put into it.
//
// The index is a chained hash table the mailbox owns outright, in one array:
// cell i is both bucket i (the head and tail of a chain) and slot i (one
// pending message and its link). Slots hashing to the same bucket form a
// singly linked chain in arrival order, appended at the tail and matched
// from the head, so the first slot carrying a key is that (src, tag)
// stream's oldest message — FIFO per stream with no per-stream queue. The
// array is a power of two no smaller than the number of pending messages,
// which keeps the expected chain a receive walks to O(1) however deep one
// stream runs or however many distinct keys are pending (a gather root holds
// one per rank), and is always room enough for their slots. Freed slots go
// on a free list threaded through the same next field, so traffic that
// stays inside the high-water mark allocates nothing; reset keeps the array.
//
// Slot references are index+1, so the zero value of a head, a tail, a next
// field and the free list all mean "none".
type mailbox struct {
	mu      sync.Mutex
	cells   []cell
	used    uint32 // slots handed out since the last reset: refs 1..used
	free    uint32 // head of the free-slot list
	pending int    // messages put and not yet taken
	shift   uint8  // 64 - log2(len(cells)): the hash keeps its top bits
	// await/waiting describe the receive the owner is blocked on, for
	// targeted wakeups and the stall snapshot.
	await   msgKey
	waiting bool
}

// cell is one bucket and one slot of a mailbox's table (64 bytes).
type cell struct {
	head, tail uint32 // bucket: its oldest and newest slot
	next       uint32 // slot: the next of its chain, or of the free list
	key        msgKey
	msg        message
}

// minCells is the table a mailbox starts with on its first put; a
// halo-exchanging rank rarely needs more.
const minCells = 4

// bucketOf hashes k to its bucket: a multiply-mix of (src, tag), top bits
// kept, so neither consecutive sources under one tag nor one source's
// consecutive tags cluster.
func (mb *mailbox) bucketOf(k msgKey) *cell {
	h := (uint64(k.src)*0x9e3779b97f4a7c15 ^ uint64(k.tag)) * 0xbf58476d1ce4e5b9
	return &mb.cells[h>>mb.shift]
}

// putLocked appends a message to the mailbox. Caller holds mb.mu.
func (mb *mailbox) putLocked(k msgKey, msg message) {
	if mb.pending == len(mb.cells) {
		mb.grow()
	}
	ref := mb.free
	if ref != 0 {
		mb.free = mb.cells[ref-1].next
	} else {
		mb.used++ // used <= the most ever pending at once < len(cells)
		ref = mb.used
	}
	s := &mb.cells[ref-1]
	s.key, s.msg, s.next = k, msg, 0
	mb.link(mb.bucketOf(k), ref)
	mb.pending++
}

// link appends slot ref (whose next is already zero) to bucket b's chain.
func (mb *mailbox) link(b *cell, ref uint32) {
	if b.tail != 0 {
		mb.cells[b.tail-1].next = ref
	} else {
		b.head = ref
	}
	b.tail = ref
}

// grow doubles the table (or creates it), slots staying where they are, and
// rehashes the pending ones. Walking the old buckets chain by chain keeps
// every stream's messages in arrival order: a stream lives in one chain
// before and one after.
func (mb *mailbox) grow() {
	old := mb.cells
	n := max(2*len(old), minCells)
	mb.cells = make([]cell, n)
	mb.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for i := range old[:mb.used] {
		s := &mb.cells[i]
		s.key, s.msg, s.next = old[i].key, old[i].msg, old[i].next
	}
	for i := range old {
		for ref := old[i].head; ref != 0; {
			s := &mb.cells[ref-1]
			next := s.next
			s.next = 0
			mb.link(mb.bucketOf(s.key), ref)
			ref = next
		}
	}
}

// takeLocked removes the oldest message matching k, reporting whether one
// was present; the slot drops its payload reference and joins the free list.
// Caller holds mb.mu.
func (mb *mailbox) takeLocked(k msgKey) (message, bool) {
	if mb.pending == 0 {
		return message{}, false
	}
	b := mb.bucketOf(k)
	for prev, ref := uint32(0), b.head; ref != 0; {
		s := &mb.cells[ref-1]
		if s.key != k {
			prev, ref = ref, s.next
			continue
		}
		if prev != 0 {
			mb.cells[prev-1].next = s.next
		} else {
			b.head = s.next
		}
		if b.tail == ref {
			b.tail = prev
		}
		msg := s.msg
		s.msg, s.next = message{}, mb.free
		mb.free = ref
		mb.pending--
		return msg, true
	}
	return message{}, false
}

// hasLocked reports whether a message matching k is pending. Caller holds
// mb.mu.
func (mb *mailbox) hasLocked(k msgKey) bool {
	if mb.pending == 0 {
		return false
	}
	for ref := mb.bucketOf(k).head; ref != 0; ref = mb.cells[ref-1].next {
		if mb.cells[ref-1].key == k {
			return true
		}
	}
	return false
}

// reset clears the mailbox between Runs, dropping every payload reference
// and keeping the table for reuse. A mailbox its run drained — every clean
// run's — is already clear.
func (mb *mailbox) reset() {
	if mb.pending != 0 {
		clear(mb.cells)
		mb.used, mb.free, mb.pending = 0, 0, 0
	}
	mb.waiting = false
	mb.await = msgKey{}
}

// boxSet is the match/park/stall/abort core every bundled transport is a
// configuration of: one mailbox per rank of the window [lo, lo+len(boxes)),
// the bound coordinator and the down flag. SharedTransport,
// FederatedTransport and IPCTransport run it over the whole machine (through
// localPlane); WorkerTransport runs it over its node's window.
type boxSet struct {
	boxes []mailbox
	lo    int // boxes[i] is rank lo+i's mailbox
	coord *coordinator
	down  atomic.Bool
}

func (s *boxSet) initBoxes(lo, n int) {
	s.lo = lo
	s.boxes = make([]mailbox, n)
}

// Down reports whether the transport has been taken down (abort, declared
// stall, or a failure of whatever hosts it) since it was last cleared.
func (s *boxSet) Down() bool { return s.down.Load() }

// deliver places a message in dst's mailbox and, if dst is waiting for
// exactly this stream, wakes it through the run's engine (moving dst
// from parked to runnable on its calendar). A waiting owner means a run in
// flight that cannot end before this wake: dst leaves its receive only under
// the mailbox lock held here. Only the destination's mailbox lock is taken,
// so concurrent deliveries to different receivers proceed in parallel. It
// reports whether it woke the owner.
func (s *boxSet) deliver(src, dst int, tag Tag, data []float64, arrival float64) bool {
	mb := &s.boxes[dst-s.lo]
	k := msgKey{src: src, tag: tag}
	mb.mu.Lock()
	mb.putLocked(k, message{data: data, arrival: arrival})
	woke := mb.waiting && mb.await == k
	if woke {
		s.coord.engine().Wake(dst)
	}
	mb.mu.Unlock()
	return woke
}

// tryRecv is one receive attempt that never parks: it takes the oldest
// message matching (src, tag) from dst's mailbox (recvOK), reports the
// transport down (recvDown), or reports that the caller would block
// (recvWait). A miss publishes what dst is waiting for, under the mailbox
// lock and before the caller can park, so the stall snapshot sees every
// parked receiver's awaited key; the attempt that ends the wait, with a
// message or on a down transport, withdraws it under the same lock. A
// caller that got recvWait must retry the same (src, tag) before any other
// receive.
func (s *boxSet) tryRecv(dst, src int, tag Tag) ([]float64, float64, recvState) {
	mb := &s.boxes[dst-s.lo]
	k := msgKey{src: src, tag: tag}
	mb.mu.Lock()
	msg, ok := mb.takeLocked(k)
	if ok || s.down.Load() {
		mb.waiting = false
		mb.mu.Unlock()
		if !ok {
			return nil, 0, recvDown
		}
		return msg.data, msg.arrival, recvOK
	}
	mb.await = k
	mb.waiting = true
	mb.mu.Unlock()
	return nil, 0, recvWait
}

// stepping reports that tryRecv answers recvWait instead of parking.
func (s *boxSet) stepping() bool { return true }

// Recv blocks the calling endpoint until a message matching (src, tag) is
// available in dst's mailbox, then returns it, parking the calling rank
// through the run's engine while it waits: try, else park, repeat. A
// Wake that raced ahead of the park (the message arrived between the
// attempt and the park) makes the park return at once, and the next attempt
// takes the message. ok is false if the transport went down (deadlock or
// abort) while waiting.
func (s *boxSet) Recv(dst, src int, tag Tag) ([]float64, float64, bool) {
	for {
		data, arrival, st := s.tryRecv(dst, src, tag)
		if st != recvWait {
			return data, arrival, st == recvOK
		}
		s.coord.engine().Park(dst)
	}
}

// stalled is the all-locks stall snapshot, the machine's one stall oracle:
// true when at least live ranks of the window are waiting in a receive and
// none of them has a pending message matching its awaited key, where live
// is the engine's count of the run's unfinished local ranks. It takes all
// mailbox locks (in rank order) to get a consistent snapshot; with every
// lock held, "every live rank waiting and no matches anywhere" means no
// rank of the window can send again — a true deadlock when the window is
// the whole machine, the node's stalled flag when it is not.
//
// A rank running, parked in a barrier, or woken and past its receive shows
// waiting==false, which keeps the waiting count below live. A rank woken
// by a delivery but not yet past its receive still shows waiting, but its
// message is pending. One that has published its wait and not yet parked
// cannot send before it is woken, so it counts as waiting.
//
// With declare, a stall marks the set down (under the locks, so the verdict
// is atomic with the snapshot) and wakes everyone; without, it only
// evaluates — the non-destructive look the chaos layer, the relay probe and
// the worker's stall-plane state take. False with no run in flight or when
// already down.
func (s *boxSet) stalled(declare bool) bool {
	e := s.coord.engine()
	if e == nil {
		return false
	}
	for i := range s.boxes {
		s.boxes[i].mu.Lock()
	}
	stalled := false
	if live := int(e.live.Load()); live > 0 && !s.down.Load() {
		waiting := 0
		canProceed := false
		for i := range s.boxes {
			mb := &s.boxes[i]
			if !mb.waiting {
				continue
			}
			waiting++
			if mb.hasLocked(mb.await) {
				canProceed = true
			}
		}
		stalled = waiting >= live && !canProceed
	}
	if stalled && declare {
		s.down.Store(true)
	}
	for i := range s.boxes {
		s.boxes[i].mu.Unlock()
	}
	if stalled && declare {
		s.wakeAll()
	}
	return stalled
}

// takeDown marks the set down and wakes every parked rank — receivers and
// barrier waiters alike; their calls return ok=false.
func (s *boxSet) takeDown() {
	s.down.Store(true)
	s.wakeAll()
}

// wakeAll wakes every rank parked through the engine, after the down flag
// is set. With no run in flight there is none: the next blocking call reads
// the flag itself.
func (s *boxSet) wakeAll() {
	if e := s.coord.engine(); e != nil {
		e.WakeAll()
	}
}

// clearBoxes empties every mailbox and lowers the down flag, keeping
// capacity. Each mailbox lock is held while it is cleared, so a concurrent
// stall snapshot never observes a torn mixture of old and cleared state.
func (s *boxSet) clearBoxes() {
	for i := range s.boxes {
		mb := &s.boxes[i]
		mb.mu.Lock()
		mb.reset()
		mb.mu.Unlock()
	}
	s.down.Store(false)
}

// localPlane is a boxSet over the whole machine, ranks [0, n), plus the
// host barrier: the complete single-process control plane (Bind, Barrier,
// Reset, Abort, CheckStalled) of the shared, federated and ipc transports.
type localPlane struct {
	boxSet
	bar hostBarrier
}

func (p *localPlane) initPlane(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("machine: transport endpoint count must be positive, got %d", n))
	}
	p.initBoxes(0, n)
	p.bar.size = n
}

// Size returns the number of endpoints.
func (p *localPlane) Size() int { return len(p.boxes) }

// Bind installs the machine's coordinator (nil for a transport that never
// blocks; see Transport.Bind).
func (p *localPlane) Bind(c *coordinator) { p.coord = c }

// Barrier parks the calling endpoint until all endpoints arrive.
func (p *localPlane) Barrier(rank int) bool {
	if rank < 0 || rank >= len(p.boxes) {
		panic(fmt.Sprintf("machine: barrier from invalid rank %d", rank))
	}
	return p.bar.await(rank, &p.down, p.coord.engine())
}

// Reset clears all mailboxes, the barrier and the down flag, keeping
// capacity.
func (p *localPlane) Reset() {
	p.bar.reset()
	p.clearBoxes()
}

// Abort marks the transport down and wakes every blocked receiver and
// barrier waiter.
func (p *localPlane) Abort() { p.takeDown() }

// CheckStalled flags a deadlock — marks the transport down, wakes everyone
// and returns true — when every live processor is blocked with nothing
// matching pending; see boxSet.stalled.
func (p *localPlane) CheckStalled() bool { return p.stalled(true) }

// probeStalled evaluates the full stall condition without declaring the
// transport down or waking anyone — the non-destructive confirmation the
// chaos layer uses to distinguish "stalled on a lost message" from a true
// deadlock before deciding between retransmission and declaration.
func (p *localPlane) probeStalled() bool { return p.stalled(false) }

// SharedTransport is the single-machine message substrate: the local plane
// and nothing else — one individually locked mailbox per receiving
// processor, shared-memory delivery with no intermediate hops. It is the
// default transport of machine.New and the zero-allocation fast path — a
// warmed ping-pong performs no heap allocation, which the conformance suite
// pins.
type SharedTransport struct {
	localPlane
}

// NewSharedTransport returns a shared-memory transport with n endpoints.
func NewSharedTransport(n int) *SharedTransport {
	t := &SharedTransport{}
	t.initPlane(n)
	return t
}

// MessageTime prices every processor pair at the flat cost: the shared
// transport is one node, so no message ever crosses an inter-node link.
func (t *SharedTransport) MessageTime(cost CostModel, src, dst, b int) float64 {
	return cost.MessageTime(b)
}

// Send delivers a message into dst's mailbox and wakes dst if it waits on
// exactly this stream.
func (t *SharedTransport) Send(src, dst int, tag Tag, data []float64, arrival float64) {
	t.deliver(src, dst, tag, data, arrival)
}
