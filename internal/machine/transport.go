package machine

import (
	"sync"
	"sync/atomic"
)

// Transport is the communication substrate of a Machine: it moves message
// payloads between processor endpoints and keeps, in its mailboxes, the
// awaited streams the machine's deadlock detector reads. The Machine layers
// virtual-time accounting (clocks, overheads, stats, tracing) on top; a
// Transport only stores, matches and delivers.
//
// Message matching follows the machine's tag discipline: a receive matches
// the oldest pending message with the same (source, tag) pair addressed to
// the receiving endpoint, so every (src, dst, tag) stream is FIFO and
// distinct streams never interact. Any implementation holding that contract
// (and the rest of the conformance battery in transport_conformance_test.go)
// can carry the whole runtime — compiled communication schedules replay
// unchanged, with bit-identical virtual times, on every conforming
// transport.
//
// The bundled transports are configurations of one mailbox core (mailbox.go,
// federated.go). boxSet owns a per-rank mailbox array over a rank window,
// the bound coordinator and the down flag: deliver-and-wake, the receive
// attempt and the parking loop over it, the all-locks stall snapshot,
// clearing and take-down.
// linkSet owns the node partition, the per-directed-node-pair traffic census
// and per-link message pricing. localPlane is a boxSet over the whole
// machine plus the host barrier: Bind, Barrier, Reset, Abort, CheckStalled.
//
//   - SharedTransport is localPlane alone, priced flat.
//   - FederatedTransport adds a linkSet: an inter-node message is counted
//     and delivered under its node pair's link lock.
//   - IPCTransport adds a linkSet and worker processes: an inter-node
//     message crosses sockets before it is delivered, so its stall check
//     brackets the core's snapshot with probes of the workers.
//   - WorkerTransport, the sub-machine inside an ipc worker, is a boxSet over
//     its node's window with a cross-process barrier and the worker's
//     sockets for everything addressed outside the window.
type Transport interface {
	// Size returns the number of processor endpoints.
	Size() int

	// Send delivers data from endpoint src to endpoint dst on the
	// (src, tag) stream, with the given virtual arrival time. It never
	// blocks indefinitely and may be called concurrently from every
	// endpoint. Ownership of data passes to the transport (and then to
	// the receiver).
	Send(src, dst int, tag Tag, data []float64, arrival float64)

	// MessageTime returns the end-to-end transfer time (excluding sender
	// and receiver overheads) for a message of b bytes from endpoint src
	// to endpoint dst under cost — the arrival-time computation the
	// machine threads through every Send. The transport knows which link
	// the message crosses; the cost model knows what each link charges.
	// Flat transports return cost.MessageTime(b) for every pair;
	// node-partitioned ones (linkSet) price inter-node messages with the
	// cost model's per-link table. Implementations must be pure and deterministic.
	MessageTime(cost CostModel, src, dst, b int) float64

	// Recv blocks until a message on the (src, tag) stream addressed to
	// dst is available and returns its payload and arrival time. The ok
	// result is false when the transport went down (abort or detected
	// stall) while waiting. Only dst's goroutine may receive for dst.
	Recv(dst, src int, tag Tag) (data []float64, arrival float64, ok bool)

	// Barrier blocks the calling endpoint until every endpoint has
	// entered the same barrier generation, then releases them together.
	// It is a host-level fence with no virtual-time cost — the hook a
	// networked transport needs for epoch alignment — and reports false
	// when the transport went down while waiting. Virtual-time barriers
	// belong to the coll package.
	//
	// A processor parked in Barrier is not counted by the machine's
	// deadlock detector: a program in which some processors sit in a
	// Barrier that others will never reach (because they are stuck in an
	// unsatisfiable Recv) hangs rather than returning ErrDeadlock. Only
	// every endpoint entering the same barrier is a correct use.
	Barrier(rank int) bool

	// Reset clears all in-flight messages, waiter state, traffic
	// counters and the down flag, keeping allocated capacity, so a
	// transport can be reused across Machine.Run calls.
	Reset()

	// Abort marks the transport down and wakes every blocked receiver
	// and barrier waiter; their calls return ok=false. Subsequent
	// receives fail fast until Reset.
	Abort()

	// Down reports whether the transport has been aborted (or has
	// detected a stall) since the last Reset.
	Down() bool

	// CheckStalled decides, atomically with respect to all sends and
	// receives, whether the machine has deadlocked. With every mailbox
	// lock held it counts the receivers marked waiting: if they are at
	// least the run's live count (the engine's unfinished local ranks)
	// and none has a pending message matching its awaited stream, no
	// future send can ever occur, so the transport marks itself down,
	// wakes everyone and returns true. With no coordinator bound or no
	// run in flight it reports false.
	CheckStalled() bool

	// Bind installs the machine's coordinator. It is called once, before
	// any traffic. A transport with none bound (nil) can be sent through,
	// drained, aborted and reset, but cannot block: every blocking wait
	// parks through the engine of the coordinator's run in flight.
	Bind(c *coordinator)
}

// stepper is a transport whose receive can answer "would block" instead of
// parking the caller — the receive a step rank needs (see StepFunc). Every
// bundled transport is one: the mailbox core's tryRecv is the attempt its
// blocking Recv loops over.
type stepper interface {
	// tryRecv is one attempt at Recv's receive that never parks; see
	// boxSet.tryRecv. Where stepping is false it blocks as Recv does and
	// never answers recvWait.
	tryRecv(dst, src int, tag Tag) (data []float64, arrival float64, st recvState)
	// stepping reports whether tryRecv answers recvWait in the coming run.
	// It may change only between runs.
	stepping() bool
}

// recvState is the outcome of one receive attempt.
type recvState uint8

const (
	recvOK   recvState = iota // a message was taken
	recvWait                  // none matches: the caller would block
	recvDown                  // the transport is down
)

// tryRecvOn is tr's receive attempt: a stepper's, or Recv's blocking
// receive for a transport that is none.
func tryRecvOn(tr Transport, dst, src int, tag Tag) ([]float64, float64, recvState) {
	if s, ok := tr.(stepper); ok {
		return s.tryRecv(dst, src, tag)
	}
	return blockingRecv(tr, dst, src, tag)
}

// blockingRecv is tr's Recv as a receive attempt that never answers
// recvWait.
func blockingRecv(tr Transport, dst, src int, tag Tag) ([]float64, float64, recvState) {
	data, arrival, ok := tr.Recv(dst, src, tag)
	if !ok {
		return nil, 0, recvDown
	}
	return data, arrival, recvOK
}

// canStep reports whether tr's receive attempts answer "would block" in
// the coming run.
func canStep(tr Transport) bool {
	s, ok := tr.(stepper)
	return ok && s.stepping()
}

// hostBarrier is the generation-counted barrier shared by the bundled
// transports. It synchronizes host goroutines, not virtual clocks.
type hostBarrier struct {
	mu      sync.Mutex
	size    int
	arrived int
	gen     uint64
	// waiters lists the ranks parked on the current generation; the
	// releasing arrival wakes each one. A waiter yields its worker token —
	// with one worker, a waiter holding it would leave no later endpoint
	// able to arrive.
	waiters []int
	// onRelease, when set, is invoked by the releasing arrival with the
	// new generation, under the barrier lock — the hook a networked
	// transport uses to announce epoch boundaries to its peers. It must
	// not call back into the barrier.
	onRelease func(gen uint64)
}

// await parks the caller through the run's engine e until all size
// endpoints have arrived, reporting false if down was raised while waiting.
// The down path needs no barrier-local wakeup: whatever raised down
// broadcasts a WakeAll.
func (b *hostBarrier) await(rank int, down *atomic.Bool, e *calendarExecutor) bool {
	b.mu.Lock()
	if down.Load() {
		b.mu.Unlock()
		return false
	}
	gen := b.gen
	b.arrived++
	if b.arrived == b.size {
		b.arrived = 0
		b.gen++
		if b.onRelease != nil {
			b.onRelease(b.gen)
		}
		// Waking under b.mu keeps this generation's waiter list intact:
		// a woken rank cannot re-enter await (and append to waiters)
		// until this unlock.
		for _, w := range b.waiters {
			e.Wake(w)
		}
		b.waiters = b.waiters[:0]
		b.mu.Unlock()
		return true
	}
	b.waiters = append(b.waiters, rank)
	for b.gen == gen && !down.Load() {
		b.mu.Unlock()
		e.Park(rank)
		b.mu.Lock()
	}
	released := b.gen != gen
	b.mu.Unlock()
	return released
}

// reset clears arrival state (waiters from an aborted Run have all exited
// by the time a Machine resets its transport).
func (b *hostBarrier) reset() {
	b.mu.Lock()
	b.arrived = 0
	b.waiters = b.waiters[:0]
	b.mu.Unlock()
}
