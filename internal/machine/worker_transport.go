package machine

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// workerIO is the WorkerTransport's face toward the IPC worker hosting it:
// the three frame emissions a worker-local run needs. sendRemote queues an
// inter-node send for the destination node dstNode — the worker batches
// queued sends per destination into multi-message Data frames on that
// peer's socket at its next flush point, appending under its write lock so
// each (src, tag) stream keeps program order on the wire; reportStall has
// the worker look at the node's stall-plane state and, if it is quiescent
// and new, report it to the coordinator; sendBarrierArrive announces that
// every local rank reached host-barrier generation barGen. All three stamp
// the run generation, so stragglers from an aborted run are discarded.
type workerIO interface {
	sendRemote(gen uint64, src, dst, dstNode int, tag Tag, data []float64, arrival float64)
	reportStall()
	sendBarrierArrive(gen, barGen uint64)
}

// WorkerTransport is the transport a worker-hosted sub-machine runs on: the
// execution-plane half of the IPC transport. The machine above it owns the
// full rank space [0, n) but executes only this node's window [lo, hi) (see
// localRanker). It is the mailbox core (boxSet: delivery, the receive loop,
// the stall snapshot, take-down) over that window, plus the cross-process
// barrier and the workerIO below: intra-node sends go straight to the local
// mailboxes — the same 0-alloc fast path as SharedTransport, no wire, no
// syscall — and only sends whose destination lives on another node become
// frames on the socket the worker shares with that node's worker.
// Deliveries arrive from the worker's peer readers into the same mailboxes.
//
// A WorkerTransport serves one run at a time: built fresh via
// WorkerHost.NewTransport, or rebound to a new run generation
// (WorkerHost.Rebind) when the execution hook reuses a cached
// sub-machine. Reset is a no-op either way — the machine's unconditional
// start-of-run Reset must not discard inter-node frames a faster peer
// sent before this node's ranks started; the between-runs rewind happens
// in rebind, before the worker installs the run. Stall handling is split:
// the engine's local quiescence trigger calls CheckStalled here, which
// never declares anything — a single node cannot distinguish "deadlocked"
// from "waiting on a frame another node has yet to send" — but has the
// worker report the node's state to the coordinator (once per distinct
// state). The coordinator matches the nodes' reports into a global
// quiescent cut, confirms it with a probe round and broadcasts the verdict
// back, which lands here as
// declareStall (unwinding blocked ranks with the exact deadlock cause the
// single-process transports produce) or hostDown with a reason.
type WorkerTransport struct {
	boxSet      // this node's rank window [lo, hi)
	n       int // global rank-space size
	perNode int
	node    int
	hi      int
	gen     uint64 // run generation; rebind moves a cached transport to the next
	host    workerIO

	reasonMu sync.Mutex
	reason   error

	// Host-barrier state. Local arrivals count under bmu; when the whole
	// window has arrived the generation is announced to the coordinator,
	// and the waiters park until the coordinator (having heard the same
	// from every node) releases the generation via releaseBarrier.
	bmu      sync.Mutex
	arrived  int
	localGen uint64 // generations fully arrived locally (announced)
	released uint64 // generations released by the coordinator
	waiters  []int  // ranks parked on the current generation
}

// newWorkerTransport wires a transport for one node's window of an n-rank,
// nnodes-node machine at the given run generation.
func newWorkerTransport(host workerIO, node, n, nnodes int, gen uint64) (*WorkerTransport, error) {
	if n <= 0 || nnodes <= 0 || n%nnodes != 0 {
		return nil, fmt.Errorf("machine: worker transport of %d processors needs a positive node count dividing it, got %d", n, nnodes)
	}
	if node < 0 || node >= nnodes {
		return nil, fmt.Errorf("machine: worker transport node %d out of range [0, %d)", node, nnodes)
	}
	perNode := n / nnodes
	t := &WorkerTransport{
		n:       n,
		perNode: perNode,
		node:    node,
		hi:      (node + 1) * perNode,
		gen:     gen,
		host:    host,
	}
	t.initBoxes(node*perNode, perNode)
	return t, nil
}

// Size returns the global rank-space size (not the local window): ranks on
// other nodes are legal message endpoints.
func (t *WorkerTransport) Size() int { return t.n }

// LocalRanks returns the window of ranks executing on this node; see
// localRanker.
func (t *WorkerTransport) LocalRanks() (lo, hi int) { return t.lo, t.hi }

// Bind installs the sub-machine's coordinator.
func (t *WorkerTransport) Bind(c *coordinator) { t.coord = c }

// DownReason returns the structured cause of the down state, or nil — nil
// after a declared distributed stall, so blocked receivers unwind with
// exactly the ErrDeadlock cause the single-process transports produce.
func (t *WorkerTransport) DownReason() error {
	t.reasonMu.Lock()
	defer t.reasonMu.Unlock()
	return t.reason
}

// MessageTime prices a message by the node pair it crosses, identically to
// IPCTransport and FederatedTransport — the workers must price with the
// same table as the coordinator-resident transports or virtual times would
// diverge across execution modes.
func (t *WorkerTransport) MessageTime(cost CostModel, src, dst, b int) float64 {
	return cost.LinkMessageTime(src/t.perNode, dst/t.perNode, b)
}

// acquire supplies payload buffers for decoded Data frames from the
// sub-machine's pool.
func (t *WorkerTransport) acquire(n int) []float64 { return t.coord.acquire(n) }

// deliverBatch completes the inter-node crossing of one multi-message Data
// frame from node from: p holds msgs records in peerLink's batch layout.
// Each message is peeled into its own pooled buffer and makes the mailbox
// delivery every intra-node send uses. It reports whether any delivery
// woke its receiver, and errors on a malformed batch or a message that
// does not run from the sender's window into this one — a peer protocol
// failure.
func (t *WorkerTransport) deliverBatch(from int, p []float64, msgs uint64) (woke bool, err error) {
	for m := uint64(0); m < msgs; m++ {
		if len(p) < 5 {
			return woke, errors.New("machine: data batch truncated")
		}
		src := int(int64(math.Float64bits(p[0])))
		dst := int(int64(math.Float64bits(p[1])))
		plen := math.Float64bits(p[4])
		if plen > uint64(len(p)-5) {
			return woke, errors.New("machine: data message overruns its batch")
		}
		if dst < t.lo || dst >= t.hi || src < 0 || src >= t.n || src/t.perNode != from {
			return woke, fmt.Errorf("machine: frame from node %d carries a message %d -> %d, outside the link into node %d's window [%d, %d)", from, src, dst, t.node, t.lo, t.hi)
		}
		data := t.acquire(int(plen))
		copy(data, p[5:5+plen])
		if t.deliver(src, dst, Tag(math.Float64bits(p[2])), data, p[3]) {
			woke = true
		}
		p = p[5+plen:]
	}
	return woke, nil
}

// recheckStall re-runs the sub-machine's stall decision after a delivery
// that woke no rank: the state the node last reported predates the frame,
// and if the node is still stalled with it consumed, only a fresh report
// lets the coordinator's cut rule see it.
func (t *WorkerTransport) recheckStall() { t.coord.RecheckStall() }

// Send routes a message: intra-node to the mailbox fast path, inter-node
// onto the destination node's peer socket as a Data frame. The sender's
// payload buffer is recycled through the pool once encoded, exactly
// balancing the buffers the peer readers acquire for deliveries.
func (t *WorkerTransport) Send(src, dst int, tag Tag, data []float64, arrival float64) {
	if dst/t.perNode == t.node {
		t.deliver(src, dst, tag, data, arrival)
		return
	}
	t.host.sendRemote(t.gen, src, dst, dst/t.perNode, tag, data, arrival)
	t.coord.release(data)
}

// Barrier blocks the calling local rank until every rank of the whole
// machine — across all nodes — has entered the same generation. Local
// arrivals count under bmu; the last one announces the generation to the
// coordinator, which releases it (releaseBarrier) once every node has
// announced. Reports false if the transport went down while waiting.
func (t *WorkerTransport) Barrier(rank int) bool {
	if rank < t.lo || rank >= t.hi {
		panic(fmt.Sprintf("machine: barrier from rank %d outside node %d's window [%d, %d)", rank, t.node, t.lo, t.hi))
	}
	t.bmu.Lock()
	if t.down.Load() {
		t.bmu.Unlock()
		return false
	}
	t.arrived++
	var g uint64
	if t.arrived == t.hi-t.lo {
		t.arrived = 0
		t.localGen++
		g = t.localGen
		t.host.sendBarrierArrive(t.gen, g)
	} else {
		g = t.localGen + 1
	}
	if t.released < g {
		e := t.coord.engine()
		t.waiters = append(t.waiters, rank)
		for t.released < g && !t.down.Load() {
			t.bmu.Unlock()
			e.Park(rank)
			t.bmu.Lock()
		}
	}
	ok := t.released >= g
	t.bmu.Unlock()
	return ok
}

// releaseBarrier applies the coordinator's release of host-barrier
// generation g (every node announced it); called from the worker's read
// loop. Waiters left behind by a run that went down are not woken once the
// run has ended (there is no engine to wake through); rebind forgets them.
func (t *WorkerTransport) releaseBarrier(g uint64) {
	t.bmu.Lock()
	if g > t.released {
		t.released = g
	}
	if e := t.coord.engine(); e != nil {
		// Waking under bmu keeps the waiter list intact: a woken rank
		// cannot re-enter Barrier (and append again) until the unlock.
		for _, w := range t.waiters {
			e.Wake(w)
		}
		t.waiters = t.waiters[:0]
	}
	t.bmu.Unlock()
}

// rebind readies a cached transport for another run at a new generation.
// The fence that ended the previous run took the transport down
// (hostDown), so the down flag, reason, mailboxes and barrier ladder all
// rewind here. Called from the worker's read loop between the
// coordinator's RunSpec and the run's installation — no rank is
// live and the peer readers deliver nothing while no run is installed, so
// nothing races the rewind, and the new generation's frames land in the
// cleared mailboxes exactly as they would in a freshly built transport.
func (t *WorkerTransport) rebind(gen uint64) {
	t.gen = gen
	t.clearBoxes()
	t.reasonMu.Lock()
	t.reason = nil
	t.reasonMu.Unlock()
	t.bmu.Lock()
	t.arrived, t.localGen, t.released = 0, 0, 0
	t.waiters = t.waiters[:0]
	t.bmu.Unlock()
}

// Reset is a no-op: a WorkerTransport serves one run per (re)bind, and
// peers may deliver inter-node frames here between the run's
// installation and the machine's Run call — the machine's unconditional
// start-of-run Reset must not discard them. Fence semantics between runs
// belong to the coordinator's reset protocol plus rebind.
func (t *WorkerTransport) Reset() {}

// Abort marks the transport down and wakes every parked rank, receivers
// and barrier waiters alike. It is local to this node: the coordinator
// learns of the run's failure from the rank errors in the RankResult frames.
func (t *WorkerTransport) Abort() { t.takeDown() }

// hostDown takes the run down on the coordinator's order with a structured
// reason (worker-side of IPCTransport's abort broadcast); first reason
// wins.
func (t *WorkerTransport) hostDown(reason error) {
	if reason != nil {
		t.reasonMu.Lock()
		if t.reason == nil {
			t.reason = reason
		}
		t.reasonMu.Unlock()
	}
	t.Abort()
}

// declareStall applies the coordinator's distributed-deadlock verdict: the
// transport goes down with no reason recorded, so blocked receivers unwind
// with the ErrDeadlock cause — byte-identical error text to a deadlock on
// the single-process transports.
func (t *WorkerTransport) declareStall() { t.Abort() }

// stallStatus evaluates the local stall condition without declaring
// anything — the core's snapshot over this node's window. This is the
// stalled flag of the node's stall-plane state, in reports and probe acks
// alike.
func (t *WorkerTransport) stallStatus() bool { return t.stalled(false) }

// releasedBarrier returns the latest host-barrier generation released.
func (t *WorkerTransport) releasedBarrier() uint64 {
	t.bmu.Lock()
	defer t.bmu.Unlock()
	return t.released
}

// CheckStalled never declares a stall — one node cannot tell a deadlock
// from a frame another node has yet to send — but has the worker report a
// locally quiescent state to the coordinator, whose cut rule decides.
// Always false: the verdict arrives asynchronously as declareStall.
func (t *WorkerTransport) CheckStalled() bool {
	t.host.reportStall()
	return false
}
