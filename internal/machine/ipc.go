package machine

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// ErrWorkerLost is wrapped into the abort reason when an IPC worker process
// dies (crash, kill, unexpected close) while the transport is live; the
// wrapping error names the node, and Machine.Run surfaces it through the
// failing processor's error.
var ErrWorkerLost = errors.New("machine: ipc worker process lost")

// Worker status flags (the first word of a stall-plane state; see
// nodeReport) and the distinguished abort sequence of the execution
// protocol.
const (
	probeStalled       uint64 = 1 << 0 // every live local rank blocked, no pending message matches
	probeFinished      uint64 = 1 << 1 // every local rank finished; results streamed or streaming
	abortStallDeclared uint64 = 1      // KindAbort Seq: coordinator declared a distributed stall
)

// IPCTransport is the cross-process transport: the paper's loosely coupled
// machine with the looseness made real. The coordinator process (the one
// running Machine.Run) keeps every rank's mailbox and goroutine local —
// rank bodies are Go closures and cannot cross a process boundary — and
// forks one worker process per node (a hidden re-exec of the current
// binary, see ipc_worker.go), each acting as that node's network daemon.
// Every inter-node message is serialized into a wire.Frame, crosses a Unix
// domain socket (TCP loopback where UDS is unavailable) to the destination
// node's worker, and is reflected back as a Deliver frame before it can
// enter the destination mailbox — so inter-node traffic pays two real
// socket crossings and a full encode/decode round trip, while intra-node
// traffic stays in process memory. Frames on one socket are FIFO, which
// preserves the per-(src, tag) stream ordering the Transport contract
// demands; per-stream determinism then makes values, censuses and virtual
// times bit-identical to the shared and federated transports under a flat
// cost model (MessageTime prices node pairs exactly as FederatedTransport
// does, so a hierarchical CostModel.InterNode diverges identically too).
//
// The coordinator side is the local plane (mailboxes, receive loop, barrier,
// stall snapshot — see boxSet) plus a linkSet (partition, census, pricing)
// plus the sockets, probes and fence in this file. Stall detection cannot
// take a global-lock snapshot across processes, so CheckStalled brackets the
// core's snapshot with a coordinator-driven two-phase probe; see
// stalledCheck.
// Workers spawn lazily on the first inter-node send: a transport that never
// crosses nodes (or is used standalone via Bind(nil)) costs no processes.
type IPCTransport struct {
	localPlane
	linkSet

	startMu    sync.Mutex // serializes start; guards startDone/startErr/cmds/listenAddr
	startDone  bool
	startErr   error
	started    atomic.Bool // true once workers are up; read on hot paths
	dir        string
	listenAddr string // explicit TCP listen address (SetListenAddr / KF_IPC_ADDR)
	conns      []*ipcConn
	cmds       []*exec.Cmd

	// Distributed-execution state (see RunDistributed): runMu serializes
	// runs, execGen numbers them, and exec publishes the in-flight run to
	// the read loops and the watcher. execClean records that the previous
	// distributed run completed cleanly and nothing touched the transport
	// since — the precondition for folding the next run's fence into its
	// spec broadcast (see fence).
	runMu     sync.Mutex
	execGen   uint64
	exec      atomic.Pointer[execRun]
	execClean atomic.Bool
	lastExec  atomic.Pointer[ExecStats]

	// pmu guards the ack/fence/liveness fields of every ipcConn and pairs
	// with pcond for the probe and reset fence waits.
	pmu   sync.Mutex
	pcond *sync.Cond

	// probeMu serializes two-phase stall probes (and excludes them from
	// reset fences); probeEpoch and resetGen advance under it and under
	// the single-threaded Reset respectively.
	probeMu    sync.Mutex
	probeEpoch uint64
	resetGen   uint64
	snap1      []uint64 // probe snapshot scratch
	snap2      []uint64

	watch  chan struct{} // reader -> watcher: in-flight count hit zero (relay), reports form a candidate cut (exec)
	stopc  chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup // readers + watcher
	procWg sync.WaitGroup // worker process reapers

	reasonMu sync.Mutex
	reason   error
}

// ipcConn is the coordinator's endpoint of one worker's socket.
type ipcConn struct {
	node  int
	c     net.Conn
	procs int // the worker's GOMAXPROCS, from its Hello

	// wmu serializes frame writes; sent is the per-socket Data sequence
	// (incremented under wmu, read atomically by the in-flight check) and
	// delivered counts frames this worker originated that the coordinator
	// has fully absorbed — Deliver frames inserted into mailboxes
	// (incremented by the reader). Both count relay-mode traffic: in
	// execution mode Data frames travel worker to worker and these stay
	// zero. Data writes go through the buffered
	// writer bw without flushing: each write kicks the connection's flusher
	// goroutine (fch), which flushes whatever accumulated once it gets the
	// CPU — so a burst of small Data frames coalesces into one socket write
	// even when the writers run strictly one after another, the common case
	// on a small host. Control frames flush inline, pushing any batched
	// frames ahead of them on the FIFO, which is what keeps every control
	// exchange (probes, fences) consistent with the data stream it rides.
	wmu       sync.Mutex
	bw        *bufio.Writer
	wscratch  []byte
	dirty     bool // unflushed frames in bw, under wmu
	wclosed   bool // fch closed, under wmu
	fch       chan struct{}
	sent      atomic.Uint64
	delivered atomic.Uint64

	// Guarded by the transport's pmu.
	ackEpoch uint64     // latest probe epoch acknowledged
	ackRecv  uint64     // worker's received-frame counter at that epoch
	ackFwd   uint64     // worker's forwarded-frame counter at that epoch
	ack      nodeReport // worker's stall-plane state at that epoch (execution mode)
	resetAck uint64     // latest reset generation acknowledged
	dead     bool       // socket lost; skip fences, fail probes
}

// writeData writes one Data frame, stamping the per-socket sequence under
// the write lock so the FIFO carries each (src, tag) stream in program
// order. The frame stays in the buffered writer; the flusher goroutine
// pushes it out once the writing goroutine yields, coalescing bursts.
func (cn *ipcConn) writeData(f *wire.Frame) error {
	cn.wmu.Lock()
	f.Seq = cn.sent.Add(1)
	err := wire.WriteFrame(cn.bw, &cn.wscratch, f)
	cn.dirty = true
	cn.kick()
	cn.wmu.Unlock()
	return err
}

// kick schedules a flush; the single-slot channel never blocks the writer
// and never loses a wakeup (the kick follows the frame into the buffer, so
// the flusher's next pass sees it). Callers hold wmu, which excludes the
// channel close in Close.
func (cn *ipcConn) kick() {
	if cn.wclosed {
		return
	}
	select {
	case cn.fch <- struct{}{}:
	default:
	}
}

// writeCtrl writes one control frame and flushes immediately — along with
// any batched Data frames ahead of it in the buffer, which keeps every
// control exchange consistent with the data stream it rides. A nonzero
// deadline bounds the write (abort and shutdown paths must not hang on a
// wedged socket).
func (cn *ipcConn) writeCtrl(f *wire.Frame, deadline time.Duration) error {
	cn.wmu.Lock()
	if deadline > 0 {
		cn.c.SetWriteDeadline(time.Now().Add(deadline))
	}
	err := wire.WriteFrame(cn.bw, &cn.wscratch, f)
	if err == nil {
		err = cn.bw.Flush()
		cn.dirty = false
	}
	if deadline > 0 {
		cn.c.SetWriteDeadline(time.Time{})
	}
	cn.wmu.Unlock()
	return err
}

// flushLoop drains one connection's flush kicks. A flush failure means the
// socket is gone; report it and stop (the read loop is about to hit the
// same broken socket).
func (t *IPCTransport) flushLoop(cn *ipcConn) {
	defer t.wg.Done()
	for range cn.fch {
		// Yield once before draining so a read loop mid-burst can route
		// the rest of the burst into the buffer first; the burst then
		// leaves in one socket write.
		runtime.Gosched()
		cn.wmu.Lock()
		var err error
		if cn.dirty {
			cn.dirty = false
			err = cn.bw.Flush()
		}
		cn.wmu.Unlock()
		if err != nil {
			if !t.closed.Load() {
				t.workerFailed(cn, fmt.Errorf("flush to node %d: %w", cn.node, err))
			}
			return
		}
	}
}

// NewIPCTransport returns a cross-process transport with n endpoints
// partitioned into nnodes equal nodes (nnodes must divide n). Worker
// processes spawn on the first inter-node send; Close tears them down.
func NewIPCTransport(n, nnodes int) *IPCTransport {
	t := &IPCTransport{
		watch: make(chan struct{}, 1),
		stopc: make(chan struct{}),
	}
	t.initPlane(n)
	t.initLinks(n, nnodes)
	t.pcond = sync.NewCond(&t.pmu)
	t.bar.onRelease = t.announceBarrier
	return t
}

// DownReason returns the structured cause of the current down state (a
// wrapped ErrWorkerLost when a worker process died), or nil.
func (t *IPCTransport) DownReason() error {
	t.reasonMu.Lock()
	defer t.reasonMu.Unlock()
	return t.reason
}

// WorkerPIDs returns the process IDs of the spawned workers, in node order;
// empty before the first inter-node send. It exists for observability and
// for the crash-hardening tests, which kill a worker and assert the
// structured failure.
func (t *IPCTransport) WorkerPIDs() []int {
	t.startMu.Lock()
	defer t.startMu.Unlock()
	pids := make([]int, 0, len(t.cmds))
	for _, cmd := range t.cmds {
		pids = append(pids, cmd.Process.Pid)
	}
	return pids
}

// WorkerProcs returns the GOMAXPROCS each worker reported in its Hello, in
// node order; empty before the workers spawn. Every entry is this
// process's GOMAXPROCS divided by the node count, at least 1 (workerProcs).
func (t *IPCTransport) WorkerProcs() []int {
	if !t.started.Load() {
		return nil
	}
	procs := make([]int, len(t.conns))
	for i, cn := range t.conns {
		procs[i] = cn.procs
	}
	return procs
}

// Send routes a message: intra-node traffic goes straight to the mailbox;
// inter-node traffic is serialized into a Data frame and written to the
// destination node's worker socket (spawning the workers on first use).
// The write and the sequence number are issued under the connection's write
// lock, so the per-socket FIFO carries each (src, tag) stream in program
// order; the sender's payload buffer is recycled through the machine pool
// once encoded, balancing the buffers the readers acquire for deliveries.
func (t *IPCTransport) Send(src, dst int, tag Tag, data []float64, arrival float64) {
	sn, dn := src/t.perNode, dst/t.perNode
	if sn == dn {
		t.deliver(src, dst, tag, data, arrival)
		return
	}
	if err := t.ensureStarted(); err != nil {
		panic(fmt.Sprintf("machine: ipc transport failed to start workers: %v", err))
	}
	l := &t.links[sn*t.nnodes+dn]
	l.mu.Lock()
	l.msgs++
	l.bytes += int64(len(data) * wordBytes)
	l.mu.Unlock()

	cn := t.conns[dn]
	f := wire.Frame{
		Kind:    wire.KindData,
		Src:     int32(src),
		Dst:     int32(dst),
		Tag:     uint64(tag),
		Arrival: arrival,
		Payload: data,
	}
	err := cn.writeData(&f)
	if err != nil {
		if !t.closed.Load() {
			t.workerFailed(cn, fmt.Errorf("send to node %d: %w", dn, err))
		}
		return
	}
	t.coord.release(data)
}

// announceBarrier broadcasts a released barrier generation to the workers
// (epoch alignment for the node daemons, best effort); the local plane's
// barrier calls it on every release. Called under the barrier lock, so it
// must never take pmu or declare a failure (an I/O error here will
// resurface on the next Send or probe).
func (t *IPCTransport) announceBarrier(gen uint64) {
	if !t.started.Load() {
		return
	}
	f := wire.Frame{Kind: wire.KindBarrier, Seq: gen}
	for _, cn := range t.conns {
		_ = cn.writeCtrl(&f, 0)
	}
}

// Reset clears all transport state between runs. With workers live it first
// runs a reset fence: every worker receives a Reset frame, zeroes its frame
// counters and acknowledges; socket FIFO guarantees any straggler Deliver
// frames from the previous run land in the mailboxes before the ack, so
// clearing the mailboxes after the fence leaves no stale message anywhere
// in the pipeline and the counters on both sides restart aligned.
func (t *IPCTransport) Reset() {
	t.execClean.Store(false)
	t.fence(true)
}

// fence rewinds both sides' frame counters and clears the local state.
// With roundTrip it is the Reset exchange above. Without, it is the fast
// fence for back-to-back distributed runs: when the previous run completed
// cleanly (execClean), every coordinator socket is provably drained — each
// worker wrote nothing after its last RankResult, which the coordinator has
// read, and the coordinator wrote nothing since — so the counters can
// rewind without the exchange. The workers rewind theirs on receiving the
// RunSpec itself (the spec FIFO-follows any residue, so the cuts align),
// and the worker-side fence duties (ending the previous run, taking its
// transport down) move into the RunSpec handler too. The peer sockets are
// never fenced: frames of an older generation die at the receiver's
// generation check.
func (t *IPCTransport) fence(roundTrip bool) {
	if t.started.Load() {
		t.probeMu.Lock() // exclude stall probes while counters rewind
		if roundTrip {
			t.resetGen++
			f := wire.Frame{Kind: wire.KindReset, Seq: t.resetGen}
			for _, cn := range t.conns {
				t.pmu.Lock()
				dead := cn.dead
				t.pmu.Unlock()
				if dead {
					continue
				}
				if err := cn.writeCtrl(&f, 0); err != nil && !t.closed.Load() {
					t.workerFailed(cn, fmt.Errorf("reset fence to node %d: %w", cn.node, err))
				}
			}
		}
		t.pmu.Lock()
		for _, cn := range t.conns {
			for roundTrip && cn.resetAck < t.resetGen && !cn.dead && !t.closed.Load() {
				t.pcond.Wait()
			}
		}
		for _, cn := range t.conns {
			cn.sent.Store(0)
			cn.delivered.Store(0)
			cn.ackEpoch, cn.ackRecv, cn.ackFwd, cn.ack = 0, 0, 0, nodeReport{}
		}
		t.pmu.Unlock()
		t.probeMu.Unlock()
	}
	t.localPlane.Reset()
	t.clearLinks()
	t.reasonMu.Lock()
	t.reason = nil
	t.reasonMu.Unlock()
	// A lost worker stays lost. Clearing the down flag above must not let
	// a run start on a fleet with a dead member: its frames would vanish
	// into a socket nobody reads, the in-flight count would never drain,
	// and no stall check could ever fire. Re-declare the loss instead, so
	// the run fails at once with the structured reason.
	if t.started.Load() {
		for _, cn := range t.conns {
			t.pmu.Lock()
			dead := cn.dead
			t.pmu.Unlock()
			if dead && !t.closed.Load() {
				t.workerFailed(cn, errors.New("worker exited before this run"))
				break
			}
		}
	}
}

// Abort marks the transport down and wakes every blocked receiver, barrier
// waiter, probe waiter and parked rank; workers are notified best-effort.
func (t *IPCTransport) Abort() {
	t.localPlane.Abort()
	if t.started.Load() {
		f := wire.Frame{Kind: wire.KindAbort}
		for _, cn := range t.conns {
			_ = cn.writeCtrl(&f, time.Second)
		}
	}
	t.pmu.Lock()
	t.pcond.Broadcast()
	t.pmu.Unlock()
}

// inFlight returns the number of frames somewhere between a Send's socket
// write and a reader's mailbox insert, across all workers. Nonzero means
// the machine cannot be stalled yet: a delivery is coming, and the reader
// that completes it re-triggers the stall check through the watcher.
func (t *IPCTransport) inFlight() uint64 {
	var inflight uint64
	for _, cn := range t.conns {
		inflight += cn.sent.Load() - cn.delivered.Load()
	}
	return inflight
}

// CheckStalled decides whether the machine has deadlocked; see stalledCheck
// for the distributed protocol.
func (t *IPCTransport) CheckStalled() bool { return t.stalledCheck(true) }

// probeStalled evaluates the stall condition without declaring it — the
// chaos layer's non-destructive confirmation hook.
func (t *IPCTransport) probeStalled() bool { return t.stalledCheck(false) }

// stalledCheck is the distributed stall decision. Before workers exist the
// transport is a plain shared mailbox array and the local global-lock
// snapshot is exact. With workers live, a local snapshot can miss frames
// crossing the sockets, so a stall is declared only at a consistent
// quiescent cut, established coordinator-driven in two phases:
//
//  1. Probe every worker (probeSnapshot) and require quiescence — each
//     socket's written-frame count equals the worker's received count and
//     the worker's forwarded count equals the coordinator's delivered
//     count, i.e. zero frames in flight in either direction.
//  2. Evaluate the local stall condition (all mailbox locks held, as many
//     waiters as the engine has live ranks, no waiter has a matching
//     pending message), then probe again and require the second snapshot
//     to be quiescent and identical to the first.
//
// Two identical quiescent snapshots bracket the local evaluation: no frame
// moved on any socket in the interval containing it, so the local snapshot
// was complete — nothing was in flight that could still satisfy a waiter.
// Any traffic between the snapshots changes a monotonic counter and forces
// a retry (by returning false; the delivery that changed the counter wakes
// a rank or re-triggers the check through the watcher). The final local
// evaluation under declare re-verifies the condition before marking the
// transport down, exactly like the single-process transports.
func (t *IPCTransport) stalledCheck(declare bool) bool {
	if t.coord == nil || t.down.Load() {
		return false
	}
	if !t.started.Load() {
		return t.stalled(declare)
	}
	if t.inFlight() != 0 {
		return false
	}
	t.probeMu.Lock()
	defer t.probeMu.Unlock()
	var ok bool
	t.snap1, ok = t.probeSnapshot(t.snap1[:0])
	if !ok {
		return false
	}
	if !t.stalled(false) {
		return false
	}
	t.snap2, ok = t.probeSnapshot(t.snap2[:0])
	if !ok || len(t.snap1) != len(t.snap2) {
		return false
	}
	for i := range t.snap1 {
		if t.snap1[i] != t.snap2[i] {
			return false
		}
	}
	return t.stalled(declare)
}

// probeRound sends a Probe frame to every worker and waits for every
// acknowledgement; on true each connection's ack fields (under pmu) are
// from this round. False when a worker is unreachable, the transport went
// down, or it was closed. Callers hold probeMu.
func (t *IPCTransport) probeRound() bool {
	t.probeEpoch++
	epoch := t.probeEpoch
	f := wire.Frame{Kind: wire.KindProbe, Seq: epoch}
	for _, cn := range t.conns {
		t.pmu.Lock()
		dead := cn.dead
		t.pmu.Unlock()
		if dead {
			return false
		}
		if err := cn.writeCtrl(&f, 0); err != nil {
			if !t.closed.Load() {
				t.workerFailed(cn, fmt.Errorf("stall probe to node %d: %w", cn.node, err))
			}
			return false
		}
	}
	t.pmu.Lock()
	defer t.pmu.Unlock()
	for _, cn := range t.conns {
		for cn.ackEpoch < epoch && !cn.dead && !t.closed.Load() && !t.down.Load() {
			t.pcond.Wait()
		}
		if cn.dead || t.closed.Load() || t.down.Load() {
			return false
		}
	}
	return true
}

// probeSnapshot is one relay-mode probe round plus a counter cut appended
// to dst — per worker, the socket's sent/delivered counters and the
// worker's received/forwarded counters. ok is false when the round failed
// or the cut is not quiescent (some frame was in flight at ack time).
// Callers hold probeMu.
func (t *IPCTransport) probeSnapshot(dst []uint64) ([]uint64, bool) {
	if !t.probeRound() {
		return dst, false
	}
	quiescent := true
	t.pmu.Lock()
	for _, cn := range t.conns {
		sent, delivered := cn.sent.Load(), cn.delivered.Load()
		if sent != cn.ackRecv || delivered != cn.ackFwd {
			quiescent = false
		}
		dst = append(dst, sent, delivered, cn.ackRecv, cn.ackFwd)
	}
	t.pmu.Unlock()
	return dst, quiescent
}

// SetListenAddr selects an explicit TCP address (host:port, port 0 for
// ephemeral) for the coordinator's worker listener instead of the default
// Unix domain socket — the deployment knob for hosts where UDS is
// unavailable or a fixed port must be allowed through. The KF_IPC_ADDR
// environment variable sets the same default for processes that are not
// themselves IPC workers. It must be called before the workers spawn (the
// first inter-node send or distributed run).
func (t *IPCTransport) SetListenAddr(addr string) {
	t.startMu.Lock()
	defer t.startMu.Unlock()
	if t.startDone {
		panic("machine: SetListenAddr after the ipc workers started")
	}
	t.listenAddr = addr
}

// ensureStarted spawns the worker processes exactly once; a failed start is
// sticky (the environment is not going to improve between sends).
func (t *IPCTransport) ensureStarted() error {
	if t.started.Load() {
		return nil
	}
	t.startMu.Lock()
	defer t.startMu.Unlock()
	if t.startDone {
		return t.startErr
	}
	t.startDone = true
	t.startErr = t.start()
	if t.startErr == nil {
		t.started.Store(true)
	}
	return t.startErr
}

// ipcStartTimeout bounds the fleet handshake: the coordinator's accepts and
// Hello reads, and each worker's peer-table read, dials and accepts.
const ipcStartTimeout = 30 * time.Second

type deadliner interface{ SetDeadline(time.Time) error }

// workerProcs is the GOMAXPROCS each worker of a fleet runs with: its share
// of the coordinator's budget, and never less than one thread. A node is a
// processor of the simulated machine, not a host of its own — workers that
// each inherit the full budget oversubscribe the CPUs nodes-fold, and on a
// dependency chain the runtimes' wakeups and steals are the latency. A
// nested fleet divides the share its coordinator was given.
func workerProcs(budget, nodes int) int { return max(1, budget/nodes) }

// workerEnv is the environment every worker of a fleet starts in, less its
// node index: the parent's, with any inherited worker coordinates (a worker
// can itself host an ipc machine) and thread budget scrubbed and exactly one
// of each installed.
func workerEnv(parent []string, network, addr string, procs int, execArmed bool) []string {
	scrub := [...]string{ipcEnvNet + "=", ipcEnvAddr + "=", ipcEnvNode + "=", ipcEnvExec + "=", "GOMAXPROCS="}
	env := make([]string, 0, len(parent)+5)
	for _, kv := range parent {
		if !slices.ContainsFunc(scrub[:], func(name string) bool { return strings.HasPrefix(kv, name) }) {
			env = append(env, kv)
		}
	}
	env = append(env, ipcEnvNet+"="+network, ipcEnvAddr+"="+addr, "GOMAXPROCS="+strconv.Itoa(procs))
	if execArmed {
		// Exec-armed coordinators spawn exec-capable workers: the worker
		// defers its daemon entry until its own EnableWorkerExec runs, so
		// the program registry it will build runs from is fully populated.
		env = append(env, ipcEnvExec+"=1")
	}
	return env
}

// start launches one worker per node and wires up the sockets: a listener
// in a private temp directory (UDS, falling back to TCP loopback), a
// re-exec of the current binary per node with the coordinates in the
// environment, then an accept/Hello handshake mapping connections to
// nodes (and, in an exec-armed binary, handing every worker the table of
// peer addresses it builds the data mesh from). On success it starts the
// per-connection readers and the stall watcher; on any failure it tears
// everything down and reports.
func (t *IPCTransport) start() (err error) {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("resolve executable for worker re-exec: %w", err)
	}
	dir, err := os.MkdirTemp("", "kfipc")
	if err != nil {
		return fmt.Errorf("ipc socket dir: %w", err)
	}
	laddr := t.listenAddr
	if laddr == "" && os.Getenv(ipcEnvNode) == "" {
		// The env default is ignored inside worker processes: there
		// KF_IPC_ADDR is the coordinator's address to dial, not a listen
		// address for a nested transport.
		laddr = os.Getenv(ipcEnvAddr)
	}
	var network, addr string
	var ln net.Listener
	if laddr != "" {
		network = "tcp"
		ln, err = net.Listen(network, laddr)
		if err != nil {
			os.RemoveAll(dir)
			return fmt.Errorf("ipc listener on %q: %w", laddr, err)
		}
		addr = ln.Addr().String()
	} else {
		network, addr = "unix", filepath.Join(dir, "coord.sock")
		ln, err = net.Listen(network, addr)
		if err != nil {
			network = "tcp"
			ln, err = net.Listen(network, "127.0.0.1:0")
			if err != nil {
				os.RemoveAll(dir)
				return fmt.Errorf("ipc listener: %w", err)
			}
			addr = ln.Addr().String()
		}
	}
	t.dir = dir

	env := workerEnv(os.Environ(), network, addr, workerProcs(runtime.GOMAXPROCS(0), t.nnodes), WorkerExecEnabled())

	t.cmds = make([]*exec.Cmd, 0, t.nnodes)
	t.conns = make([]*ipcConn, t.nnodes)
	fail := func(err error) error {
		for _, cmd := range t.cmds {
			cmd.Process.Kill()
		}
		t.procWg.Wait()
		for _, cn := range t.conns {
			if cn != nil {
				cn.c.Close()
			}
		}
		ln.Close()
		os.RemoveAll(dir)
		t.cmds, t.conns = nil, nil
		return err
	}
	for node := 0; node < t.nnodes; node++ {
		cmd := exec.Command(exe)
		cmd.Env = append(env[:len(env):len(env)], ipcEnvNode+"="+strconv.Itoa(node))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fail(fmt.Errorf("spawn worker for node %d: %w", node, err))
		}
		t.cmds = append(t.cmds, cmd)
		t.procWg.Add(1)
		go func() {
			defer t.procWg.Done()
			cmd.Wait()
		}()
	}
	deadline := time.Now().Add(ipcStartTimeout)
	peers := make([]string, t.nnodes)
	for i := 0; i < t.nnodes; i++ {
		if d, ok := ln.(deadliner); ok {
			d.SetDeadline(deadline)
		}
		c, err := ln.Accept()
		if err != nil {
			return fail(fmt.Errorf("accept worker %d of %d: %w", i+1, t.nnodes, err))
		}
		c.SetReadDeadline(deadline)
		var hello wire.Frame
		var scratch []byte
		if err := wire.ReadFrame(c, &hello, &scratch, nil); err != nil || hello.Kind != wire.KindHello {
			c.Close()
			return fail(fmt.Errorf("worker handshake: kind=%v err=%v", hello.Kind, err))
		}
		c.SetReadDeadline(time.Time{})
		node := int(hello.Seq)
		if node < 0 || node >= t.nnodes || t.conns[node] != nil {
			c.Close()
			return fail(fmt.Errorf("worker handshake: bad or duplicate node %d", node))
		}
		t.conns[node] = &ipcConn{node: node, c: c, procs: int(hello.B), bw: bufio.NewWriterSize(c, 1<<16), fch: make(chan struct{}, 1)}
		addr, _ := wire.UnpackBytes(hello.Payload, int(hello.A))
		peers[node] = string(addr)
	}
	ln.Close() // all workers connected; nothing else may dial in
	if WorkerExecEnabled() {
		// Exec-capable workers announced the address they listen on for
		// each other; answer every Hello with the whole table, and they
		// wire up the data mesh among themselves (see ipc_exec.go).
		table := []byte(strings.Join(peers, "\n"))
		f := wire.Frame{Kind: wire.KindHello, Seq: uint64(t.nnodes), A: uint64(len(table)), Payload: wire.PackBytes(table)}
		var scratch []byte
		for _, cn := range t.conns {
			if err := wire.WriteFrame(cn.c, &scratch, &f); err != nil {
				return fail(fmt.Errorf("peer table to node %d: %w", cn.node, err))
			}
		}
	}
	for _, cn := range t.conns {
		t.wg.Add(2)
		go t.readLoop(cn)
		go t.flushLoop(cn)
	}
	t.wg.Add(1)
	go t.watchLoop()
	return nil
}

// readLoop drains one worker's socket. Relay mode: Deliver frames complete
// inter-node message crossings into the local mailboxes. Execution mode:
// control frames only — RunAck/RankResult/StallHint/Barrier driving the
// in-flight execRun — since the workers exchange Data frames among
// themselves; a Data frame here is a protocol violation. ProbeAck and
// ResetAck feed the waiters under pmu in both modes. It never evaluates
// the stall condition itself — a reader blocked in a stall check could not
// drain the very acks the check's probe waits for — delegating re-checks to
// the watcher.
func (t *IPCTransport) readLoop(cn *ipcConn) {
	defer t.wg.Done()
	br := bufio.NewReaderSize(cn.c, 1<<16)
	var scratch []byte
	var f wire.Frame
	for {
		if err := wire.ReadFrame(br, &f, &scratch, t.coord.acquire); err != nil {
			if !t.closed.Load() {
				t.workerFailed(cn, err)
			}
			return
		}
		var er *execRun
		switch f.Kind {
		case wire.KindRunAck, wire.KindRankResult, wire.KindStallHint, wire.KindBarrier:
			// Run-protocol frames name their run generation (Barrier in A);
			// stragglers from a fenced or abandoned run drain silently.
			gen := f.Seq
			if f.Kind == wire.KindBarrier {
				gen = f.A
			}
			if er = t.exec.Load(); er == nil || gen != er.gen {
				t.coord.release(f.Payload)
				continue
			}
		}
		var err error
		switch f.Kind {
		case wire.KindDeliver:
			t.deliver(int(f.Src), int(f.Dst), Tag(f.Tag), f.Payload, f.Arrival)
			f.Payload = nil // the mailbox owns it now
			cn.delivered.Add(1)
			if t.inFlight() == 0 {
				// The pipeline just drained: whoever ran a stall check
				// while this frame was in flight bailed on it, so have the
				// watcher take another look.
				select {
				case t.watch <- struct{}{}:
				default:
				}
			}
		case wire.KindRunAck:
			// Only rejections are acked; a worker that accepts a spec goes
			// straight to executing it.
			if f.A != 0 {
				text, _ := wire.UnpackBytes(f.Payload, int(f.B))
				er.failWith(fmt.Errorf("machine: ipc node %d rejected run spec: %s", cn.node, text))
			}
		case wire.KindRankResult:
			err = t.absorbResults(er, cn.node, &f)
		case wire.KindStallHint:
			rep, ok := parseReport(f.Payload, t.nnodes)
			if !ok {
				err = fmt.Errorf("malformed stall report from node %d", cn.node)
				break
			}
			er.mu.Lock()
			er.stats.StallReports++
			t.noteReportLocked(er, cn.node, rep)
			er.mu.Unlock()
		case wire.KindBarrier:
			// A worker node announcing that all its local ranks reached
			// host-barrier generation f.Seq; the last node's arrival
			// releases the generation on every node.
			er.mu.Lock()
			er.barArr[f.Seq]++
			full := er.barArr[f.Seq] == t.nnodes
			if full && f.Seq > er.released {
				er.released = f.Seq
			}
			er.mu.Unlock()
			if full {
				rel := wire.Frame{Kind: wire.KindBarrier, Seq: f.Seq}
				for _, c2 := range t.conns {
					if err := c2.writeCtrl(&rel, 0); err != nil && !t.closed.Load() {
						t.workerFailed(c2, fmt.Errorf("barrier release to node %d: %w", c2.node, err))
						return
					}
				}
			}
		case wire.KindProbeAck:
			rep, _ := parseReport(f.Payload, t.nnodes) // relay acks carry none
			t.pmu.Lock()
			cn.ackEpoch, cn.ackRecv, cn.ackFwd, cn.ack = f.Seq, f.A, f.B, rep
			t.pcond.Broadcast()
			t.pmu.Unlock()
		case wire.KindResetAck:
			t.pmu.Lock()
			cn.resetAck = f.Seq
			t.pcond.Broadcast()
			t.pmu.Unlock()
		default:
			err = fmt.Errorf("unexpected %v frame from node %d", f.Kind, cn.node)
		}
		if err != nil {
			t.workerFailed(cn, err)
			return
		}
		t.coord.release(f.Payload)
	}
}

// absorbResults unpacks one RankResult frame from node: A rank records (see
// the worker's executeRun for the layout), then — on the node's last frame
// — a B-word trailer holding its final stall-plane state, its per-peer link
// message and byte counters (which become the run's link census), its flush
// count and the CPU time the worker process spent on the run. The run
// completes with the last rank's record, trailer already absorbed.
func (t *IPCTransport) absorbResults(er *execRun, node int, f *wire.Frame) error {
	k := t.nnodes
	if f.B != 0 && f.B != uint64(resultTrailerWords(k)) || f.B > uint64(len(f.Payload)) {
		return fmt.Errorf("rank result trailer of %d words (node %d)", f.B, node)
	}
	p, tail := f.Payload[:len(f.Payload)-int(f.B)], f.Payload[len(f.Payload)-int(f.B):]
	complete := false
	er.mu.Lock()
	defer er.mu.Unlock()
	for rec := uint64(0); rec < f.A; rec++ {
		if len(p) < 4 {
			return fmt.Errorf("rank result batch truncated (node %d)", node)
		}
		rank := int(int64(math.Float64bits(p[0])))
		errLen := math.Float64bits(p[2])
		plen := math.Float64bits(p[3])
		errWords := (errLen + 7) / 8
		if plen > uint64(len(p)-4) || errWords > uint64(len(p)-4)-plen {
			return fmt.Errorf("rank result record overruns batch (node %d)", node)
		}
		if rank < 0 || rank >= t.Size() || rank/t.perNode != node {
			return fmt.Errorf("rank result for rank %d from node %d", rank, node)
		}
		text, err := wire.UnpackBytes(p[4+plen:4+plen+errWords], int(errLen))
		if err != nil {
			return fmt.Errorf("rank result from node %d: %v", node, err)
		}
		if !er.got[rank] {
			er.got[rank] = true
			er.results[rank] = RankResult{Rank: rank, Payload: append([]float64(nil), p[4:4+plen]...),
				ErrClass: math.Float64bits(p[1]), ErrText: string(text)}
			er.count++
			complete = er.count == len(er.results)
		}
		p = p[4+plen+errWords:]
	}
	if len(tail) > 0 {
		final, _ := parseReport(tail[:reportWords(k)], k)
		counters := tail[reportWords(k):]
		ns := &er.stats.Nodes[node]
		*ns = NodeExecStats{Procs: t.conns[node].procs,
			Flushes: int64(math.Float64bits(counters[2*k])), CPUMicros: int64(math.Float64bits(counters[2*k+1]))}
		for j := 0; j < k; j++ {
			l := &t.links[node*k+j]
			l.mu.Lock()
			l.msgs, l.bytes = int64(math.Float64bits(counters[j])), int64(math.Float64bits(counters[k+j]))
			ns.PeerMsgs += l.msgs
			l.mu.Unlock()
			ns.PeerFrames += int64(final.sent[j])
		}
		// A node finishing can complete the stall condition (every other
		// node already blocked), so its final state counts as a report.
		t.noteReportLocked(er, node, final)
	}
	if complete {
		close(er.done)
	}
	return nil
}

// watchLoop re-runs the machine's stall decision whenever a reader reports
// the in-flight count hitting zero. Routing through the coordinator makes
// the check enter at the top of the machine's transport stack — the chaos
// wrapper when present — so a drain can also trigger fault recovery, not
// just deadlock declaration. Spurious triggers are harmless: the check
// confirms every condition from scratch.
func (t *IPCTransport) watchLoop() {
	defer t.wg.Done()
	for {
		select {
		case <-t.stopc:
			return
		case <-t.watch:
			if er := t.exec.Load(); er != nil {
				// Execution mode: the ranks run inside the workers, so the
				// machine-side recheck has nothing to look at — the
				// coordinator drives the distributed verdict itself.
				t.execProbe(er)
			} else {
				t.coord.RecheckStall()
			}
		}
	}
}

// workerFailed records a lost worker and takes the transport down with a
// structured reason naming the node; first failure wins.
func (t *IPCTransport) workerFailed(cn *ipcConn, cause error) {
	t.pmu.Lock()
	cn.dead = true
	t.pcond.Broadcast()
	t.pmu.Unlock()
	t.reasonMu.Lock()
	if t.reason == nil {
		t.reason = fmt.Errorf("%w: node %d: %v", ErrWorkerLost, cn.node, cause)
	}
	t.reasonMu.Unlock()
	t.Abort()
	if er := t.exec.Load(); er != nil {
		er.failWith(t.DownReason())
	}
}

// Close shuts the worker fleet down (Shutdown frames, then socket close —
// either is sufficient for a worker to exit; EOF alone covers a killed
// coordinator) and releases sockets, goroutines and the temp directory.
// The transport must not be used after Close. Close is idempotent and safe
// to call concurrently with an in-flight Run or abort: it first takes the
// transport down, so ranks blocked in Recv or Barrier unwind instead of
// hanging on sockets that are about to disappear.
func (t *IPCTransport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	t.reasonMu.Lock()
	if t.reason == nil {
		t.reason = errors.New("machine: ipc transport closed")
	}
	t.reasonMu.Unlock()
	t.Abort()
	close(t.stopc)
	if t.started.Load() {
		f := wire.Frame{Kind: wire.KindShutdown}
		for _, cn := range t.conns {
			_ = cn.writeCtrl(&f, time.Second)
			cn.c.Close()
			cn.wmu.Lock()
			cn.wclosed = true
			close(cn.fch)
			cn.wmu.Unlock()
		}
		t.pmu.Lock()
		t.pcond.Broadcast()
		t.pmu.Unlock()
	}
	t.wg.Wait()
	t.procWg.Wait()
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
	return nil
}
