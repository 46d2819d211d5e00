package machine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/wire"
)

// The IPC transport re-executes the running binary as its worker processes
// (os.Executable with these variables set), so any program that imports this
// package — kfbench, a test binary, a user tool — can host a node daemon
// without a dedicated worker command. The hook below intercepts process
// startup before main (or the test runner) ever runs.
const (
	ipcEnvNet  = "KF_IPC_NET"  // listener network: "unix" or "tcp"
	ipcEnvAddr = "KF_IPC_ADDR" // listener address the worker dials back to (or, on a coordinator, the TCP address to listen on — see SetListenAddr)
	ipcEnvNode = "KF_IPC_NODE" // this worker's node index
	ipcEnvExec = "KF_IPC_EXEC" // non-empty: defer worker entry until EnableWorkerExec (program registrations must run first)
)

func init() { maybeRunIPCWorker() }

// pendingIPCWorker holds a deferred worker entry: an exec-capable
// coordinator spawns its workers with KF_IPC_EXEC set, telling the worker
// process to finish package initialization (program registrations live in
// init functions of packages initialized after this one) before entering
// the daemon loop via EnableWorkerExec.
var pendingIPCWorker *struct {
	node          int
	network, addr string
}

// maybeRunIPCWorker turns the process into an IPC node worker when the
// coordinator's environment variables are present; it never returns in that
// case (with KF_IPC_EXEC set, entry is deferred to EnableWorkerExec, which
// then never returns). A plain process (no KF_IPC_NODE) returns immediately.
func maybeRunIPCWorker() {
	nodeStr, ok := os.LookupEnv(ipcEnvNode)
	if !ok {
		return
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kf-ipc-worker: bad %s=%q: %v\n", ipcEnvNode, nodeStr, err)
		os.Exit(1)
	}
	if os.Getenv(ipcEnvExec) != "" {
		pendingIPCWorker = &struct {
			node          int
			network, addr string
		}{node, os.Getenv(ipcEnvNet), os.Getenv(ipcEnvAddr)}
		return
	}
	os.Exit(runIPCWorker(node, os.Getenv(ipcEnvNet), os.Getenv(ipcEnvAddr)))
}

// RankResult is one rank's outcome of a distributed run, as shipped from
// the worker that executed it to the coordinator in a RankResult frame.
// Payload is an opaque record the execution hook composes worker-side and
// its counterpart decodes coordinator-side (the core layer packs output
// values, stats and clocks); ErrClass coarsely classifies Err for
// structured reconstruction across the process boundary (see the
// RankErr* constants) with ErrText carrying the exact message.
type RankResult struct {
	Rank     int
	Payload  []float64
	ErrClass uint64
	ErrText  string
}

// The RankResult error classes.
const (
	RankErrNone     uint64 = 0 // rank finished cleanly
	RankErrGeneric  uint64 = 1 // opaque failure; only the text survives the wire
	RankErrDeadlock uint64 = 2 // error wraps ErrDeadlock (errors.Is must keep holding after reconstruction)
)

// WorkerRun is what the execution hook hands the worker for one distributed
// run: the transport the worker delivers its peers' frames into (installed
// before the run's generation is, so early traffic has a home), and
// Execute, which runs the node's ranks to completion and returns one
// RankResult per local rank.
type WorkerRun interface {
	Transport() *WorkerTransport
	Execute() []RankResult
}

// WorkerHost is the worker's face toward the execution hook while it
// constructs a run from a RunSpec.
type WorkerHost struct {
	w   *ipcWorker
	gen uint64
}

// Node returns the worker's node index.
func (h *WorkerHost) Node() int { return h.w.node }

// NewTransport builds the WorkerTransport for this node's window of an
// n-rank, nnodes-node machine, bound to the worker's sockets and the
// current run generation. nnodes must be the fleet's size: remote sends
// index the peer links by node.
func (h *WorkerHost) NewTransport(n, nnodes int) (*WorkerTransport, error) {
	if nnodes != len(h.w.peers) {
		return nil, fmt.Errorf("machine: run spec for %d nodes on a fleet of %d", nnodes, len(h.w.peers))
	}
	return newWorkerTransport(h.w, h.w.node, n, nnodes, h.gen)
}

// Rebind readies a transport this worker built in an earlier run
// (NewTransport) for the current run generation, so an execution hook can
// hand back a cached sub-machine instead of rebuilding one per run — the
// worker-side half of warm-pool serving: a pooled coordinator System
// keeps its worker processes alive, and rebinding keeps their
// sub-machines warm too. The transport must belong to this worker.
func (h *WorkerHost) Rebind(t *WorkerTransport) error {
	if t == nil || t.host != workerIO(h.w) {
		return fmt.Errorf("machine: Rebind of a transport from another worker")
	}
	t.rebind(h.gen)
	return nil
}

// WorkerExecHook builds a WorkerRun from a coordinator's serialized run
// spec. The hook must install every resource a run needs (transport via
// h.NewTransport, machine, executor) before returning: the worker installs
// the run the moment the hook returns, and its peers' frames are delivered
// from then on.
type WorkerExecHook func(h *WorkerHost, spec []byte) (WorkerRun, error)

var (
	workerExecMu   sync.Mutex
	workerExecHook WorkerExecHook
)

// EnableWorkerExec arms worker-side execution: coordinators in this process
// spawn exec-capable workers, and worker processes build runs through hook.
// It must be called at most once, from an init path that runs after every
// RegisterProgram-style registration the hook depends on — in a process
// spawned as an exec worker, EnableWorkerExec enters the daemon loop and
// never returns.
func EnableWorkerExec(hook WorkerExecHook) {
	if hook == nil {
		panic("machine: EnableWorkerExec with nil hook")
	}
	workerExecMu.Lock()
	if workerExecHook != nil {
		workerExecMu.Unlock()
		panic("machine: EnableWorkerExec called twice")
	}
	workerExecHook = hook
	p := pendingIPCWorker
	pendingIPCWorker = nil
	workerExecMu.Unlock()
	if p != nil {
		os.Exit(runIPCWorker(p.node, p.network, p.addr))
	}
}

// WorkerExecEnabled reports whether this process can host (and therefore
// spawn) execution-plane workers.
func WorkerExecEnabled() bool {
	workerExecMu.Lock()
	defer workerExecMu.Unlock()
	return workerExecHook != nil
}

func loadWorkerExecHook() WorkerExecHook {
	workerExecMu.Lock()
	defer workerExecMu.Unlock()
	return workerExecHook
}

// runIPCWorker dials the coordinator and runs the node daemon loop,
// returning the process exit code: 0 for an orderly end (Shutdown frame,
// coordinator EOF, or a write error — both mean the coordinator is gone,
// and a dead coordinator must never leave orphans hanging or stderr
// noise), 1 for a protocol violation, 2 for a FIFO sequence gap. An
// exec-capable worker (one armed with an execution hook) is also a peer of
// the data mesh: it listens beside the coordinator's socket (node<k>.sock
// in the fleet directory, or an ephemeral port of the interface it reached
// a TCP coordinator through), announces the address in its Hello, and
// joins the mesh before serving its first frame.
func runIPCWorker(node int, network, addr string) int {
	conn, err := net.Dial(network, addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kf-ipc-worker: node %d: dial %s %s: %v\n", node, network, addr, err)
		return 1
	}
	defer conn.Close()
	w := newIPCWorker(node, conn)
	hello := wire.Frame{Kind: wire.KindHello, Seq: uint64(node), B: uint64(runtime.GOMAXPROCS(0))}
	var ln net.Listener
	if loadWorkerExecHook() != nil {
		laddr := filepath.Join(filepath.Dir(addr), "node"+strconv.Itoa(node)+".sock")
		if network != "unix" {
			host, _, _ := net.SplitHostPort(conn.LocalAddr().String())
			laddr = net.JoinHostPort(host, "0")
		}
		if ln, err = net.Listen(network, laddr); err != nil {
			return w.fail(1, "peer listener: %v", err)
		}
		a := []byte(ln.Addr().String())
		hello.A, hello.Payload = uint64(len(a)), wire.PackBytes(a)
	}
	if err := wire.WriteFrame(w.bw, &w.wscratch, &hello); err != nil {
		return 1
	}
	if err := w.bw.Flush(); err != nil {
		return 1
	}
	if ln != nil {
		if err := w.joinMesh(ln, network); err == io.EOF {
			return 0 // the coordinator went away mid-handshake
		} else if err != nil {
			return w.fail(1, "data mesh: %v", err)
		}
	}
	go w.flushLoop()
	return w.loop()
}

// newIPCWorker returns node's daemon state around its coordinator socket,
// stall-report timer created and stopped.
func newIPCWorker(node int, conn net.Conn) *ipcWorker {
	w := &ipcWorker{
		node: node,
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, 1<<16),
		fch:  make(chan struct{}, 1),
	}
	w.rcond = sync.NewCond(&w.rmu)
	w.reportTimer = time.AfterFunc(time.Hour, w.reportNow)
	w.reportTimer.Stop()
	return w
}

// joinMesh reads the coordinator's peer table (its answer to Hello: Seq =
// node count, payload = the newline-joined listen addresses in node order),
// dials every higher-numbered peer and accepts every lower-numbered one, so
// each node pair shares one full-duplex socket, then starts a reader per
// link. Every listener exists before its address is announced and a dial
// completes in the listener's backlog, so dial-then-accept cannot deadlock
// whatever order the peers get here in.
func (w *ipcWorker) joinMesh(ln net.Listener, network string) error {
	defer ln.Close()
	deadline := time.Now().Add(ipcStartTimeout)
	var f wire.Frame
	var scratch []byte
	w.conn.SetReadDeadline(deadline)
	if err := wire.ReadFrame(w.br, &f, &scratch, nil); err != nil {
		return err
	}
	w.conn.SetReadDeadline(time.Time{})
	table, err := wire.UnpackBytes(f.Payload, int(f.A))
	addrs := strings.Split(string(table), "\n")
	if err != nil || f.Kind != wire.KindHello || uint64(len(addrs)) != f.Seq || w.node >= len(addrs) {
		return fmt.Errorf("bad peer table: %v frame, %d addresses for %d nodes", f.Kind, len(addrs), f.Seq)
	}
	// This node's own slot holds a link to nowhere (nothing is ever queued
	// on it), so the loops over peers need no special case.
	w.peers = make([]*peerLink, len(addrs))
	w.peers[w.node] = &peerLink{node: w.node}
	link := func(j int, c net.Conn) {
		w.peers[j] = &peerLink{node: j, c: c, bw: bufio.NewWriterSize(c, 1<<16)}
	}
	for j := w.node + 1; j < len(addrs); j++ {
		c, err := net.DialTimeout(network, addrs[j], time.Until(deadline))
		if err == nil {
			err = wire.WriteFrame(c, &scratch, &wire.Frame{Kind: wire.KindHello, Seq: uint64(w.node)})
		}
		if err != nil {
			return fmt.Errorf("dial node %d: %w", j, err)
		}
		link(j, c)
	}
	if d, ok := ln.(deadliner); ok {
		d.SetDeadline(deadline)
	}
	for i := 0; i < w.node; i++ {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		c.SetReadDeadline(deadline)
		if err := wire.ReadFrame(c, &f, &scratch, nil); err != nil || f.Kind != wire.KindHello ||
			f.Seq >= uint64(w.node) || w.peers[f.Seq] != nil {
			return fmt.Errorf("peer handshake: %v frame, node %d, err %v", f.Kind, f.Seq, err)
		}
		c.SetReadDeadline(time.Time{})
		link(int(f.Seq), c)
	}
	for _, pl := range w.peers {
		if pl.c == nil {
			continue
		}
		go func() {
			// The link simply ending is nothing: the peer exited (every
			// Close looks like that) or died, and the coordinator owns that
			// news. A protocol violation is this node's to report, the only
			// way a worker can: by dropping its coordinator socket, which
			// surfaces as ErrWorkerLost naming this node.
			if err := w.peerLoop(pl); err != nil {
				w.fail(1, "peer link from node %d: %v", pl.node, err)
				w.conn.Close()
			}
		}()
	}
	return nil
}

// ipcWorker is one node's daemon. With no active run it is a relay: Data
// frames reflect back to the coordinator as Deliver frames (raw byte
// passthrough — only the kind byte changes, so that hot path never decodes
// a payload). With a run active (RunSpec accepted, see the exec protocol
// in ipc_exec.go) it is an execution host: the node's ranks execute
// locally, their inter-node sends leave through sendRemote on the peer
// links, and the peer readers deliver the other nodes' frames into the
// run's WorkerTransport. Either way it answers the control protocol (stall
// probes, reset fences, shutdown).
//
// Writes are shared between the read loop and the run's ranks,
// so they serialize under wmu and batch through the buffered writers: data
// and result frames stay in the buffers and kick the flusher goroutine,
// which pushes whatever accumulated once it gets the CPU — back-to-back
// sends coalesce into one socket write per peer even from a single
// goroutine. Control frames (acks, reports) flush inline.
type ipcWorker struct {
	node int
	conn net.Conn // coordinator socket
	br   *bufio.Reader
	rbuf []byte // read-loop frame buffer

	wmu      sync.Mutex
	bw       *bufio.Writer
	wscratch []byte // frame encode buffer, under wmu
	txData   uint64 // relay mode: Deliver frames written since the last reset fence, under wmu
	dirty    bool   // unflushed frames in bw, under wmu
	fch      chan struct{}
	peers    []*peerLink // data mesh links by node (this node's own slot is inert); none in a relay-only worker
	flushes  uint64      // socket flushes since the last run spec, under wmu
	reported []float64   // the stall-plane state last sent for this generation, under wmu
	status   []float64   // statusLocked scratch, under wmu

	reportArmed atomic.Bool // a debounced look at the stall-plane state is pending
	reportTimer *time.Timer // runs reportNow; re-armed only by whoever set reportArmed

	rxData uint64 // relay mode: Data frames received since the last reset fence (read loop only)

	// Exec-mode run state, written only by the read loop. The peer readers
	// consult specGen and active under rmu and hold it while they deliver,
	// so a run is never torn down or rebound under a delivery; rcond wakes
	// the readers parked on a frame that outran its spec.
	rmu      sync.Mutex
	rcond    *sync.Cond
	specGen  uint64 // latest run spec handled, accepted or rejected
	active   *WorkerTransport
	runDone  chan struct{} // closed when the active run's executeRun returns
	cpuStart int64         // processCPUMicros when the active run's spec was read
	finished atomic.Bool   // all local ranks done; results written or being written
}

// peerLink is this node's end of the socket it shares with one peer, and
// the queue of sends waiting to leave on it. Everything but recv is
// guarded by the worker's wmu.
type peerLink struct {
	node int
	c    net.Conn
	bw   *bufio.Writer
	// The destination node's queued inter-node sends between flush points.
	// Each message contributes five header words — src, dst, tag, arrival,
	// payload word count; all but arrival are bit containers in the
	// PackBytes sense — followed by its payload words. The batch leaves as
	// one Data frame: Src/Dst carry the two nodes, A the run generation, B
	// the message count, Seq the frame's number on this link within the
	// generation.
	words []float64
	msgs  uint64
	gen   uint64

	dirty     bool   // unflushed frames in bw
	sent      uint64 // Data frames encoded this generation
	linkMsgs  uint64 // messages and payload bytes queued this generation: the
	linkBytes uint64 // run's link census row, shipped home with the results

	recv atomic.Uint64 // Data frames of this generation delivered (written under rmu)
}

// The fixed reasons an in-flight run is unwound by a fence (hoisted: the
// spec fence is on the per-run warm path).
var (
	errFencedBySpec  = errors.New("machine: ipc run fenced by new run spec")
	errFencedByReset = errors.New("machine: ipc run fenced by coordinator reset")
)

// errFrameRange marks a length prefix no frame can have — garbage on the
// socket rather than a socket failure.
var errFrameRange = errors.New("frame body length out of range")

// maxDataBatchWords bounds one batch frame's payload; a fuller batch is
// encoded early. One oversized message still fits in its own frame (the
// wire codec allows 1<<24 words).
const maxDataBatchWords = 1 << 20

func (w *ipcWorker) fail(code int, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "kf-ipc-worker: node %d: %s\n", w.node, fmt.Sprintf(format, args...))
	return code
}

// readRawFrame reads one length-prefixed frame, prefix included, into *buf
// (grown as needed) without decoding it: the hot paths route on fixed
// header offsets first. A socket failure comes back as the I/O error, an
// impossible length as errFrameRange.
func readRawFrame(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	if cap(*buf) < 4+wire.HeaderLen {
		*buf = make([]byte, 512)
	}
	b := (*buf)[:4]
	if _, err := io.ReadFull(br, b); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < wire.HeaderLen || n > wire.MaxBody {
		return nil, fmt.Errorf("%w: %d bytes", errFrameRange, n)
	}
	if cap(*buf) < 4+n {
		*buf = append(make([]byte, 0, 4+n), b...)
	}
	b = (*buf)[:4+n]
	if _, err := io.ReadFull(br, b[4:]); err != nil {
		return nil, err
	}
	return b, nil
}

// kick schedules a flush (single-slot, never blocks, never loses a wakeup:
// the kick follows the frame into the buffer). Callers hold wmu.
func (w *ipcWorker) kick() {
	select {
	case w.fch <- struct{}{}:
	default:
	}
}

// flushLoop drains flush kicks for the worker's sockets.
func (w *ipcWorker) flushLoop() {
	for range w.fch {
		// Step to the back of the run queue once before draining: the
		// kick usually comes from the first rank of a burst, and the
		// yield lets the node's remaining runnable ranks add their sends
		// so the whole burst leaves as one batch in one socket write.
		runtime.Gosched()
		w.wmu.Lock()
		w.flushLocked()
		w.wmu.Unlock()
	}
}

// flushLocked encodes every pending batch and flushes every socket holding
// unflushed frames, peers first. Errors are swallowed: the coordinator's
// socket failing means the coordinator is gone and the read loop is about
// to find out; a peer's means that peer is gone, which is the coordinator's
// to notice and announce. Callers hold wmu.
func (w *ipcWorker) flushLocked() {
	w.encodePendingLocked()
	for _, pl := range w.peers {
		if pl.dirty {
			pl.dirty = false
			w.flushes++
			_ = pl.bw.Flush()
		}
	}
	if w.dirty {
		w.dirty = false
		w.flushes++
		_ = w.bw.Flush()
	}
}

// writeControlLocked writes one frame to the coordinator and flushes it
// immediately (acks, reports, barrier arrivals — anything the coordinator
// acts on). Callers hold wmu.
func (w *ipcWorker) writeControlLocked(f *wire.Frame) error {
	err := wire.WriteFrame(w.bw, &w.wscratch, f)
	if err == nil {
		w.flushes++
		err = w.bw.Flush()
		w.dirty = false
	}
	return err
}

// flushIfIdle flushes the write buffer only when no further input is already
// buffered, so a burst of reflected Data frames leaves in one socket write
// but the last frame of a burst is never left sitting in the buffer.
func (w *ipcWorker) flushIfIdle() error {
	if w.br.Buffered() != 0 {
		return nil
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.dirty = false
	return w.bw.Flush()
}

// sendRemote implements workerIO: one local rank's inter-node send joins
// the destination node's pending batch under wmu (so the link's FIFO
// carries each (src, tag) stream in program order) and kicks the flusher,
// which turns each pending batch into one multi-message Data frame on that
// peer's socket: a burst of fine-grained sends to one neighbor node costs
// one frame and one socket write.
func (w *ipcWorker) sendRemote(gen uint64, src, dst, dstNode int, tag Tag, data []float64, arrival float64) {
	w.wmu.Lock()
	pl := w.peers[dstNode]
	if pl.msgs > 0 && len(pl.words)+5+len(data) > maxDataBatchWords {
		w.encodeBatchLocked(pl)
	}
	pl.gen = gen
	pl.words = append(pl.words,
		math.Float64frombits(uint64(src)),
		math.Float64frombits(uint64(dst)),
		math.Float64frombits(uint64(tag)),
		arrival,
		math.Float64frombits(uint64(len(data))))
	pl.words = append(pl.words, data...)
	pl.msgs++
	pl.linkMsgs++
	pl.linkBytes += uint64(len(data) * wordBytes)
	w.kick()
	w.wmu.Unlock()
}

// encodeBatchLocked turns one link's pending batch into a Data frame in its
// write buffer and rearms it. A write error is the peer's death; see
// flushLocked. Callers hold wmu.
func (w *ipcWorker) encodeBatchLocked(pl *peerLink) {
	pl.sent++
	f := wire.Frame{Kind: wire.KindData, Src: int32(w.node), Dst: int32(pl.node),
		Seq: pl.sent, A: pl.gen, B: pl.msgs, Payload: pl.words}
	_ = wire.WriteFrame(pl.bw, &w.wscratch, &f)
	pl.dirty = true
	pl.words, pl.msgs = pl.words[:0], 0
}

// encodePendingLocked drains every pending batch into its link's write
// buffer — the step every flush and every state snapshot takes first, so
// sent[] counts each queued send as a frame on its way. Callers hold wmu.
func (w *ipcWorker) encodePendingLocked() {
	for _, pl := range w.peers {
		if pl.msgs > 0 {
			w.encodeBatchLocked(pl)
		}
	}
}

// statusLocked snapshots this node's stall-plane state (layout: see
// nodeReport) into the reused status buffer. The order makes it one
// instant's truth: wmu freezes sent[] (no rank can complete a send), and
// recv[] is read before the flags, so a delivery racing the snapshot can
// only leave recv[] stale — failing the cut rule until the reader's own
// recheck reports again — never count a frame the flags have not seen.
// Callers hold wmu.
func (w *ipcWorker) statusLocked(t *WorkerTransport) []float64 {
	w.encodePendingLocked()
	k := len(w.peers)
	s := slices.Grow(w.status[:0], reportWords(k))[:reportWords(k)] // every word is assigned below
	for j, pl := range w.peers {
		s[2+k+j] = math.Float64frombits(pl.recv.Load())
	}
	var flags uint64
	if w.finished.Load() {
		flags = probeFinished
	} else if t.stallStatus() {
		flags = probeStalled
	}
	s[0], s[1] = math.Float64frombits(flags), math.Float64frombits(t.releasedBarrier())
	for j, pl := range w.peers {
		s[2+j] = math.Float64frombits(pl.sent)
	}
	w.status = s
	return s
}

// stallReportDelay debounces the stall plane. Most quiet moments of a
// dependency chain end within microseconds — the next hop is already on
// its way — so a quiescence trigger only arms a timer, and the state gets
// one look (reportNow) once it has had this long to resolve itself. A
// deadlock's final state is reported that much late, never lost: any
// trigger after the look re-arms it.
const stallReportDelay = time.Millisecond

// reportStall implements workerIO; see stallReportDelay.
func (w *ipcWorker) reportStall() {
	if w.reportArmed.CompareAndSwap(false, true) {
		w.reportTimer.Reset(stallReportDelay)
	}
}

// reportNow tells the coordinator the node's state if it is quiescent
// (stalled, or finished and still receiving) and differs from the last one
// reported this generation. Snapshot, comparison and write share one wmu
// hold, so reports reach the coordinator in the order their states
// occurred and its latest is the node's latest.
func (w *ipcWorker) reportNow() {
	w.reportArmed.Store(false)
	w.rmu.Lock()
	gen, t := w.specGen, w.active
	w.rmu.Unlock()
	if t == nil {
		return
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	s := w.statusLocked(t)
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if math.Float64bits(s[0]) == 0 || slices.EqualFunc(s, w.reported, sameBits) {
		return
	}
	w.reported = append(w.reported[:0], s...)
	_ = w.writeControlLocked(&wire.Frame{Kind: wire.KindStallHint, Src: int32(w.node), Seq: gen, Payload: s})
}

// sendBarrierArrive implements workerIO: every local rank reached
// host-barrier generation barGen.
func (w *ipcWorker) sendBarrierArrive(gen, barGen uint64) {
	w.wmu.Lock()
	_ = w.writeControlLocked(&wire.Frame{Kind: wire.KindBarrier, Src: int32(w.node), Seq: barGen, A: gen})
	w.wmu.Unlock()
}

// processCPUMicros is the user+system CPU time this process has used, every
// thread of it: what the fleet costs the host beyond the coordinator.
func processCPUMicros() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return (ru.Utime.Nano() + ru.Stime.Nano()) / 1e3
}

// maxResultBatchWords bounds one result frame's payload so a node with
// huge per-rank records splits into several frames well short of the wire
// codec's MaxPayloadWords guard.
const maxResultBatchWords = 1 << 20

// executeRun drives one distributed run to completion off the read loop:
// run the node's ranks, then ship the results and flush. All local ranks'
// records pack into one RankResult frame (split only past
// maxResultBatchWords), so a node's results cost one encode and one decode
// instead of one frame per rank. Record layout: four header words — rank,
// error class, error byte length, payload word count, each a bit container
// in the PackBytes sense — then the payload words, then the packed error
// text. The last frame ends in a B-word trailer (resultTrailerWords): the
// node's final stall-plane state (a finished node hints no more, and its
// finishing can complete a deadlock), its per-peer link message and byte
// counts, its flush count and the CPU time this process spent since it read
// the run's spec. Closing done lets a reset fence join in-flight runs.
func (w *ipcWorker) executeRun(run WorkerRun, done chan struct{}) {
	defer close(done)
	results := run.Execute()
	w.finished.Store(true)
	t := run.Transport()
	var words []float64
	var count uint64
	ship := func(last bool) {
		w.wmu.Lock()
		defer w.wmu.Unlock()
		f := wire.Frame{Kind: wire.KindRankResult, Src: int32(w.node), Seq: t.gen, A: count}
		if last {
			s := w.statusLocked(t)
			w.reported = append(w.reported[:0], s...)
			words = append(words, s...)
			for _, pl := range w.peers {
				words = append(words, math.Float64frombits(pl.linkMsgs))
			}
			for _, pl := range w.peers {
				words = append(words, math.Float64frombits(pl.linkBytes))
			}
			words = append(words, math.Float64frombits(w.flushes), math.Float64frombits(uint64(processCPUMicros()-w.cpuStart)))
			f.B = uint64(resultTrailerWords(len(w.peers)))
		}
		f.Payload = words
		_ = wire.WriteFrame(w.bw, &w.wscratch, &f)
		w.dirty = true
		w.flushLocked()
		words, count = nil, 0
	}
	for i := range results {
		r := &results[i]
		var errWords []float64
		if r.ErrText != "" {
			errWords = wire.PackBytes([]byte(r.ErrText))
		}
		if len(words) > 0 && len(words)+4+len(r.Payload)+len(errWords) > maxResultBatchWords {
			ship(false)
		}
		words = append(words,
			math.Float64frombits(uint64(r.Rank)),
			math.Float64frombits(r.ErrClass),
			math.Float64frombits(uint64(len(r.ErrText))),
			math.Float64frombits(uint64(len(r.Payload))))
		words = append(words, r.Payload...)
		words = append(words, errWords...)
		count++
	}
	ship(true)
}

// endRun is the worker side of a fence (reset, new spec): abort and join
// the active run — take its transport down with the given reason, wait for
// every local rank to unwind and the result stream to complete, so any
// frames the dying run wrote reach the socket before whatever the caller
// writes next — then rewind the relay counters.
func (w *ipcWorker) endRun(reason error) {
	if w.active != nil {
		w.active.hostDown(reason)
		<-w.runDone
		w.install(w.specGen, nil)
	}
	w.finished.Store(false)
	w.rxData = 0
	w.wmu.Lock()
	w.txData = 0
	w.wmu.Unlock()
}

// install publishes the run the peer readers deliver into (nil: drop this
// generation's frames) and wakes the readers parked on a frame that outran
// its spec. A new generation restarts the per-link counters on both sides
// of every link — they count current-generation frames only, which lets
// the receiver's generation check stand in for a fence — and drops the
// previous generation's queued sends and report history.
func (w *ipcWorker) install(gen uint64, t *WorkerTransport) {
	fresh := gen != w.specGen
	if fresh {
		// Not nested inside rmu: a reader must never wait on a flush.
		w.wmu.Lock()
		for _, pl := range w.peers {
			pl.words, pl.msgs = pl.words[:0], 0
			pl.sent, pl.linkMsgs, pl.linkBytes = 0, 0, 0
		}
		w.flushes, w.reported = 0, w.reported[:0]
		w.wmu.Unlock()
	}
	w.rmu.Lock()
	if fresh {
		for _, pl := range w.peers {
			pl.recv.Store(0)
		}
	}
	w.specGen, w.active = gen, t
	w.rcond.Broadcast()
	w.rmu.Unlock()
}

// peerLoop delivers one peer's Data frames into the active run. The run
// generation (header field A) gates every frame before anything is
// decoded: older than the latest spec this worker handled — or of a spec
// it rejected or already fenced — and the frame is dropped; newer, and the
// reader waits for the coordinator-socket loop to reach that spec (peers
// start sending the moment they read theirs). It returns nil when the
// socket ends and an error on a frame no well-behaved peer sends.
func (w *ipcWorker) peerLoop(pl *peerLink) error {
	br := bufio.NewReaderSize(pl.c, 1<<16)
	var buf []byte
	var f wire.Frame
	for {
		raw, err := readRawFrame(br, &buf)
		if errors.Is(err, errFrameRange) {
			return err
		} else if err != nil {
			return nil
		}
		if k := wire.Kind(raw[4]); k != wire.KindData {
			return fmt.Errorf("unexpected %v frame", k)
		}
		gen := binary.LittleEndian.Uint64(raw[4+25:])
		w.rmu.Lock()
		for gen > w.specGen {
			w.rcond.Wait()
		}
		t := w.active
		if gen < w.specGen || t == nil {
			w.rmu.Unlock()
			continue
		}
		if _, err := wire.DecodeFrame(raw, &f, t.acquire); err != nil {
			w.rmu.Unlock()
			return err
		}
		if f.Seq != pl.recv.Load()+1 {
			w.rmu.Unlock()
			return fmt.Errorf("FIFO gap: data frame seq %d after %d", f.Seq, pl.recv.Load())
		}
		woke, err := t.deliverBatch(pl.node, f.Payload, f.B)
		t.coord.release(f.Payload)
		// Counted only now: a state snapshot must never include a frame
		// whose messages are not all in the mailboxes yet.
		pl.recv.Add(1)
		w.rmu.Unlock()
		if err != nil {
			return err
		}
		// One look per frame, and none when a delivery woke its receiver:
		// the woken rank's next block or finish runs the check. A finished
		// node has no rank left to do that.
		if w.finished.Load() {
			w.reportStall()
		} else if !woke {
			t.recheckStall()
		}
	}
}

func (w *ipcWorker) loop() int {
	for {
		raw, err := readRawFrame(w.br, &w.rbuf)
		if errors.Is(err, errFrameRange) {
			return w.fail(1, "%v", err)
		} else if err != nil {
			// EOF, connection reset, or any other socket-level failure: the
			// coordinator is gone. Exit quietly — don't linger as an orphan.
			return 0
		}
		kind := wire.Kind(raw[4])
		if kind == wire.KindData {
			// Relay mode hot path: flip the kind byte and reflect the
			// identical bytes back. (A worker-exec run's Data frames travel
			// the peer links; the coordinator sends none.)
			if w.active != nil {
				return w.fail(1, "data frame from the coordinator during a worker-exec run")
			}
			seq := binary.LittleEndian.Uint64(raw[4+17:])
			if seq != w.rxData+1 {
				return w.fail(2, "FIFO gap: data frame seq %d after %d", seq, w.rxData)
			}
			w.rxData++
			raw[4] = byte(wire.KindDeliver)
			w.wmu.Lock()
			_, err := w.bw.Write(raw)
			w.txData++
			w.dirty = true
			w.wmu.Unlock()
			if err != nil {
				return 0 // write failed: coordinator is gone
			}
			if err := w.flushIfIdle(); err != nil {
				return 0
			}
			continue
		}
		var f wire.Frame
		if _, err := wire.DecodeFrame(raw, &f, nil); err != nil {
			return w.fail(1, "%v frame: %v", kind, err)
		}
		switch kind {
		case wire.KindProbe:
			// The ack carries the relay counters and, with a run active,
			// the node's stall-plane state — pending sends encoded first
			// (statusLocked), so a probe that lands between a rank's send
			// and the flusher's pass never reads "quiescent" around a
			// queued message.
			w.wmu.Lock()
			ack := wire.Frame{Kind: wire.KindProbeAck, Src: int32(w.node), Seq: f.Seq, A: w.rxData, B: w.txData}
			if w.active != nil {
				ack.Payload = w.statusLocked(w.active)
			}
			err := w.writeControlLocked(&ack)
			w.wmu.Unlock()
			if err != nil {
				return 0
			}
		case wire.KindReset:
			// A fence joins any in-flight run first: its ranks unwind, its
			// last frames reach the socket, and only then do the counters
			// rewind and the ack release the coordinator.
			seen := w.rxData
			w.endRun(errFencedByReset)
			w.wmu.Lock()
			err := w.writeControlLocked(&wire.Frame{Kind: wire.KindResetAck, Src: int32(w.node), Seq: f.Seq, A: seen})
			w.wmu.Unlock()
			if err != nil {
				return 0
			}
		case wire.KindBarrier:
			// Relay mode: an epoch announcement between the coordinator's
			// own ranks, nothing to do here.
			if w.active != nil {
				w.active.releaseBarrier(f.Seq)
			}
		case wire.KindAbort:
			// Exec mode: the coordinator's verdict on the active run —
			// Seq 1 is a declared distributed stall (ranks unwind with the
			// deadlock cause), anything else a generic abort. The run is
			// not joined here: its ranks unwind concurrently and the
			// results still stream back. Relay mode: the abort is between
			// the coordinator's ranks; the daemon just keeps relaying.
			if w.active != nil {
				if f.Seq == abortStallDeclared {
					w.active.declareStall()
				} else {
					w.active.hostDown(fmt.Errorf("machine: ipc run aborted by coordinator"))
				}
			}
		case wire.KindRunSpec:
			// The spec doubles as the fence for back-to-back runs (the
			// coordinator skips the Reset exchange when the previous run
			// completed cleanly): join any prior run and rewind the relay
			// counters exactly here — everything earlier in the FIFO was
			// counted in the old epoch on both sides, so the cuts align
			// with the coordinator's pre-broadcast rewind.
			w.endRun(errFencedBySpec)
			w.cpuStart = processCPUMicros()
			spec, err := wire.UnpackBytes(f.Payload, int(f.A))
			if err == nil {
				if hook := loadWorkerExecHook(); hook == nil {
					err = fmt.Errorf("worker binary is not armed for execution (EnableWorkerExec never ran)")
				} else {
					var run WorkerRun
					run, err = hook(&WorkerHost{w: w, gen: f.Seq}, spec)
					if err == nil && (run == nil || run.Transport() == nil) {
						err = fmt.Errorf("execution hook returned no transport")
					}
					if err == nil {
						// Install, then execute straight away: the spec is
						// also the start signal, and the peers' frames of
						// this generation — parked until now if they got
						// here first — find the mailboxes ready. Success is
						// never acked; the first RankResult says it all.
						w.install(f.Seq, run.Transport())
						w.runDone = make(chan struct{})
						go w.executeRun(run, w.runDone)
						break
					}
				}
			}
			// Rejected: the generation still counts as handled, so the
			// other nodes' frames for it are dropped, not waited on.
			w.install(f.Seq, nil)
			text := err.Error()
			ack := wire.Frame{Kind: wire.KindRunAck, Src: int32(w.node), Seq: f.Seq,
				A: 1, B: uint64(len(text)), Payload: wire.PackBytes([]byte(text))}
			w.wmu.Lock()
			werr := w.writeControlLocked(&ack)
			w.wmu.Unlock()
			if werr != nil {
				return 0
			}
		case wire.KindShutdown:
			return 0
		default:
			return w.fail(1, "unexpected %v frame", kind)
		}
	}
}
