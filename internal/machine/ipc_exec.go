package machine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/wire"
)

// This file is the coordinator half of the IPC execution plane. In relay
// mode (ipc.go's default) every rank runs in the coordinator and each
// inter-node message crosses two sockets; in execution mode each worker
// process hosts its node's ranks as a real sub-machine (WorkerTransport +
// Machine over the node's rank window) and the fleet has two planes:
//
//	control star: coordinator ── coord.sock ── worker    (one socket per worker)
//	data mesh:    worker k ── node<j>.sock ── worker j   (one full-duplex socket per node pair)
//
// all in the fleet's private /tmp/kfipc* directory (TCP loopback ports
// when the coordinator listens on TCP). At fleet start every worker
// listens, announces its address in its Hello, gets the peer table back
// and dials its higher-numbered peers. From then on an inter-node message
// is one socket crossing, worker to worker; the coordinator never sees a
// Data frame of a worker-exec run (ExecStats.CoordData pins that at 0). It
// keeps spawn, spec broadcast, host barriers, the stall verdict and the
// result gather — which also brings home each node's per-link message and
// byte counters, so the link census is filled before RunDistributed
// returns.
//
//	coordinator                            workers
//	  Reset ─────────────────────────────▶   (fence after a failed run: join it, zero counters)
//	  RunSpec{gen, spec} ────────────────▶   build run via the exec hook, execute ranks
//	  ◀────────────────── RunAck{gen, A:1}   only on rejection; fails the run
//	                       Data{A:gen} ◀─▶   worker ↔ worker, batched per peer socket
//	  ◀───────────── StallHint{gen, state}   local quiescence, once per distinct state
//	  Probe ─▶ ◀─ ProbeAck{state}            only when the reports form a candidate cut
//	  Abort{Seq:1} (verdict) ────────────▶   declareStall: ranks unwind with ErrDeadlock
//	  ◀──────────── RankResult{gen, state}   per-node batch + final state + link counters
//
// Why this is safe by construction rather than by timing:
//
//   - Spec before data: peers bypass the coordinator, so the receiver
//     orders them. A peer reader that meets a frame of a generation newer
//     than its installed run blocks until that spec is installed or
//     rejected (the coordinator-socket reader is another goroutine), and
//     drops frames of an older one. That is also the whole fence on peer
//     sockets — a failed run's frames die at the generation check, and
//     sent[]/recv[] count current-generation frames only — so Reset and
//     the fast fence need no N² handshake.
//   - Stall plane: a node's state is (stalled|finished, released barrier
//     generation, sent[], recv[] per peer). A worker reports it when
//     locally quiescent, at most once per distinct state (and per
//     stallReportDelay: detection may wait, never miss); a state leaves
//     "stalled" only through a delivery (recv[] moves) or a barrier release
//     (the generation moves), both in the state, so deduplication never
//     swallows the report that completes a deadlock. A finishing node ships
//     its final state with its results. The coordinator keeps the latest
//     state per node, probes only when they form a candidate cut
//     (candidateCut), and declares only when a probe round issued after the
//     last of those reports returns the identical cut — "two identical
//     quiescent snapshots", the first assembled for free. In ExecStats a
//     clean run shows reports but no candidate cut, probe round or verdict.
//   - Worker loss: a peer EOF or write failure is never fatal or noisy on
//     its own (on Close every peer sees EOF); the coordinator's socket to
//     the dead worker stays the single authority, ErrWorkerLost names the
//     node, and survivors unwind on the coordinator's Abort.
//   - Determinism: values, censuses, virtual times and the ErrDeadlock text
//     are functions of per-stream FIFO order only, which one socket per
//     node pair preserves exactly as the star did.
type execRun struct {
	gen uint64

	mu       sync.Mutex
	results  []RankResult // indexed by rank
	got      []bool
	count    int
	barArr   map[uint64]int // host-barrier generation -> nodes arrived
	released uint64         // highest host-barrier generation released
	reports  []nodeReport   // latest stall-plane state heard from each node
	declared bool           // the stall verdict went out; nothing more to decide
	stats    ExecStats

	done chan struct{} // every rank's result arrived

	failOnce sync.Once
	failErr  error
	fail     chan struct{}
}

// failWith records the run's terminal failure; first cause wins.
func (er *execRun) failWith(err error) {
	er.failOnce.Do(func() {
		er.failErr = err
		close(er.fail)
	})
}

// ExecStats are one distributed run's control- and data-plane counters:
// plain counts and no clock reads on the coordinator. The per-node rows are
// measured inside the workers and shipped home in the result batch.
type ExecStats struct {
	StallReports  int64 // worker quiescence reports received
	CandidateCuts int64 // reports that completed a candidate cut
	ProbeRounds   int64 // probe rounds issued
	Verdicts      int64 // distributed stalls declared
	CoordData     int64 // Data/Deliver frames that crossed a coordinator socket; 0 in a worker-exec run
	Nodes         []NodeExecStats
}

// NodeExecStats is one worker's share of a run: Data frames and messages
// it wrote to its peers, socket flushes (peer and coordinator sockets), the
// GOMAXPROCS the worker process runs with (its share of the coordinator's,
// see workerProcs) and the user+system CPU time the process spent between
// reading the run spec and shipping its last result. Σ CPUMicros far above
// the run's wall time × Procs is a fleet fighting over the host's CPUs.
type NodeExecStats struct {
	PeerFrames, PeerMsgs, Flushes int64
	Procs                         int
	CPUMicros                     int64
}

// ExecStats returns the counters of the most recent distributed run, or
// nil before the first.
func (t *IPCTransport) ExecStats() *ExecStats { return t.lastExec.Load() }

// nodeReport is one node's stall-plane state as plain data. On the wire
// (StallHint and ProbeAck payloads, the RankResult trailer) it is
// reportWords(k) bit-container words: flags, barGen, sent[k], recv[k].
type nodeReport struct {
	flags  uint64   // probeStalled or probeFinished; 0 = running, or not heard from
	barGen uint64   // latest host-barrier generation the node saw released
	sent   []uint64 // Data frames written to each peer this run generation (index = node)
	recv   []uint64 // Data frames from each peer delivered into the local mailboxes
}

func reportWords(k int) int { return 2 + 2*k }

// resultTrailerWords is the length of the trailer closing a k-node fleet
// worker's last RankResult frame: its final state, link message and byte
// counts per peer, flush count and CPU microseconds (see executeRun).
func resultTrailerWords(k int) int { return reportWords(k) + 2*k + 2 }

// parseReport decodes a k-node fleet's status payload; the counter slices
// are never written again, so reports may be copied by value.
func parseReport(p []float64, k int) (nodeReport, bool) {
	if len(p) != reportWords(k) {
		return nodeReport{}, false
	}
	c := make([]uint64, 2*k)
	for i := range c {
		c[i] = math.Float64bits(p[2+i])
	}
	return nodeReport{flags: math.Float64bits(p[0]), barGen: math.Float64bits(p[1]), sent: c[:k:k], recv: c[k:]}, true
}

func (r nodeReport) equal(o nodeReport) bool {
	return r.flags == o.flags && r.barGen == o.barGen && slices.Equal(r.sent, o.sent) && slices.Equal(r.recv, o.recv)
}

// candidateCut reports whether per-node states — each a snapshot of its
// node at some past instant, arbitrarily stale — prove that no rank can
// ever proceed: every node stalled or finished, at least one stalled, no
// barrier release still on its way (every node saw generation released),
// and every frame any node wrote delivered (sent_i[j] == recv_j[i] for
// every pair). Matching counters are what make stale snapshots safe: the
// first delivery beyond any reported recv[] would have to be a frame its
// sender wrote after its own snapshot, which that sender — stalled then —
// could only do after an even earlier such delivery.
func candidateCut(reports []nodeReport, released uint64) bool {
	anyStalled := false
	for i := range reports {
		r := &reports[i]
		switch {
		case r.barGen != released || len(r.sent) != len(reports):
			return false
		case r.flags&probeStalled != 0:
			anyStalled = true
		case r.flags&probeFinished == 0:
			return false
		}
	}
	if !anyStalled {
		return false
	}
	for i := range reports {
		for j := range reports {
			if i != j && reports[i].sent[j] != reports[j].recv[i] {
				return false
			}
		}
	}
	return true
}

// noteReportLocked records a node's latest state and, when the states now
// form a candidate cut, wakes the watcher to confirm it (execProbe).
// Callers hold er.mu.
func (t *IPCTransport) noteReportLocked(er *execRun, node int, rep nodeReport) {
	er.reports[node] = rep
	if er.declared || !candidateCut(er.reports, er.released) {
		return
	}
	er.stats.CandidateCuts++
	select {
	case t.watch <- struct{}{}:
	default:
	}
}

// RunDistributed executes one run inside the worker fleet: spec is an
// opaque description of the program (the core layer serializes program
// name, grid, cost model and executor) that every worker's execution hook
// (EnableWorkerExec) turns into a local sub-machine over its rank window.
// It returns one RankResult per rank of the whole machine, in rank order,
// or the structured failure (a wrapped ErrWorkerLost when a worker process
// died mid-run). Runs are serialized; the transport may be reused for
// further runs, distributed or relay, afterwards.
func (t *IPCTransport) RunDistributed(spec []byte) ([]RankResult, error) {
	if !WorkerExecEnabled() {
		return nil, errors.New("machine: distributed run needs an exec-armed binary (EnableWorkerExec)")
	}
	t.runMu.Lock()
	defer t.runMu.Unlock()
	if t.closed.Load() {
		return nil, errors.New("machine: ipc transport closed")
	}
	if err := t.ensureStarted(); err != nil {
		return nil, fmt.Errorf("machine: ipc transport failed to start workers: %v", err)
	}
	// The fence: stale frames drained, counters zeroed on both sides, any
	// leftover run from a failed predecessor joined and discarded. After a
	// clean run the sockets are already drained and the fence needs no
	// round trip; anything else — first run, failed run, relay traffic in
	// between — pays for the full Reset exchange.
	t.fence(!t.execClean.Swap(false))

	t.execGen++
	er := &execRun{
		gen:     t.execGen,
		results: make([]RankResult, t.Size()),
		got:     make([]bool, t.Size()),
		barArr:  make(map[uint64]int),
		reports: make([]nodeReport, t.nnodes),
		stats:   ExecStats{Nodes: make([]NodeExecStats, t.nnodes)},
		done:    make(chan struct{}),
		fail:    make(chan struct{}),
	}
	t.exec.Store(er)
	defer t.exec.Store(nil)
	defer func() {
		er.mu.Lock()
		st := er.stats
		er.mu.Unlock()
		for _, cn := range t.conns {
			st.CoordData += int64(cn.sent.Load() + cn.delivered.Load())
		}
		t.lastExec.Store(&st)
	}()

	// The spec doubles as the start signal: a worker executes the moment
	// it reads it, and its peers hold any Data frame that outruns their own
	// spec (see the protocol comment above), so the broadcast needs no
	// ordering beyond each socket's FIFO.
	f := wire.Frame{Kind: wire.KindRunSpec, Seq: er.gen, A: uint64(len(spec)), Payload: wire.PackBytes(spec)}
	for _, cn := range t.conns {
		if err := cn.writeCtrl(&f, 0); err != nil && !t.closed.Load() {
			t.workerFailed(cn, fmt.Errorf("run spec to node %d: %w", cn.node, err))
			break
		}
	}

	select {
	case <-er.done:
		// A worker loss can race the last result onto er.done; the
		// structured failure must win over a result set assembled from a
		// fleet that was falling apart.
		select {
		case <-er.fail:
			return nil, er.failErr
		default:
		}
	case <-er.fail:
		return nil, er.failErr
	case <-t.stopc:
		return nil, errors.New("machine: ipc transport closed during distributed run")
	}
	t.execClean.Store(true)
	return er.results, nil
}

// execProbe confirms a candidate cut, run by the watcher when noteReport
// found one. The reports are the first quiescent snapshot; a probe round
// issued now — after every one of them arrived — is the second, and only a
// round whose acks repeat the reported states exactly declares the stall.
// The verdict is broadcast as Abort{Seq:1}; each worker unwinds its blocked
// ranks with the exact ErrDeadlock cause the single-process transports
// produce, and the run completes through the normal RankResult path. A
// round that disagrees decides nothing: whatever moved reports again.
func (t *IPCTransport) execProbe(er *execRun) {
	if t.down.Load() || t.closed.Load() {
		return
	}
	t.probeMu.Lock()
	defer t.probeMu.Unlock()
	er.mu.Lock()
	cut := append([]nodeReport(nil), er.reports...)
	ok := !er.declared && candidateCut(cut, er.released)
	if ok {
		er.stats.ProbeRounds++
	}
	er.mu.Unlock()
	if !ok || !t.probeRound() {
		return
	}
	t.pmu.Lock()
	for i, cn := range t.conns {
		ok = ok && cn.ack.equal(cut[i])
	}
	t.pmu.Unlock()
	if !ok {
		return
	}
	er.mu.Lock()
	er.declared = true
	er.stats.Verdicts++
	er.mu.Unlock()
	verdict := wire.Frame{Kind: wire.KindAbort, Seq: abortStallDeclared}
	for _, cn := range t.conns {
		_ = cn.writeCtrl(&verdict, time.Second)
	}
}
