package machine

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
)

// ErrFaultAbort is reported by Run (wrapped, with the failing stream named)
// when an injected fault exhausted its retry budget: a message was lost more
// than Scenario.MaxRetries times in a row, the runtime gave up, and the
// whole machine was taken down cleanly. Distinct from ErrDeadlock, which
// means the program itself could never have proceeded.
var ErrFaultAbort = errors.New("machine: fault-injection retry budget exhausted")

// ChaosPrefix names chaos-wrapped transports (NewTransportByName): the
// transport "chaos:federated" is a ChaosTransport around "federated".
const ChaosPrefix = "chaos:"

// DownReasoner is an optional Transport extension: a transport that takes
// itself down for a richer reason than "deadlock" reports it here, and
// Proc.Recv attributes the abort to that reason instead of ErrDeadlock.
// A nil reason means the default applies.
type DownReasoner interface {
	DownReason() error
}

// stallProber is the transport extension the chaos layer confirms a stall
// with: evaluate the full CheckStalled condition — every live processor
// parked with no matching pending message — WITHOUT declaring the
// transport down. The bundled transports implement it over the mailbox
// core's snapshot, boxSet.stalled(declare=false), and a chaos base must.
type stallProber interface {
	probeStalled() bool
}

// nodeLocator lets the chaos layer learn which node owns a rank, so fault
// rates configured per node pair apply to the right traffic. Bases without
// a node concept treat every rank as its own node.
type nodeLocator interface {
	NodeOf(rank int) int
}

// ChaosTransport wraps any Transport and injects message faults — drops,
// delays, duplications, link brownouts, node outages — drawn from seeded
// per-(src, dst)-pair PRNG streams, together with the survival semantics
// that let a program ride them out: timed-out retransmission of lost
// messages at confirmed stalls, receive-side duplicate absorption, and a
// clean machine-wide abort (ErrFaultAbort) when a retry budget runs out.
//
// Reproducibility contract: under a fixed Scenario (including its Seed),
// every run of a deterministic program injects the same faults and recovers
// them the same way, producing bit-identical values and an identical
// Report, regardless of host scheduling. The argument is the same
// Kahn-network one the machine's determinism rests on: all sends from one
// processor are program-ordered, so draws on a (src, dst) pair stream are
// program-ordered too; recovery runs only at confirmed global stalls,
// which are unique quiescent states, in canonical (sorted) stream order;
// and cross-stream report fields (FirstDrop) are computed at report time
// from virtual-time keys, never from wall-clock arrival order at the
// wrapper's lock.
//
// Faults apply only to messages crossing a node boundary — chaos happens on
// the wire. On a non-federating base (chaos:shared) every rank is its own
// node, so all non-self traffic is eligible; on chaos:federated intra-node
// messages are never faulted. Self-sends are never faulted. The host-level
// Barrier is not faulted either: it is a testing fence, not a message.
//
// With an inactive scenario (the zero value) the wrapper is a pass-through:
// one atomic load per operation, bit-identical values, censuses and virtual
// times to the unwrapped base — the conformance battery pins this.
//
// Machine-level Stats are counted by Proc before the transport sees the
// message, so injected faults never distort MsgsSent/MsgsRecv/BytesSent:
// under any completing scenario a program's values and message census are
// bit-identical to its fault-free run, while clocks and idle time honestly
// absorb the retry and delay costs.
type ChaosTransport struct {
	base   Transport
	probe  stallProber // base's stall probe
	nodeOf func(rank int) int
	active atomic.Bool

	mu      sync.Mutex
	sc      chaos.Scenario
	streams map[streamID]*chaosStream
	pairs   map[pairKey]*chaosPair
	awaited map[streamID]bool // streams a receiver is currently parked on
	held    int               // total messages in hold ledgers
	failure error             // set when a retry budget exhausts
	rep     chaos.Report      // current-run report
	cum     chaos.Report      // completed prior runs since SetScenario
}

// streamID names one FIFO message stream.
type streamID struct {
	src, dst int
	tag      Tag
}

// pairKey names one directed processor pair; each pair carries its own PRNG
// stream so draw order is the sender's program order — deterministic.
type pairKey struct {
	src, dst int
}

// chaosStream is the per-stream fault ledger. fwd counts messages forwarded
// to the base (delivery positions), recv counts deliveries the receiver has
// consumed; dups holds the positions of injected duplicate deliveries, so
// the receive side absorbs exactly those. hold is the retransmission queue:
// once a message on the stream is lost, every later send queues behind it
// (a lossy link still delivers FIFO per stream — the in-order blocking a
// reliable protocol imposes), and recovery flushes the queue in order.
type chaosStream struct {
	fwd  int
	recv int
	dups []int
	hold []heldMsg

	// lost/lossAt record the stream's first-ever loss and the virtual
	// arrival the lost message would have had; FirstDrop is computed from
	// these at report time (see firstDropLocked).
	lost   bool
	lossAt float64
}

// heldMsg is one untransmitted message: either lost (attempts >= 1 counts
// its failed transmissions) or queued behind a lost one (attempts == 0).
// penalty accumulates the virtual retry cost added to its arrival;
// minArrival floors delivery (a node outage holds messages until restart).
type heldMsg struct {
	data       []float64
	arrival    float64
	minArrival float64
	penalty    float64
	attempts   int
}

// chaosPair is one directed pair's fault state: its PRNG position and the
// resolved rates (scenario defaults or the pair's node-level Links
// override).
type chaosPair struct {
	rng                        uint64
	faulted                    bool // src and dst on different nodes
	drop, dup, delay, delayMax float64
}

// splitmix64 finalizer.
func chaosMix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chaosPairSeed derives a pair's PRNG state from the scenario seed and the
// directed pair, so every pair draws an independent reproducible stream.
func chaosPairSeed(seed int64, src, dst int) uint64 {
	return chaosMix(uint64(seed) +
		0x9e3779b97f4a7c15*uint64(src+1) +
		0x6a09e667f3bcc909*uint64(dst+1))
}

// next returns the pair's next uniform draw in [0, 1).
func (pr *chaosPair) next() float64 {
	pr.rng += 0x9e3779b97f4a7c15
	return float64(chaosMix(pr.rng)>>11) / (1 << 53)
}

// NewChaosTransport wraps base with an inactive (zero) scenario. Configure
// faults with SetScenario before Machine.Run; until then the wrapper is a
// pass-through.
func NewChaosTransport(base Transport) *ChaosTransport {
	if base == nil {
		panic("machine: NewChaosTransport(nil)")
	}
	if _, nested := base.(*ChaosTransport); nested {
		panic("machine: chaos transport wrapping a chaos transport; the wrapper applies exactly once")
	}
	probe, ok := base.(stallProber)
	if !ok {
		panic("machine: chaos transport over a base with no stall probe")
	}
	t := &ChaosTransport{base: base, probe: probe}
	if nl, ok := base.(nodeLocator); ok {
		t.nodeOf = nl.NodeOf
	} else {
		t.nodeOf = func(rank int) int { return rank }
	}
	t.resetRunStateLocked()
	return t
}

// Base returns the wrapped transport, so callers can reach base-specific
// observability (link counters) and validation can see through the wrapper.
func (t *ChaosTransport) Base() Transport { return t.base }

// SetScenario installs a fault scenario (validated, with retry-policy
// defaults applied), discarding all fault-stream state and accumulated
// reports. It must be called between Runs, never during one. An inactive
// scenario returns the wrapper to pass-through mode.
func (t *ChaosTransport) SetScenario(sc chaos.Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	sc = sc.WithDefaults()
	t.mu.Lock()
	t.sc = sc
	t.cum = chaos.Report{}
	t.resetRunStateLocked()
	t.mu.Unlock()
	t.active.Store(sc.Active())
	return nil
}

// Scenario returns the installed scenario (with defaults applied).
func (t *ChaosTransport) Scenario() chaos.Scenario {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sc
}

// Report returns the current run's fault/recovery report.
func (t *ChaosTransport) Report() chaos.Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reportLocked().Clone()
}

// TotalReport returns the report accumulated over every run since the last
// SetScenario, including the current one — the suite-level census kfbench
// aggregates.
func (t *ChaosTransport) TotalReport() chaos.Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cum.Add(t.reportLocked())
}

// DownReason attributes an abort to the exhausted retry budget that caused
// it, falling back to the base transport's own reason (a lost IPC worker,
// say) when the fault layer did not cause the abort itself.
func (t *ChaosTransport) DownReason() error {
	t.mu.Lock()
	failure := t.failure
	t.mu.Unlock()
	if failure != nil {
		return failure
	}
	if dr, ok := t.base.(DownReasoner); ok {
		return dr.DownReason()
	}
	return nil
}

// Close releases the base transport's external resources (the IPC
// transport's worker processes); bases without a Close need none.
func (t *ChaosTransport) Close() error {
	if c, ok := t.base.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// resetRunStateLocked rewinds all fault-stream state — PRNG positions,
// stream ledgers, hold queues, the per-run report — to the start-of-run
// state the scenario seed defines. Caller holds t.mu (or has exclusive
// access during construction).
func (t *ChaosTransport) resetRunStateLocked() {
	t.rep = chaos.Report{Name: t.sc.Name, Seed: t.sc.Seed}
	t.streams = make(map[streamID]*chaosStream)
	t.pairs = make(map[pairKey]*chaosPair)
	t.awaited = make(map[streamID]bool)
	t.held = 0
	t.failure = nil
}

// Size returns the number of endpoints.
func (t *ChaosTransport) Size() int { return t.base.Size() }

// Bind installs the machine's coordinator on the base.
func (t *ChaosTransport) Bind(c *coordinator) { t.base.Bind(c) }

// Down reports whether the transport has gone down since the last Reset.
func (t *ChaosTransport) Down() bool { return t.base.Down() }

// MessageTime delegates to the base: injected delays are added on top of
// the honest fault-free arrival time, inside Send.
func (t *ChaosTransport) MessageTime(cost CostModel, src, dst, b int) float64 {
	return t.base.MessageTime(cost, src, dst, b)
}

// Barrier delegates to the base; the host barrier is never faulted.
func (t *ChaosTransport) Barrier(rank int) bool { return t.base.Barrier(rank) }

// Abort takes the base down, waking every blocked receiver.
func (t *ChaosTransport) Abort() { t.base.Abort() }

// Reset folds the finished run's report into the cumulative one, rewinds
// all fault-stream state to the seed-defined start (so pooled-System reuse
// replays the exact same faults run after run), and resets the base.
func (t *ChaosTransport) Reset() {
	if t.active.Load() {
		t.mu.Lock()
		t.cum = t.cum.Add(t.reportLocked())
		t.resetRunStateLocked()
		t.mu.Unlock()
	}
	t.base.Reset()
}

// Nodes reports the base's federation node count (1 for flat bases).
func (t *ChaosTransport) Nodes() int {
	if nc, ok := t.base.(interface{ Nodes() int }); ok {
		return nc.Nodes()
	}
	return 1
}

// NodeOf returns the node owning the given rank under the base's topology.
func (t *ChaosTransport) NodeOf(rank int) int { return t.nodeOf(rank) }

// LinkTraffic delegates to the base's link counters when it has them.
// Injected duplicates genuinely cross the wire, so under an active scenario
// link censuses include them; machine-level Stats do not.
func (t *ChaosTransport) LinkTraffic(src, dst int) (msgs, bytes int64) {
	if lc, ok := t.base.(interface {
		LinkTraffic(src, dst int) (int64, int64)
	}); ok {
		return lc.LinkTraffic(src, dst)
	}
	return 0, 0
}

// stream returns (creating on first use) the ledger for sid. Caller holds
// t.mu.
func (t *ChaosTransport) streamLocked(sid streamID) *chaosStream {
	st := t.streams[sid]
	if st == nil {
		st = &chaosStream{}
		t.streams[sid] = st
	}
	return st
}

// pairLocked returns (creating on first use) the directed pair's fault
// state: an independent PRNG stream seeded from (scenario seed, src, dst)
// and the rates resolved from the scenario — node-pair Links overrides
// first, scenario-wide defaults otherwise. Caller holds t.mu.
func (t *ChaosTransport) pairLocked(src, dst int) *chaosPair {
	key := pairKey{src: src, dst: dst}
	if pr, ok := t.pairs[key]; ok {
		return pr
	}
	sn, dn := t.nodeOf(src), t.nodeOf(dst)
	pr := &chaosPair{
		rng:      chaosPairSeed(t.sc.Seed, src, dst),
		faulted:  sn != dn,
		drop:     t.sc.Drop,
		dup:      t.sc.Dup,
		delay:    t.sc.Delay,
		delayMax: t.sc.DelayMax,
	}
	for _, l := range t.sc.Links {
		if l.Src == sn && l.Dst == dn {
			pr.drop, pr.dup, pr.delay, pr.delayMax = l.Drop, l.Dup, l.Delay, l.DelayMax
		}
	}
	t.pairs[key] = pr
	return pr
}

// outageFloor reports whether a message between the given nodes arriving at
// the given virtual time hits a node outage window, and the earliest
// restart time a retransmission may deliver at.
func (t *ChaosTransport) outageFloor(srcNode, dstNode int, arrival float64) (floor float64, out bool) {
	for _, o := range t.sc.Outages {
		if (o.Node == srcNode || o.Node == dstNode) && arrival >= o.Start && arrival < o.End {
			out = true
			if o.End > floor {
				floor = o.End
			}
		}
	}
	return floor, out
}

// brownoutExtra sums the extra latency of every brownout window covering a
// message between the given nodes at the given fault-free arrival.
func (t *ChaosTransport) brownoutExtra(srcNode, dstNode int, arrival float64) float64 {
	var extra float64
	for _, b := range t.sc.Brownouts {
		if (b.Src == -1 || b.Src == srcNode) && (b.Dst == -1 || b.Dst == dstNode) &&
			arrival >= b.Start && arrival < b.End {
			extra += b.Extra
		}
	}
	return extra
}

// forwardLocked hands one message to the base transport, assigning it the
// stream's next delivery position. Caller holds t.mu.
func (t *ChaosTransport) forwardLocked(sid streamID, st *chaosStream, data []float64, arrival float64) int {
	pos := st.fwd
	st.fwd++
	t.base.Send(sid.src, sid.dst, sid.tag, data, arrival)
	return pos
}

// transmitLocked attempts one transmission of a message on stream sid at
// the given arrival time, rolling the pair's fault dice in fixed order:
// outage window (no draw), drop, delay (+magnitude), duplication. It
// reports whether the message was forwarded; on failure minArrival floors
// the retransmission (> 0 when a node outage held it). Caller holds t.mu.
func (t *ChaosTransport) transmitLocked(sid streamID, st *chaosStream, data []float64, arrival float64) (minArrival float64, delivered bool) {
	pr := t.pairLocked(sid.src, sid.dst)
	if !pr.faulted {
		t.forwardLocked(sid, st, data, arrival)
		return 0, true
	}
	sn, dn := t.nodeOf(sid.src), t.nodeOf(sid.dst)
	if floor, out := t.outageFloor(sn, dn, arrival); out {
		t.rep.OutageHolds++
		t.noteLossLocked(st, arrival)
		return floor, false
	}
	if pr.drop > 0 && pr.next() < pr.drop {
		t.rep.Drops++
		t.noteLossLocked(st, arrival)
		return 0, false
	}
	if pr.delay > 0 && pr.next() < pr.delay {
		arrival += pr.next() * pr.delayMax
		t.rep.Delays++
	}
	if extra := t.brownoutExtra(sn, dn, arrival); extra > 0 {
		arrival += extra
		t.rep.Brownouts++
	}
	// The duplicate is copied before the first forward: from then on the
	// base owns data (the ipc transport returns it to the buffer pool).
	var dup []float64
	dupped := pr.dup > 0 && pr.next() < pr.dup
	if dupped {
		dup = append([]float64(nil), data...)
	}
	t.forwardLocked(sid, st, data, arrival)
	if dupped {
		pos := t.forwardLocked(sid, st, dup, arrival)
		st.dups = append(st.dups, pos)
		t.rep.Dups++
	}
	return 0, true
}

// noteLossLocked records a stream's first-ever loss. Which rank's send
// reaches the chaos layer first is a host-scheduling accident, so the
// report's FirstDrop cannot be "first to acquire t.mu": each stream
// remembers its own first loss (per-stream order IS deterministic — sends
// on a stream are the sender's program order), and firstDropLocked picks
// the canonical minimum at report time.
func (t *ChaosTransport) noteLossLocked(st *chaosStream, arrival float64) {
	if !st.lost {
		st.lost = true
		st.lossAt = arrival
	}
}

// streamBefore is the canonical (src, dst, tag) stream order used for
// recovery passes and FirstDrop tie-breaks.
func streamBefore(a, b streamID) bool {
	if a.src != b.src {
		return a.src < b.src
	}
	if a.dst != b.dst {
		return a.dst < b.dst
	}
	return a.tag < b.tag
}

// firstDropLocked computes the run's canonical first loss: the lost
// message with the earliest fault-free virtual arrival, ties broken by
// stream order. Both keys are deterministic functions of the program and
// seed, so the result is reproducible regardless of which rank's loss was
// recorded first in wall-clock time. Caller holds t.mu.
func (t *ChaosTransport) firstDropLocked() *chaos.StreamRef {
	var (
		best   streamID
		bestAt float64
		found  bool
	)
	for sid, st := range t.streams {
		if !st.lost {
			continue
		}
		if !found || st.lossAt < bestAt || (st.lossAt == bestAt && streamBefore(sid, best)) {
			best, bestAt, found = sid, st.lossAt, true
		}
	}
	if !found {
		return nil
	}
	return &chaos.StreamRef{Src: best.src, Dst: best.dst, Tag: uint64(best.tag)}
}

// reportLocked returns the current run's report with FirstDrop
// materialized from the per-stream loss ledgers. Caller holds t.mu.
func (t *ChaosTransport) reportLocked() chaos.Report {
	rep := t.rep
	rep.FirstDrop = t.firstDropLocked()
	return rep
}

// Send injects faults into one message, or queues it behind an earlier loss
// on its stream (a lossy link still delivers FIFO per stream, so nothing
// may overtake a message awaiting retransmission).
func (t *ChaosTransport) Send(src, dst int, tag Tag, data []float64, arrival float64) {
	if !t.active.Load() {
		t.base.Send(src, dst, tag, data, arrival)
		return
	}
	sid := streamID{src: src, dst: dst, tag: tag}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rep.Sends++
	st := t.streamLocked(sid)
	if len(st.hold) > 0 {
		st.hold = append(st.hold, heldMsg{data: data, arrival: arrival})
		t.held++
		return
	}
	if minArr, ok := t.transmitLocked(sid, st, data, arrival); !ok {
		st.hold = append(st.hold, heldMsg{data: data, arrival: arrival, minArrival: minArr, attempts: 1})
		t.held++
	}
}

// Recv consumes deliveries from the base, absorbing the positions the fault
// layer marked as injected duplicates so the program sees each message
// exactly once.
func (t *ChaosTransport) Recv(dst, src int, tag Tag) ([]float64, float64, bool) {
	if !t.active.Load() {
		return t.base.Recv(dst, src, tag)
	}
	sid := streamID{src: src, dst: dst, tag: tag}
	for {
		t.mu.Lock()
		st := t.streamLocked(sid)
		pos := st.recv
		st.recv++
		isDup := len(st.dups) > 0 && st.dups[0] == pos
		if isDup {
			st.dups = st.dups[1:]
		}
		t.awaited[sid] = true
		t.mu.Unlock()

		data, arrival, ok := t.base.Recv(dst, src, tag)

		t.mu.Lock()
		delete(t.awaited, sid)
		if ok && isDup {
			t.rep.Absorbed++
		}
		t.mu.Unlock()
		if !ok {
			return nil, 0, false
		}
		if isDup {
			continue // injected duplicate: discard and take the next delivery
		}
		return data, arrival, true
	}
}

// tryRecv is the base's receive attempt under an inactive scenario. An
// active one absorbs duplicates around the base's receive, which takes a
// receive that blocks, so it blocks as Recv does.
func (t *ChaosTransport) tryRecv(dst, src int, tag Tag) ([]float64, float64, recvState) {
	if !t.active.Load() {
		return tryRecvOn(t.base, dst, src, tag)
	}
	return blockingRecv(t, dst, src, tag)
}

// stepping reports whether the base answers "would block" and no scenario
// is active.
func (t *ChaosTransport) stepping() bool { return !t.active.Load() && canStep(t.base) }

// CheckStalled extends the base's deadlock detection with fault recovery:
// a machine stalled while the chaos layer holds undelivered messages is
// stalled on a loss, not deadlocked — the receiver's timeout fires and
// retransmission (with seeded re-rolls and linear backoff) runs until a
// receiver wakes or a retry budget exhausts, which aborts the machine with
// a structured ErrFaultAbort failure. Only with no held messages is a
// confirmed stall a true dependency-cycle deadlock, and the base declares
// it. Recovery runs in canonical (sorted) stream order at a unique
// quiescent state, keeping the fault pattern reproducible under a seed.
func (t *ChaosTransport) CheckStalled() bool {
	if !t.active.Load() {
		return t.base.CheckStalled()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.base.Down() {
			return false
		}
		if t.held == 0 {
			return t.base.CheckStalled()
		}
		if !t.probe.probeStalled() {
			return false
		}
		t.rep.RetryRounds++
		woke, fail := t.recoverLocked()
		if fail != nil {
			t.rep.Aborted = true
			f := *fail
			t.rep.Failure = &f
			t.failure = t.failureErrorLocked(f)
			t.base.Abort()
			return true
		}
		if woke {
			return false
		}
		// Nothing woke: flushed messages matched no parked receiver, or
		// every held stream is still down. Re-evaluate — held may have
		// drained to zero (true deadlock check) or the machine may still
		// be stalled on the remaining holds.
	}
}

// failureErrorLocked builds the structured abort error for an exhausted
// retry budget. Caller holds t.mu.
func (t *ChaosTransport) failureErrorLocked(f chaos.StreamRef) error {
	first := ""
	if fd := t.firstDropLocked(); fd != nil && *fd != (chaos.StreamRef{Src: f.Src, Dst: f.Dst, Tag: f.Tag}) {
		first = fmt.Sprintf("; first loss was on %v", *fd)
	}
	return fmt.Errorf("machine: message on %v lost %d times under scenario %q (seed %d), budget of %d retries exhausted%s: %w",
		f, f.Attempts, t.sc.Name, t.sc.Seed, t.sc.MaxRetries, first, ErrFaultAbort)
}

// recoverLocked runs one retransmission pass over every stream with held
// messages, in canonical order. For each stream it flushes the hold queue
// until a transmission fails again: a lost head pays the receive timeout
// plus linear backoff on its arrival and is re-rolled against the pair's
// fault stream; messages queued behind it get their ordinary first
// transmission. It reports whether any forwarded message matched a stream a
// receiver is parked on, and the failing stream when a head exceeded the
// retry budget. Caller holds t.mu.
func (t *ChaosTransport) recoverLocked() (woke bool, fail *chaos.StreamRef) {
	ids := make([]streamID, 0, len(t.streams))
	for sid, st := range t.streams {
		if len(st.hold) > 0 {
			ids = append(ids, sid)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return streamBefore(ids[i], ids[j]) })
	for _, sid := range ids {
		st := t.streams[sid]
		for len(st.hold) > 0 {
			h := &st.hold[0]
			if h.attempts > 0 {
				// Lost message: the receiver's timeout fires and the
				// sender retransmits, arriving a timeout (plus backoff
				// per prior retry) later than it would have.
				h.penalty += t.sc.RecvTimeout + float64(h.attempts-1)*t.sc.RetryBackoff
				t.rep.RetryAttempts++
				arrival := h.arrival + h.penalty
				if arrival < h.minArrival {
					arrival = h.minArrival
				}
				minArr, ok := t.transmitLocked(sid, st, h.data, arrival)
				if !ok {
					h.attempts++
					if minArr > h.minArrival {
						h.minArrival = minArr
					}
					if h.attempts > t.sc.MaxRetries {
						return woke, &chaos.StreamRef{Src: sid.src, Dst: sid.dst, Tag: uint64(sid.tag), Attempts: h.attempts}
					}
					break // stream stays blocked this round
				}
				t.rep.Retransmits++
				for len(t.rep.RetryHistogram) <= h.attempts {
					t.rep.RetryHistogram = append(t.rep.RetryHistogram, 0)
				}
				t.rep.RetryHistogram[h.attempts]++
			} else {
				// Queued behind the loss: an ordinary first transmission
				// now that the stream's head has flushed.
				minArr, ok := t.transmitLocked(sid, st, h.data, h.arrival)
				if !ok {
					h.attempts = 1
					h.minArrival = minArr
					break
				}
			}
			st.hold[0] = heldMsg{}
			st.hold = st.hold[1:]
			t.held--
			if t.awaited[sid] {
				woke = true
			}
		}
		if len(st.hold) == 0 {
			st.hold = nil
		}
	}
	return woke, nil
}
