package machine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// calendarExecutor is the engine that drives Machine.Run: the virtual
// processors run on partitions, a goroutine each, with execution order owned
// by virtual-time calendars instead of the host scheduler. Programs produce
// bit-identical values, message/byte censuses and virtual times at every
// partition count: the machine is a Kahn network — each receive names its
// (source, tag) stream — so results are a function of the program, not of
// which host thread ran which rank when, and any two layouts are each
// other's reference. The conformance battery pins that identity.
//
// The workers are themselves a processor array and the ranks are dist(block)
// over it — the paper's declaration, applied to the host. The nl local ranks
// are cut into w = ⌈nl / per⌉ partitions of per contiguous ranks (the last
// may be short, none is empty). A partition owns its ranks for the whole run
// and holds one lock, one calendar and one token: a partition's ranks are
// only ever run by that partition, so ranks that run at the same time are a
// block apart, and grid neighbours — which share mailboxes and halo buffers
// — mostly run one after the other on one worker. Scheduling traffic
// crosses a partition boundary only where the program's own messages do: a
// Wake takes the lock of the woken rank's partition and nothing else.
//
// The run's kind decides per. A program that offers a step form
// (StepFunc), on a transport that can answer a receive with "would block",
// runs as step rows on per = ⌈nl / workers⌉ — workers min(GOMAXPROCS, n),
// or pinned (NewCalendarExecutor): the rank's continuation is
// what its step keeps in its own state — a step index, a loop counter, a
// message index — and the partition's goroutine resumes the rank by calling
// its step, which returns when it finishes or when a receive finds no
// message. The goroutine then parks the rank with the bookkeeping Park
// applies (park) and calls the next rank's step; no rank has a stack of its
// own. Any other program runs its body, which blocks on its own stack, so
// per = 1 at every worker count: the partition's goroutine runs the body,
// and a rank that blocks waits on its partition's gate. A rank only
// executes while it holds its partition's token. A rank that blocks
// (receive with no matching message, barrier with peers missing) parks: it passes the token to the runnable rank of its
// partition with the smallest virtual clock, which the partition's
// goroutine calls next, or it leaves the partition idle, and the goroutine
// waits on the gate. Mailbox delivery and barrier release move ranks from
// parked back onto their calendar via Wake instead of signalling a
// dedicated goroutine; a Wake that finds the partition idle grants the
// token through the gate on the spot. A hand-off inside a partition is thus
// a return and a call, with no trip through the Go scheduler.
//
// A calendar is a binary min-heap whose entries are the (clock, rank) pairs
// themselves, ordered lexicographically: a rank enters with the clock it had
// when it became runnable (it cannot advance while off the token), a grant
// pops the root, and both sift a hole rather than swap, so finding the next
// rank costs log n compares of adjacent cells and no lookup by rank. A rank
// is on its heap at most once — parked[] is what says whether a Wake has
// work to do — so nothing ever needs to find or move an entry by rank.
// Virtual-time order therefore holds per partition: with one worker that is
// the whole machine, with more it is all the order there ever was, since
// ranks on different tokens always ran unordered. Results do not care — the
// machine is a Kahn network — and with one rank per partition there is no
// order at all: every runnable rank holds a token.
//
// Every rank is in exactly one of four states: on its partition's heap
// (runnable, no token), granted (token held, running or about to), parked
// (waiting for a Wake), or finished. At every release of a partition's lock
// at most one of its ranks is granted, and !busy implies its heap is empty:
// a free token and a runnable rank never coexist, which is what makes the
// engine cooperative rather than busy-waiting — with one worker, any lost
// wakeup or spin would deadlock immediately, a property the conformance
// battery's GOMAXPROCS=1 row pins.
//
// Stall detection belongs to the engine: a parked rank is a continuation,
// not a blocked goroutine, so the scheduler itself triggers exactly one
// CheckStalled at each true quiescence. idle counts the partitions whose
// token is free; it moves only under the lock of the partition that
// changes state, so the Park or finish whose increment brings it to w saw,
// at that instant, every token free and (by the invariant above) every
// calendar empty — with ranks unfinished, the only state from which no
// send can ever happen again without outside help, and that caller alone
// runs the check. No rank then sits between publishing its wait and
// parking: it holds its token until it parks. The check is the transport's
// mailbox snapshot, the one stall oracle: the mailboxes' waiting flags
// against live, the engine's count of unfinished local ranks, with no
// waiter's stream pending. So deadlock verdicts and chaos retransmission
// rounds land at the same program states at every partition count.
//
// Like the paper's processor declaration, which lasts as long as the
// program, a partition's goroutine lasts as long as the engine's machine:
// the first run on a cut (calCut) starts its goroutines, which wait on
// their gates between runs, so a warm run starts nothing and regrows no
// stack, and with a cut per kind neither does a run of the other kind.
// Machine.Close closes the gates, and each goroutine returns (a later run
// starts them again); the garbage collector does the same once an unclosed
// Machine is dropped: between runs the engine keeps no reference to the
// machine. A run on another window ends them all first, and a step run on
// another partition size its cut's.
//
// A calendarExecutor may be reused across sequential runs (state is reset
// per Execute) but never shared by two machines running concurrently.
type calendarExecutor struct {
	req int // requested worker count; 0 = min(GOMAXPROCS, n)

	// mu orders what reaches the engine from outside the ranks against a
	// run's setup and end. A WakeAll (an abort or a stall verdict landing as
	// a run ends) reads the layout below, which Execute rewrites; Close ends
	// the partition goroutines, which Execute starts. Execute writes the
	// layout, seeds the calendars and starts missing goroutines under mu,
	// and takes it again to mark the run over.
	mu      sync.Mutex
	running bool // an Execute is in flight
	closing bool // Close arrived during the run: end the partitions when it does

	// The run in flight; all nil between runs, so that the partition
	// goroutines (which reach e) keep no dropped Machine alive.
	m    *Machine
	body func(p *Proc) error
	step StepFunc // non-nil: the run's ranks are step rows
	errs []error

	// The layout: the run's cut, its parts and per copied here for the
	// lookup every Park and Wake makes.
	parts  []calPartition
	per    int // ranks per partition: rank r belongs to parts[(r-lo)/per]
	lo, hi int // the cuts' local window
	stats  CalendarStats

	// The two words every partition writes, on a line of their own: the
	// fields above are read by every Park and Wake.
	_    [64]byte
	idle atomic.Int32 // partitions whose token is free
	live atomic.Int32 // local ranks of the run in flight not yet finished; 0 between runs
	_    [64]byte

	// Rank-indexed; a rank's entries are guarded by its partition's lock.
	parked  []bool // r is waiting for a Wake
	pending []bool // a Wake arrived before r's Park; next Park is a no-op
	begun   []bool // a step run has called r's step: the next call resumes

	wg sync.WaitGroup // ranks of the run in flight that have not finished

	// cuts[0] has a partition per rank: every body run's, and a step run's
	// where workers ≥ nl. cuts[1] is the step runs' with per > 1.
	cuts [2]calCut
}

// calCut is one way of cutting the local ranks into partitions, with the
// goroutines that run them. Each cut waits only for its own goroutines, so
// recutting one leaves the other's waiting on their gates.
type calCut struct {
	parts []calPartition
	per   int            // ranks per partition; 0 until the cut is made
	exits sync.WaitGroup // partition goroutines that have not returned
}

// calPartition is one worker's share of the machine: a contiguous block of
// ranks, the calendar of those that are runnable, the single token that
// lets one of them execute, and the goroutine that runs them. The padding
// keeps two partitions' locks, heap headers and counters off one cache line
// and off one prefetched pair of lines, wherever the slice happens to be
// aligned.
type calPartition struct {
	mu     sync.Mutex
	busy   bool       // the token is granted; !busy ⇒ heap is empty
	lo, hi int        // the partition's ranks
	heap   []calEntry // runnable ranks of this partition, min-heap on (clock, rank)
	stats  CalendarStats

	// gate carries the rank granted to an idle partition (by a Wake, or
	// Execute's seeding); closed, it ends the goroutine. Capacity 1: at most
	// one grant is outstanding, and it may be issued before or after the
	// goroutine reaches its wait. alive says the goroutine exists: written
	// under e.mu, or during a run by a one-rank partition's rank that
	// Goexits.
	gate  chan int
	alive bool

	_ [128]byte
}

// CalendarStats counts what the calendar engine's scheduler did during the
// most recent run, summed over its partitions (see Machine.CalendarStats).
// Each partition keeps its own counts in one, under the lock it already holds.
// Every grant is either a hand-off or a grant from idle. A hand-off stays on
// one worker; a grant from idle is a Wake that found no rank of the woken
// rank's partition running, so the waker is a rank of another partition or a
// transport goroutine — the wakes that cost a hand-over between host CPUs.
type CalendarStats struct {
	Partitions int // partitions (= tokens) the local ranks were split over
	// Starts counts the goroutines the run started for partitions of one
	// rank, each of which keeps that rank's stack. On a machine's first body
	// run it is the local rank count, as on a first step run whose workers
	// are at least its ranks; a step run on partitions of several ranks
	// starts none that count. It is 0 on a warm run, and 1 after one rank's
	// runtime.Goexit.
	Starts         int
	Parks          int64 // Park calls that gave the token up (no wake was pending)
	Wakes          int64 // Wake/WakeAll calls that found their rank parked
	HandoffGrants  int64 // a Park, a finish or Execute's seeding passed its token on
	FromIdleGrants int64 // a Wake granted the token of an idle partition
	Idles          int64 // times a partition's token found no runnable rank
	MaxDepth       int64 // deepest any one partition's calendar got
}

func (s *CalendarStats) add(o CalendarStats) {
	s.Parks += o.Parks
	s.Wakes += o.Wakes
	s.HandoffGrants += o.HandoffGrants
	s.FromIdleGrants += o.FromIdleGrants
	s.Idles += o.Idles
	s.MaxDepth = max(s.MaxDepth, o.MaxDepth)
}

// NewCalendarExecutor returns an engine running on the given number of
// workers, one partition of a step run's ranks each; workers <= 0 selects
// min(GOMAXPROCS, n) at Execute time, and requests above n are clamped to
// n. A body run takes a partition per rank whatever the count.
func NewCalendarExecutor(workers int) *calendarExecutor {
	return &calendarExecutor{req: workers}
}

// Execute runs one program per processor of m — body, or with step non-nil
// its step form (see StepFunc), which the transport can then serve — and
// returns when all of them have finished. Per-rank errors (including
// recovered panics and runtime.Goexit, converted to errors) are written to
// errs[rank]. m is already reset; Execute publishes itself as m's run in
// flight before any rank runs, and counts each rank out of live as it
// finishes. It may be called from a goroutine locked to its OS thread.
func (e *calendarExecutor) Execute(m *Machine, body func(p *Proc) error, step StepFunc, errs []error) {
	n := m.n
	nl := m.hi - m.lo
	e.stats = CalendarStats{}
	if nl <= 0 {
		return
	}
	per := 1 // a body blocks on its own stack: a partition per rank
	if step != nil {
		w := e.req
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		w = min(w, nl)
		per = (nl + w - 1) / w
	}
	e.mu.Lock()
	if len(e.parked) != n || e.lo != m.lo || e.hi != m.hi {
		// A window the cuts were not made for: their goroutines belong to
		// slices about to be dropped.
		e.endPartsLocked()
		e.cuts[0].per, e.cuts[1].per = 0, 0
		e.lo, e.hi = m.lo, m.hi
		e.parked = make([]bool, n)
		e.pending = make([]bool, n)
		e.begun = nil
	}
	c := &e.cuts[min(per, 2)-1]
	if c.per != per {
		// A partition size the cut was not made for (which fixes the
		// partition count too).
		c.end()
		c.per = per
		c.parts = make([]calPartition, (nl+per-1)/per) // no partition is empty
		// A partition's calendar never holds more than its own ranks, so
		// one backing array serves them all and push never grows one.
		heaps := make([]calEntry, nl)
		for k := range c.parts {
			pt := &c.parts[k]
			pt.lo = e.lo + k*per
			pt.hi = min(pt.lo+per, e.hi)
			pt.heap = heaps[pt.lo-e.lo : pt.lo-e.lo : pt.hi-e.lo]
		}
	}
	e.parts, e.per = c.parts, per
	if step != nil && e.begun == nil {
		e.begun = make([]bool, n)
	}
	e.running = true
	e.m, e.body, e.step, e.errs = m, body, step, errs

	// Seed every calendar with its partition's ranks at clock zero (rank
	// order breaks the tie). Execute holds all w tokens while it does, so
	// nothing is idle and nothing can look quiescent before the last
	// partition is started. Ranks outside the machine's local window (the
	// IPC worker's remote peers) never run here: they are message
	// endpoints, not continuations, and belong to no partition. A partition
	// without a goroutine — on the cut's first run, after a Close, or
	// after its one rank's Goexit — gets one, which waits for its grant.
	e.idle.Store(0)
	e.live.Store(int32(nl))
	for k := range e.parts {
		pt := &e.parts[k]
		pt.mu.Lock()
		pt.busy = true
		pt.heap = pt.heap[:0]
		pt.stats = CalendarStats{}
		for r := pt.lo; r < pt.hi; r++ {
			e.parked[r], e.pending[r] = false, false
			if e.begun != nil {
				e.begun[r] = false
			}
			pt.push(calEntry{clock: m.procs[r].clock, rank: int32(r)})
		}
		pt.mu.Unlock()
		if !pt.alive {
			pt.gate = make(chan int, 1)
			pt.alive = true
			c.exits.Add(1)
			go e.partLoop(c, pt, -1)
			if per == 1 {
				e.stats.Starts++
			}
		}
	}
	e.mu.Unlock()

	// Publish the run before any rank is granted: every blocking wait of
	// this run parks through the calendar.
	m.coord.run.Store(e)

	e.wg.Add(nl)
	for k := range e.parts {
		pt := &e.parts[k]
		pt.mu.Lock()
		r, _ := e.passLocked(pt)
		pt.gate <- r
		pt.mu.Unlock()
	}
	e.wg.Wait()
	e.stats.Partitions = len(e.parts)
	for k := range e.parts {
		e.stats.add(e.parts[k].stats)
	}
	e.mu.Lock()
	e.m, e.body, e.step, e.errs = nil, nil, nil, nil
	e.running = false
	if e.closing {
		e.closing = false
		e.endPartsLocked()
	}
	e.mu.Unlock()
}

// partOf returns the partition that owns local rank r.
func (e *calendarExecutor) partOf(r int) *calPartition {
	return &e.parts[(r-e.lo)/e.per]
}

// partLoop is a partition's goroutine for as long as its cut keeps it.
// Granted rank r (or, with r < 0, waiting on the gate for a grant), it runs
// r until the token leaves r — calling r's step, or running r's body inline
// — then runs the rank the token went to, or waits again if the partition
// fell idle. A closed gate ends it. Once a run's last rank has finished,
// the wait on the gate is all a partition goroutine does: Execute may
// already be returning.
func (e *calendarExecutor) partLoop(c *calCut, pt *calPartition, r int) {
	defer c.exits.Done()
	for {
		if r < 0 {
			var ok bool
			if r, ok = <-pt.gate; !ok {
				return
			}
		}
		if e.step != nil {
			r = e.runStep(c, pt, r)
		} else {
			r = e.runBody(r)
		}
	}
}

// runBody runs rank r's body for the run in flight and, however the body
// ends, takes r's exit path, returning the rank r's token went to.
func (e *calendarExecutor) runBody(r int) (next int) {
	returned := false
	defer func() { next = e.exit(r, returned, recover()) }()
	e.errs[r] = e.body(e.m.procs[r])
	returned = true
	return -1 // unreachable: the deferred exit path sets next
}

// runStep calls rank r's step until r finishes, taking r's exit path, or
// parks, and returns the rank r's token went to (-1: the partition fell
// idle). A park that finds a wake pending lets the step run again at once,
// as Park returns at once to a body. A step that returns unfinished with no
// receive to wait on could never be woken, so it fails its rank. A panic
// or runtime.Goexit in the step takes the exit path as one in a body does;
// a Goexit also ends this goroutine, so where the partition's other ranks
// are mid-run, a new one takes over from wherever the token went.
func (e *calendarExecutor) runStep(c *calCut, pt *calPartition, r int) (next int) {
	returned := false
	defer func() {
		if returned {
			return
		}
		rec := recover()
		shared := e.per > 1 // read first: once r exits, the next run may start
		next = e.exit(r, false, rec)
		if rec == nil && shared {
			c.exits.Add(1)
			go e.partLoop(c, pt, next)
		}
	}()
	p := e.m.procs[r]
	for {
		done, err := e.step(p, e.begun[r])
		e.begun[r] = true
		if done {
			returned = true
			e.errs[r] = err
			return e.exit(r, true, nil)
		}
		if !p.missed {
			panic(fmt.Sprintf("machine: processor %d's step returned unfinished with no receive to wait for", r))
		}
		if next, parked := e.park(pt, r); parked {
			returned = true
			return next
		}
	}
}

// exit is rank r's exit path however its body or step ended — returned
// (returned), panicked (rec) or called runtime.Goexit (neither): it records
// r's error, counts r out of live and passes its token on, returning the
// rank the token went to. A Goexit also ends the goroutine r ran on: a
// one-rank partition's, which the next run replaces, or a step partition's,
// which runStep replaces at once — the partition's other ranks are mid-run.
func (e *calendarExecutor) exit(r int, returned bool, rec any) (next int) {
	goexit := false
	if rec != nil {
		if abort, ok := rec.(procAbort); ok {
			e.errs[r] = abort.err
		} else {
			e.errs[r] = fmt.Errorf("machine: processor %d panicked: %v", r, rec)
			e.m.tr.Abort()
		}
	} else if !returned {
		goexit = true
		e.errs[r] = fmt.Errorf("machine: processor %d called runtime.Goexit", r)
		e.m.tr.Abort()
	}
	next = e.finish(r)
	if goexit && e.per == 1 {
		e.partOf(r).alive = false
	}
	e.wg.Done()
	return next
}

// close ends the partition goroutines: at once between runs, or as the run
// in flight ends. A later run starts them again.
func (e *calendarExecutor) close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running {
		e.closing = true
		return
	}
	e.endPartsLocked()
}

// endPartsLocked ends the goroutines of both cuts. Caller holds e.mu with
// no run in flight.
func (e *calendarExecutor) endPartsLocked() {
	for k := range e.cuts {
		e.cuts[k].end()
	}
}

// end closes the gate of every partition goroutine of c and waits for them
// to return. Caller holds e.mu with no run in flight, so every goroutine is
// waiting on its gate, or about to.
func (c *calCut) end() {
	for k := range c.parts {
		if pt := &c.parts[k]; pt.alive {
			close(pt.gate)
			pt.alive = false
		}
	}
	c.exits.Wait()
}

// Park, Wake and WakeAll are the transports' one blocking protocol: a
// blocking wait (a receive with no matching message, a host barrier with
// peers missing) parks the calling rank, yielding its worker token, and a
// delivery or release that satisfies the wait moves the rank from parked
// to runnable. Transports reach the engine as their coordinator's run in
// flight. The protocol is lost-wakeup safe without requiring Park and Wake
// to be ordered: a Wake for a rank that has not parked yet is remembered
// as pending, and that rank's next Park returns immediately. Spurious
// returns are therefore possible, and callers re-check their wait
// condition in a loop.

// Park gives up the calling rank's token and blocks until a Wake; it must
// be called with no transport lock held. A wake that raced ahead of the
// park (the sender ran on another worker between this rank publishing its
// wait and parking) is consumed here and Park returns immediately — the
// caller's re-check loop does the rest. A step rank has no stack to block
// on: it returns from its step instead, and Park refuses it. A body rank
// has its partition to itself, so it waits on the partition's gate for the
// grant that brings the token back.
func (e *calendarExecutor) Park(rank int) {
	if e.step != nil {
		panic(fmt.Sprintf("machine: processor %d blocked inside its step; a step returns where it would block", rank))
	}
	pt := e.partOf(rank)
	if _, parked := e.park(pt, rank); parked {
		<-pt.gate
	}
}

// park is the bookkeeping of parking rank, for Park and for a step rank's
// partition alike: a pending wake is consumed instead (parked false: the
// rank runs on), otherwise the rank is marked parked and its token passes
// to the next runnable rank of pt, which park returns (-1: pt fell idle).
func (e *calendarExecutor) park(pt *calPartition, rank int) (next int, parked bool) {
	pt.mu.Lock()
	if e.pending[rank] {
		e.pending[rank] = false
		pt.mu.Unlock()
		return -1, false
	}
	e.parked[rank] = true
	pt.stats.Parks++
	next, quiet := e.passLocked(pt)
	pt.mu.Unlock()
	if quiet {
		// This park completed a quiescence: no token is granted, so no
		// rank can send, and nothing will ever change without the stall
		// check below (which retransmits under chaos, or declares
		// deadlock and wakes everyone through WakeAll).
		e.m.tr.CheckStalled()
	}
	return next, true
}

// Wake moves rank from parked onto its partition's calendar (keyed at its
// current clock — safe to read: rank wrote it before parking, and
// parked[rank] under the partition's lock orders that write before this
// read) and grants the token if the partition was idle; a wake for a rank
// that has not parked yet is remembered as pending. Only local ranks park,
// so only local ranks are woken. Safe to call with transport locks held.
func (e *calendarExecutor) Wake(rank int) {
	pt := e.partOf(rank)
	pt.mu.Lock()
	e.wakeLocked(pt, rank)
	e.grantIdleLocked(pt)
	pt.mu.Unlock()
}

// WakeAll is the abort/stall broadcast: every parked rank becomes runnable,
// and every rank between its down-check and its park gets a pending wake so
// it cannot sleep through the shutdown. It holds every partition's lock (in
// index order; no other path holds two) until all of them are restarted, so
// a partition that drains at once cannot make the machine look quiescent
// while its neighbours are still to be woken. A WakeAll that finds no run in
// flight only marks wakes pending, which the next Execute clears. Safe to
// call with transport locks held, and from any goroutine.
func (e *calendarExecutor) WakeAll() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for k := range e.parts {
		e.parts[k].mu.Lock()
	}
	for k := range e.parts {
		pt := &e.parts[k]
		for r := pt.lo; r < pt.hi; r++ {
			e.wakeLocked(pt, r)
		}
		e.grantIdleLocked(pt)
	}
	for k := range e.parts {
		e.parts[k].mu.Unlock()
	}
}

// wakeLocked puts rank on pt's calendar if it is parked and marks a pending
// wake if it is not. Caller holds pt.mu.
func (e *calendarExecutor) wakeLocked(pt *calPartition, rank int) {
	if !e.parked[rank] {
		e.pending[rank] = true
		return
	}
	e.parked[rank] = false
	pt.stats.Wakes++
	pt.push(calEntry{clock: e.m.procs[rank].clock, rank: int32(rank)})
}

// grantIdleLocked grants pt's token to its earliest runnable rank if the
// token is free. Caller holds pt.mu.
func (e *calendarExecutor) grantIdleLocked(pt *calPartition) {
	if pt.busy || len(pt.heap) == 0 {
		return
	}
	pt.busy = true
	e.idle.Add(-1)
	pt.stats.FromIdleGrants++
	pt.gate <- pt.popMin()
}

// passLocked disposes of pt's token on behalf of a caller that holds it (and
// pt.mu): it goes to the partition's earliest runnable rank, which it
// returns for the caller to hand it to, or the partition falls idle (-1).
// It reports whether that completed a quiescence — every partition idle
// with ranks unfinished — which obliges the caller to run the stall check
// once it has released the lock.
func (e *calendarExecutor) passLocked(pt *calPartition) (next int, quiet bool) {
	if len(pt.heap) > 0 {
		pt.stats.HandoffGrants++
		return pt.popMin(), false
	}
	pt.busy = false
	pt.stats.Idles++
	return -1, int(e.idle.Add(1)) == len(e.parts) && e.live.Load() > 0
}

// quiescent reports, from outside the ranks, what passLocked detects as it
// happens: the run in flight has every partition's token free with ranks
// unfinished. e.mu keeps Execute from rewriting the layout under the look.
func (e *calendarExecutor) quiescent() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.running && int(e.idle.Load()) == len(e.parts) && e.live.Load() > 0
}

// finish passes a completed rank's token on and returns the rank it went to;
// like Park it triggers the stall check when it completes a quiescence
// (ranks parked on streams only a now-finished rank could have fed).
func (e *calendarExecutor) finish(rank int) int {
	e.live.Add(-1)
	pt := e.partOf(rank)
	pt.mu.Lock()
	next, quiet := e.passLocked(pt)
	pt.mu.Unlock()
	if quiet {
		e.m.tr.CheckStalled()
	}
	return next
}

// --- the calendar: a binary min-heap of (clock, rank) entries ------------

// calEntry is one runnable rank and the clock it became runnable at. The
// entry carries its own key, so a compare reads two adjacent heap cells and
// nothing else.
type calEntry struct {
	clock float64
	rank  int32
}

// before is the grant order: earlier clock first, lower rank on a tie.
func (a calEntry) before(b calEntry) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	return a.rank < b.rank
}

// push puts x on the calendar, sifting a hole up from the end: parents move
// down into it until x's place is found.
func (pt *calPartition) push(x calEntry) {
	pt.heap = append(pt.heap, x)
	h := pt.heap
	pt.stats.MaxDepth = max(pt.stats.MaxDepth, int64(len(h)))
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

// popMin removes and returns the earliest rank, sifting the hole it leaves
// down the smaller-child path until the last entry fits.
func (pt *calPartition) popMin() int {
	h := pt.heap
	r := h[0].rank
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	pt.heap = h
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = x
	}
	return int(r)
}
