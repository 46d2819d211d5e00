package machine

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Executor is the engine that drives one Machine.Run: it decides which host
// goroutines execute the n virtual processors and in what order. The
// reference engine ("goroutine") spawns one goroutine per processor and
// lets the Go scheduler interleave them; the calendar engine ("calendar")
// multiplexes the processors over a bounded worker pool, resuming runnable
// ranks in virtual-time order from an event calendar. Programs produce
// bit-identical values, message/byte censuses and virtual times on every
// engine: the machine is a Kahn network — each receive names its (source,
// tag) stream — so results are a function of the program, not of which host
// thread ran which rank when. The conformance battery pins that identity.
type Executor interface {
	// Name returns the engine's registry name.
	Name() string
	// Execute runs body once per processor of m and returns when all of
	// them have finished. Per-rank errors (including recovered panics,
	// converted to errors exactly as the reference engine does) are
	// written to errs[rank]. Execute is called with the machine already
	// reset; it must call m.retire() as each rank's body finishes so the
	// deadlock detector's live count stays honest.
	Execute(m *Machine, body func(p *Proc) error, errs []error)
}

// Parker is the calendar engine's face toward the transports: when a
// machine runs under a parking executor, a blocking wait must yield the
// worker token instead of blocking a dedicated goroutine, and a delivery
// must move the destination rank from parked to runnable instead of
// signalling a condition variable. Transports reach the machine's parker
// (if any) through parkerOf on their bound Coordinator.
//
// The protocol is lost-wakeup safe without requiring Park and Wake to be
// ordered: a Wake for a rank that has not parked yet is remembered as
// pending, and that rank's next Park returns immediately. Spurious returns
// are therefore possible and callers must re-check their wait condition in
// a loop, exactly as they would around sync.Cond.Wait.
type Parker interface {
	// Park blocks the calling rank until a Wake (or WakeAll) aimed at it,
	// releasing its worker token while it waits. Must be called with no
	// transport locks held.
	Park(rank int)
	// Wake moves rank from parked to runnable (or marks a pending wake if
	// it has not parked yet). Safe to call with transport locks held.
	Wake(rank int)
	// WakeAll wakes every parked rank and marks every non-parked rank's
	// next Park as pending — the abort/stall-declared broadcast. Safe to
	// call with transport locks held.
	WakeAll()
}

// parkerHost is implemented by the machine's coordinator: transports ask it
// for the active run's Parker (nil when the reference engine is driving).
type parkerHost interface{ Parker() Parker }

// parkerOf extracts the active Parker from a transport's bound coordinator;
// nil with no coordinator, and nil when the current run's engine blocks on
// condition variables (so transports fall back to cond-based waits).
func parkerOf(c Coordinator) Parker {
	if h, ok := c.(parkerHost); ok {
		return h.Parker()
	}
	return nil
}

// ExecutorFactory builds a fresh executor instance. Factories return a new
// instance per call: an executor carries per-run scheduling state and must
// be exclusive to one machine at a time.
type ExecutorFactory func() Executor

var (
	execRegistryMu sync.RWMutex
	execRegistry   = map[string]ExecutorFactory{}
)

// RegisterExecutor adds a named execution engine to the registry. The core
// facade (core.Executor), the conformance battery and kfbench's -executor
// flag all resolve engines by these names, mirroring RegisterTransport.
func RegisterExecutor(name string, mk ExecutorFactory) {
	if name == "" {
		panic("machine: RegisterExecutor with empty name")
	}
	if mk == nil {
		panic(fmt.Sprintf("machine: RegisterExecutor(%q) with nil factory", name))
	}
	execRegistryMu.Lock()
	defer execRegistryMu.Unlock()
	if _, dup := execRegistry[name]; dup {
		panic(fmt.Sprintf("machine: executor %q registered twice", name))
	}
	execRegistry[name] = mk
}

// NewExecutorByName builds the named execution engine. Unknown names return
// errors naming the registered alternatives.
func NewExecutorByName(name string) (Executor, error) {
	execRegistryMu.RLock()
	mk := execRegistry[name]
	execRegistryMu.RUnlock()
	if mk == nil {
		return nil, fmt.Errorf("machine: unknown executor %q (registered: %v)", name, ExecutorNames())
	}
	return mk(), nil
}

// ExecutorNames returns the registered engine names, sorted.
func ExecutorNames() []string {
	execRegistryMu.RLock()
	names := make([]string, 0, len(execRegistry))
	for name := range execRegistry {
		names = append(names, name)
	}
	execRegistryMu.RUnlock()
	sort.Strings(names)
	return names
}

func init() {
	RegisterExecutor("goroutine", func() Executor { return goroutineExecutor{} })
	RegisterExecutor("calendar", func() Executor { return NewCalendarExecutor(0) })
}

// goroutineExecutor is the reference engine: one goroutine per virtual
// processor, interleaving owned by the Go scheduler, blocking waits parked
// on transport condition variables. It is stateless and the default.
type goroutineExecutor struct{}

func (goroutineExecutor) Name() string { return "goroutine" }

func (goroutineExecutor) Execute(m *Machine, body func(p *Proc) error, errs []error) {
	var wg sync.WaitGroup
	wg.Add(m.hi - m.lo)
	for i := m.lo; i < m.hi; i++ {
		p := m.procs[i]
		go func() {
			defer wg.Done()
			defer m.retire()
			defer func() {
				if r := recover(); r != nil {
					if abort, ok := r.(procAbort); ok {
						errs[p.rank] = abort.err
						return
					}
					errs[p.rank] = fmt.Errorf("machine: processor %d panicked: %v", p.rank, r)
					m.tr.Abort()
				}
			}()
			errs[p.rank] = body(p)
		}()
	}
	wg.Wait()
}

// calendarExecutor is the worker-pool/event-calendar engine: the n virtual
// processors run on at most `workers` concurrently executing goroutines
// (min(GOMAXPROCS, n) unless pinned), with execution order owned by a
// virtual-time calendar instead of the host scheduler.
//
// Each rank keeps its own goroutine — Go cannot snapshot a blocked
// continuation — but a rank only executes while it holds one of the worker
// tokens. A rank that blocks (receive with no matching message, barrier
// with peers missing) parks: it releases its token, the calendar grants the
// token to the runnable rank with the smallest virtual clock, and the parked
// goroutine waits on its private gate channel. Mailbox delivery and barrier
// release move ranks from parked back onto the calendar via Wake instead of
// signalling a dedicated goroutine.
//
// The calendar is a binary min-heap whose entries are the (clock, rank)
// pairs themselves, ordered lexicographically: a rank enters with the clock
// it had when it became runnable (it cannot advance while off a token), a
// grant pops the root, and both sift a hole rather than swap, so finding the
// next rank costs log n compares of adjacent cells and no lookup by rank. A
// rank is on the heap at most once — parked[] is what says whether a Wake
// has work to do — so nothing ever needs to find or move an entry by rank.
//
// Every rank is in exactly one of four states: on the calendar heap
// (runnable, no token), granted (token held, running or about to), parked
// (waiting for a Wake), or finished. The token invariant free + granted ==
// workers holds at every scheduler-lock release, which is what makes the
// engine cooperative rather than busy-waiting — with one worker, any lost
// wakeup or spin would deadlock immediately, a property the conformance
// battery's GOMAXPROCS=1 row pins.
//
// Stall detection moves with the engine: the coordinator's per-block
// CheckStalled trigger is suppressed (a parked rank is a continuation, not
// a blocked goroutine, and with k workers the blocked count crosses the
// live count constantly). Instead the scheduler itself triggers exactly one
// CheckStalled at each true quiescence — all tokens free, calendar empty,
// ranks unfinished — the only state from which no send can ever happen
// again without outside help. That is precisely when the goroutine engine's
// detector fires too (all live ranks blocked), so deadlock verdicts and
// chaos retransmission rounds land at the same program states on both
// engines.
//
// A calendarExecutor may be reused across sequential runs (state is reset
// per Execute) but never shared by two machines running concurrently.
type calendarExecutor struct {
	req int // requested worker count; 0 = min(GOMAXPROCS, n)

	m    *Machine
	body func(p *Proc) error
	errs []error

	mu       sync.Mutex
	workers  int
	free     int
	finished int
	n        int        // rank-space size (arrays are rank-indexed)
	nl       int        // local rank count actually executing here (m.hi - m.lo)
	heap     []calEntry // the calendar: runnable ranks, min-heap on (clock, rank)
	parked   []bool     // r is waiting for a Wake
	pending  []bool     // a Wake arrived before r's Park; next Park is a no-op
	gates    []chan struct{}
	loops    []func() // loops[r] runs rankLoop(r): bound once, so starting a rank allocates nothing

	wg sync.WaitGroup
}

// NewCalendarExecutor returns a calendar engine running on the given number
// of workers; workers <= 0 selects min(GOMAXPROCS, n) at Execute time, and
// requests above n are clamped to n.
func NewCalendarExecutor(workers int) *calendarExecutor {
	return &calendarExecutor{req: workers}
}

func (e *calendarExecutor) Name() string { return "calendar" }

// Workers returns the configured worker count (0 = GOMAXPROCS at run time).
func (e *calendarExecutor) Workers() int { return e.req }

func (e *calendarExecutor) Execute(m *Machine, body func(p *Proc) error, errs []error) {
	n := m.n
	nl := m.hi - m.lo
	w := e.req
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > nl {
		w = nl
	}
	e.m, e.body, e.errs = m, body, errs
	e.workers, e.n, e.nl = w, n, nl
	e.free = w
	e.finished = 0
	if len(e.gates) != n {
		e.gates = make([]chan struct{}, n)
		e.loops = make([]func(), n)
		for i := range e.gates {
			// Capacity 1: a grant may be issued before (or after) the
			// rank reaches its gate wait; either order delivers.
			e.gates[i] = make(chan struct{}, 1)
			e.loops[i] = func() { e.rankLoop(i) }
		}
		e.heap = make([]calEntry, 0, n)
		e.parked = make([]bool, n)
		e.pending = make([]bool, n)
	}
	e.heap = e.heap[:0]
	for i := 0; i < n; i++ {
		e.parked[i] = false
		e.pending[i] = false
	}

	// Publish the parker before any rank goroutine exists, so transports
	// route every blocking wait of this run through the calendar.
	m.setParker(e)

	e.wg.Add(nl)
	for r := m.lo; r < m.hi; r++ {
		go e.loops[r]()
	}
	// Seed the calendar with every local rank at clock zero (rank order
	// breaks the tie) and grant the first w tokens. Ranks outside the
	// machine's local window (the IPC worker's remote peers) never run
	// here: they are message endpoints, not continuations.
	e.mu.Lock()
	for r := m.lo; r < m.hi; r++ {
		e.pushLocked(r)
	}
	e.dispatchLocked()
	e.mu.Unlock()
	e.wg.Wait()
	e.body, e.errs = nil, nil
}

// rankLoop is one virtual processor's goroutine: wait for the first token
// grant, run the body to completion, then hand the token back.
func (e *calendarExecutor) rankLoop(r int) {
	defer e.wg.Done()
	<-e.gates[r]
	p := e.m.procs[r]
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				if abort, ok := rec.(procAbort); ok {
					e.errs[r] = abort.err
					return
				}
				e.errs[r] = fmt.Errorf("machine: processor %d panicked: %v", r, rec)
				e.m.tr.Abort()
			}
		}()
		e.errs[r] = e.body(p)
	}()
	e.m.retire()
	e.finish(r)
}

// Park releases the calling rank's worker token and blocks until a Wake. A
// wake that raced ahead of the park (the sender ran on another worker
// between this rank publishing its wait and parking) is consumed here and
// Park returns immediately — the caller's re-check loop does the rest.
func (e *calendarExecutor) Park(rank int) {
	e.mu.Lock()
	if e.pending[rank] {
		e.pending[rank] = false
		e.mu.Unlock()
		return
	}
	e.parked[rank] = true
	e.free++
	e.dispatchLocked()
	quiet := e.quietLocked()
	e.mu.Unlock()
	if quiet {
		// This park completed a quiescence: no token is granted, so no
		// rank can send, and nothing will ever change without the stall
		// check below (which retransmits under chaos, or declares
		// deadlock and wakes everyone through WakeAll).
		e.m.tr.CheckStalled()
	}
	<-e.gates[rank]
}

// Wake moves rank from parked onto the calendar (keyed at its current
// clock — safe to read: rank wrote it before parking, and parked[rank]
// under e.mu orders that write before this read) and dispatches; a wake for
// a rank that has not parked yet is remembered as pending.
func (e *calendarExecutor) Wake(rank int) {
	e.mu.Lock()
	if e.parked[rank] {
		e.parked[rank] = false
		e.pushLocked(rank)
		e.dispatchLocked()
	} else {
		e.pending[rank] = true
	}
	e.mu.Unlock()
}

// WakeAll is the abort/stall broadcast: every parked rank becomes runnable,
// and every rank between its down-check and its park gets a pending wake so
// it cannot sleep through the shutdown.
func (e *calendarExecutor) WakeAll() {
	e.mu.Lock()
	for r := 0; r < e.n; r++ {
		if e.parked[r] {
			e.parked[r] = false
			e.pushLocked(r)
		} else {
			e.pending[r] = true
		}
	}
	e.dispatchLocked()
	e.mu.Unlock()
}

// finish returns a completed rank's token and re-dispatches; like Park it
// triggers the stall check when it completes a quiescence (ranks parked on
// streams only a now-finished rank could have fed).
func (e *calendarExecutor) finish(rank int) {
	e.mu.Lock()
	e.finished++
	e.free++
	e.dispatchLocked()
	quiet := e.quietLocked()
	e.mu.Unlock()
	if quiet {
		e.m.tr.CheckStalled()
	}
}

// quietLocked reports true quiescence: every token free, no runnable rank,
// and unfinished local ranks remaining. Caller holds e.mu.
func (e *calendarExecutor) quietLocked() bool {
	return e.free == e.workers && len(e.heap) == 0 && e.finished < e.nl
}

// dispatchLocked grants free tokens to the earliest-clock runnable ranks.
// Caller holds e.mu.
func (e *calendarExecutor) dispatchLocked() {
	for e.free > 0 && len(e.heap) > 0 {
		r := e.popMinLocked()
		e.free--
		e.gates[r] <- struct{}{}
	}
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

// pushLocked puts rank r on the calendar at its current clock, sifting a
// hole up from the end: parents move down into it until r's place is found.
func (e *calendarExecutor) pushLocked(r int) {
	x := calEntry{clock: e.m.procs[r].clock, rank: int32(r)}
	e.heap = append(e.heap, x)
	h := e.heap
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

// popMinLocked removes and returns the earliest rank, sifting the hole it
// leaves down the smaller-child path until the last entry fits.
func (e *calendarExecutor) popMinLocked() int {
	h := e.heap
	r := h[0].rank
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	e.heap = h
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
