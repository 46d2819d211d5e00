// Package machine simulates a loosely coupled multicomputer: a collection of
// processors with private memories that interact only through point-to-point
// messages, in the style of the distributed-memory machines targeted by
// Mehrotra and Van Rosendale's KF1 language constructs (ICASE 89-41).
//
// Each processor runs as a continuation of its own — a goroutine of a
// partition it holds alone, or a step its partition calls, where a step
// program's processors are block-distributed over min(GOMAXPROCS, n) host
// workers (see SetExecutor) — and carries a virtual clock advanced by an
// explicit CostModel: computation via Compute, communication via Send/Recv.
// Message matching is point-to-point by (source, tag), so a program's
// virtual-time behaviour is a deterministic function of the program
// alone — every run of an experiment produces identical clocks, counters and
// traces regardless of host scheduling.
//
// The simulation is honest about distribution: goroutines never read each
// other's array data directly; all sharing flows through Send/Recv, which is
// what lets the higher layers (internal/darray, internal/kf) account every
// byte a real compiler-generated message-passing program would move.
//
// Message delivery itself is delegated to a pluggable Transport: the default
// SharedTransport delivers through one per-receiver mailbox array, while
// FederatedTransport partitions the processors into nodes joined by counted
// FIFO links. Programs behave bit-identically on any conforming transport.
package machine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"
)

// ErrDeadlock is reported by Run when every live processor is blocked in
// Recv and no pending message can satisfy any of them.
var ErrDeadlock = errors.New("machine: deadlock: all live processors blocked in Recv")

// Machine is a simulated multicomputer with a fixed number of processors.
type Machine struct {
	n      int
	lo, hi int // the window of ranks this machine executes (see localRanker)
	cost   CostModel
	sink   Sink
	procs  []*Proc
	tr     Transport
	bufs   sharedPool // machine-wide tier of the message buffer pool

	// stepper is tr's receive attempt (nil where tr has none): what
	// Proc.TryRecv calls, and what lets a run take its program's step form.
	stepper stepper

	// exec is the engine driving Run, and errs the pooled per-rank error
	// slice reused across runs.
	exec *calendarExecutor
	errs []error
	// cleanup ends exec's partition goroutines once the machine is unreachable
	// (see Close); re-armed by SetExecutor.
	cleanup runtime.Cleanup

	direct bool // see SetDirect

	// interned is the machine's table of read-only descriptors shared by
	// content between its ranks; see Intern.
	interned *internTable

	// coord is the machine's face toward its transport; &m.coord shares
	// the machine's allocation.
	coord coordinator
}

// coordinator is what a transport reaches of its machine: the engine of
// the run in flight, which every blocking wait parks through and every
// delivery or release wakes through, the stall recheck, and the
// machine-wide buffer pool tier. A transport holds its machine's (nil when
// it stands alone: then it never blocks).
type coordinator struct {
	m *Machine
	// run is the engine while a run is in flight, nil between runs. Atomic
	// because transports read it from Send, Abort and CheckStalled paths
	// that may run on external goroutines while Run publishes or clears it.
	run atomic.Pointer[calendarExecutor]
}

// engine returns the engine of the run in flight: nil with no run in
// flight, or on a nil coordinator. Wakers outside the ranks (ipc readers,
// the watcher, Abort, System.Close) call it between runs too; nil means
// there is no parked rank to wake, and the next blocking call reads the
// down flag for itself.
func (c *coordinator) engine() *calendarExecutor {
	if c == nil {
		return nil
	}
	return c.run.Load()
}

// RecheckStall re-runs the stall decision on behalf of a transport whose
// delivery pipeline just drained (the IPC transport's watcher, a worker's
// peer reader): the quiescence that ran the previous check could not see
// frames still in flight, so the drain gets another look — if the engine
// is quiescent now. Where it is not, the park or finish that completes the
// next quiescence runs the check itself. The transport's CheckStalled
// re-confirms every condition under its locks, so a look that finds
// nothing is a no-op. Routing through m.tr enters at the top of the
// transport stack: with a chaos wrapper, the recheck drives fault
// recovery too.
func (c *coordinator) RecheckStall() {
	if e := c.engine(); e != nil && e.quiescent() {
		c.m.tr.CheckStalled()
	}
}

// acquire and release expose the machine-wide buffer pool tier to the
// transport: a transport that serializes payloads onto a wire returns the
// sender's buffer here on encode and draws the receiver's buffer on
// decode, keeping the two-process round trip as allocation-free as the
// in-memory handoff it replaces. On a nil coordinator acquire allocates
// and release drops the buffer.
func (c *coordinator) acquire(n int) []float64 {
	if c == nil {
		return make([]float64, n)
	}
	if n == 0 {
		return nil
	}
	cl := sizeClass(n)
	if cl < numClasses {
		if buf, ok := c.m.bufs.take(cl); ok {
			return buf[:n]
		}
		return make([]float64, n, 1<<cl)
	}
	return make([]float64, n)
}

func (c *coordinator) release(buf []float64) {
	if c == nil {
		return
	}
	if cl := capClass(cap(buf)); cl >= 0 {
		c.m.bufs.put(cl, buf[:0])
	}
}

// New returns a machine with n processors governed by the given cost model,
// communicating over a shared-memory mailbox transport.
func New(n int, cost CostModel) *Machine {
	return NewWithTransport(NewSharedTransport(n), cost)
}

// NewFederated returns a machine whose n processors are partitioned into
// nodes equal nodes communicating over counted inter-node links; see
// FederatedTransport. Programs produce bit-identical results and message
// censuses on New and NewFederated machines of the same size; virtual
// times are also bit-identical under a flat cost model, while a
// hierarchical one (CostModel.InterNode) prices inter-node messages at
// their link's latency and bandwidth, so federated clocks honestly exceed
// shared ones by the interconnect surcharge.
func NewFederated(n, nodes int, cost CostModel) *Machine {
	return NewWithTransport(NewFederatedTransport(n, nodes), cost)
}

// localRanker is implemented by transports that host only a window of the
// machine's rank space locally (the IPC worker's sub-machine): ranks in
// [lo, hi) execute here, the rest exist only as message endpoints reached
// through the transport. The engine then drives only the local window, and
// its live count covers local ranks alone — remote progress is the
// transport's to observe.
type localRanker interface {
	LocalRanks() (lo, hi int)
}

// NewWithTransport returns a machine over an explicit transport; the
// processor count is the transport's endpoint count. The transport must be
// exclusive to this machine (Bind is called here).
func NewWithTransport(t Transport, cost CostModel) *Machine {
	n := t.Size()
	if n <= 0 {
		panic(fmt.Sprintf("machine: processor count must be positive, got %d", n))
	}
	m := &Machine{n: n, lo: 0, hi: n, cost: cost, tr: t, interned: new(internTable)}
	m.stepper, _ = t.(stepper)
	m.SetExecutor(nil)
	if lr, ok := t.(localRanker); ok {
		lo, hi := lr.LocalRanks()
		if lo < 0 || hi > n || lo >= hi {
			panic(fmt.Sprintf("machine: transport's local rank window [%d, %d) invalid for %d processors", lo, hi, n))
		}
		m.lo, m.hi = lo, hi
	}
	m.bufs.keep = max(sharedKeep, n)
	m.coord.m = m
	t.Bind(&m.coord)
	// One slab for every rank's Proc, not n allocations. A Proc is two
	// cache lines long, so no two ranks' clocks share one.
	slab := make([]Proc, n)
	m.procs = make([]*Proc, n)
	for i := range slab {
		slab[i].m, slab[i].rank = m, i
		m.procs[i] = &slab[i]
	}
	return m
}

// Intern returns machine m's one copy of a compiled, read-only
// descriptor: the value held under key if there is one, else mk()'s
// result, stored under key first. The key is computed before anything is
// compiled, from what fixes every value of the descriptor (a view's layout
// and windows, a halo exchange's block shape and its messages' relative
// peers, parts and windows), so only the first rank of a key runs mk, and
// the ranks whose keys agree hold one object — in a block distribution,
// one per position class (first, interior, last per axis), whatever the
// rank count — while a rank whose key differs gets its own. Equal keys
// must mean equal descriptors. mk runs with the table locked and must not
// intern. A value must not be changed once it is stored: ranks on every
// partition read it without a lock.
//
// The table is lock-guarded and touched only where a rank compiles (a
// cold run), never on replay; a lookup that hits allocates nothing. It
// holds its values weakly: an entry lasts as long as some rank's state
// holds its value, and a garbage collection after the last holder lets go
// (a pooled System re-declaring at a new size, say) removes it, so the
// table never holds more than the ranks' live declarations use.
func Intern[T any](m *Machine, key []byte, mk func() *T) *T {
	t := m.interned
	t.mu.Lock()
	defer t.mu.Unlock()
	if wp, ok := t.m[string(key)].(weak.Pointer[T]); ok {
		if v := wp.Value(); v != nil {
			return v
		}
	}
	if t.m == nil {
		t.m = make(map[string]any)
	}
	v := mk()
	e := internEntry{t: t, key: string(key), wp: weak.Make(v)}
	t.m[e.key] = e.wp
	runtime.AddCleanup(v, dropInterned, e)
	return v
}

// internTable is a machine's intern table: a weak pointer per key. It is
// an allocation of its own, apart from the Machine, because the cleanups
// that delete its entries hold it: holding the machine instead would keep
// every rank's state, and so every value, reachable for good.
type internTable struct {
	mu sync.Mutex
	m  map[string]any // a weak.Pointer[T] per key
}

// internEntry is one table entry as its value's cleanup names it.
type internEntry struct {
	t   *internTable
	key string
	wp  any
}

// dropInterned is an interned value's cleanup: it deletes the value's
// entry, unless a later Intern has already stored a new value under the
// same key.
func dropInterned(e internEntry) {
	t := e.t
	t.mu.Lock()
	if t.m[e.key] == e.wp {
		delete(t.m, e.key)
	}
	t.mu.Unlock()
}

// Interned returns the number of descriptors in the machine's intern
// table (see Intern). A value no rank holds any more leaves it some time
// after a garbage collection finds it unreachable.
func (m *Machine) Interned() int {
	t := m.interned
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// SetSink installs a trace sink. It must be called before Run; a nil sink
// disables tracing.
func (m *Machine) SetSink(s Sink) { m.sink = s }

// Size returns the number of processors.
func (m *Machine) Size() int { return m.n }

// Cost returns the machine's cost model.
func (m *Machine) Cost() CostModel { return m.cost }

// Transport returns the machine's message transport, so callers can reach
// transport-specific observability (for example FederatedTransport's link
// traffic counters).
func (m *Machine) Transport() Transport { return m.tr }

// SetExecutor installs the engine driving Run: NewCalendarExecutor pins
// its worker count, and nil restores the default, a step run's ranks on
// min(GOMAXPROCS, n) partitions. The engine it replaces is closed (see
// Close). It must not be called while a Run is in flight, and the engine
// must be exclusive to this machine.
func (m *Machine) SetExecutor(e *calendarExecutor) {
	if e == nil {
		e = NewCalendarExecutor(0)
	}
	if m.exec != nil && e != m.exec {
		m.exec.close()
	}
	m.exec = e
	m.cleanup.Stop()
	m.cleanup = runtime.AddCleanup(m, (*calendarExecutor).close, e)
}

// Close ends the partition goroutines the engine keeps for the machine's
// ranks. A partition's goroutine is started by the first Run on its
// partitions and then lives as long as the machine, waiting between runs.
// Close ends them at once between runs,
// or as the run in flight ends, and a later Run starts them again. A
// Machine that is dropped unclosed has them ended after a garbage
// collection finds it unreachable. Close leaves the transport alone, and is
// safe to call concurrently with a Run and with itself, and from a
// goroutine locked to its OS thread.
func (m *Machine) Close() { m.exec.close() }

// SetDirect selects how the data layer derives collective communication for
// arrays on this machine: false (the default) compiles a communication
// schedule once and replays it — the inspector/executor path a KF1 compiler
// would generate for iterative loops — true derives it inline on every call,
// the reference path the schedules were compiled from. The two produce
// bit-identical traffic (same messages, order, bytes, virtual times), which
// the darray equivalence suite and the 64-processor scaling experiment
// verify by running one machine of each kind side by side: the mode is the
// machine's, not the process's. Like SetExecutor it must not be called
// while a Run is in flight; it exists for verification, not for tuning.
func (m *Machine) SetDirect(on bool) { m.direct = on }

// Direct reports the machine's derivation mode; see SetDirect.
func (m *Machine) Direct() bool { return m.direct }

// CalendarStats returns what the engine's scheduler did during the most
// recent Run — parks, wakes, grants by hand-off and from idle, summed over
// its partitions (one per processor for a body).
func (m *Machine) CalendarStats() CalendarStats { return m.exec.stats }

// Run executes body once per processor under the machine's engine, each
// on a partition of its own, and waits for all of them. It returns the first non-nil error produced by any body (by
// rank order), or an error wrapping ErrDeadlock if the processors
// deadlock. Clocks, counters and the transport are reset at the start of
// each Run, so a Machine may be reused for successive independent programs.
//
// A panic inside body on any processor is recovered and returned as an
// error; the remaining processors are woken and terminated.
//
// Run may be called from a goroutine locked to its OS thread, and a body may
// lock its own across a blocking call.
func (m *Machine) Run(body func(p *Proc) error) error { return m.RunSteps(body, nil) }

// StepFunc is a rank program's step form: the same computation as its body,
// resumable by a call. The engine calls it with resume false to start the
// rank's run and, each time it reports done false, again with resume true
// once the rank is woken. Reporting done false is only allowed right after
// a TryRecv that returned false — the receive the step would block on,
// which the next call repeats first — so the rank's continuation is what
// the step keeps in its own state, and nothing of it is on a stack. A step
// must not block: no Recv without a matching message, no Wait, no Barrier.
// When done, err is the rank's result, as a body's return is.
type StepFunc func(p *Proc, resume bool) (done bool, err error)

// RunSteps is Run for a program that offers a step form beside its body.
// Where the transport can answer a receive with "would block" — every
// bundled transport but a chaos wrapper with an active scenario — every
// rank runs step, resumed by the engine with a call, and no rank has a
// stack of its own: the ranks share min(GOMAXPROCS, n) partitions (or the
// pinned worker count), each granting its token in virtual-time order. Elsewhere
// every rank runs body, as Run. The two forms must compute the same thing:
// values, messages and clocks are the program's either way. A nil step is
// Run.
func (m *Machine) RunSteps(body func(p *Proc) error, step StepFunc) error {
	m.tr.Reset()
	for _, p := range m.procs {
		p.reset()
	}

	if m.errs == nil {
		m.errs = make([]error, m.n)
	} else {
		for i := range m.errs {
			m.errs[i] = nil
		}
	}
	if step != nil && !canStep(m.tr) {
		step = nil
	}
	// The engine publishes itself as the run in flight before granting
	// any rank; clearing it afterwards tells late wakers that there is no
	// run to wake.
	m.exec.Execute(m, body, step, m.errs)
	m.coord.run.Store(nil)
	for _, err := range m.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Elapsed returns the maximum processor clock reached during the most recent
// Run — the virtual wall-clock time of the parallel program.
func (m *Machine) Elapsed() float64 {
	var max float64
	for _, p := range m.procs {
		if p.clock > max {
			max = p.clock
		}
	}
	return max
}

// TotalStats returns the element-wise sum of all processors' statistics from
// the most recent Run.
func (m *Machine) TotalStats() Stats {
	var t Stats
	for _, p := range m.procs {
		t = t.Add(p.stats)
	}
	return t
}

// ProcStats returns the statistics of processor rank from the most recent
// Run.
func (m *Machine) ProcStats(rank int) Stats { return m.procs[rank].stats }

// ProcClock returns the final clock of processor rank from the most recent
// Run.
func (m *Machine) ProcClock(rank int) float64 { return m.procs[rank].clock }

// RankErrors returns the per-rank error slice of the most recent Run
// (index = rank; nil for ranks that finished cleanly and for ranks
// outside the machine's local window). The slice is owned by the machine
// and reused across runs: callers must not retain it past the next Run.
// Run itself surfaces only the first error by rank order; a host that
// reports per-rank outcomes — the IPC worker shipping one RankResult per
// local rank — reads the rest from here.
func (m *Machine) RankErrors() []error { return m.errs }

// procAbort carries a structured per-processor failure through the panic
// machinery inside Run; it never escapes the package.
type procAbort struct{ err error }
