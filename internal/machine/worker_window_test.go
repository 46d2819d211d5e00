package machine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The window battery: WorkerTransport is the only user of the mailbox core
// over a rank window with lo > 0, and outside this file its receive, park,
// barrier and stall paths run only inside real worker processes. Here the
// WorkerTransports of one machine are joined in a single process by a
// loopback workerIO, one windowed Machine per node, and the conformance
// rows that make sense without a coordinator run over them on both layouts
// of the engine.

// loopFleet is the in-process stand-in for a worker fleet and the part of
// the coordinator its transports talk to: it forwards remote sends, releases
// a host-barrier generation once every node announced it, and records stall
// reports (no verdict follows unless the test issues one).
type loopFleet struct {
	trs []*WorkerTransport
	ms  []*Machine

	mu        sync.Mutex
	announced map[uint64]int // host-barrier generation -> nodes that announced it
	releases  sync.WaitGroup // barrier releases in flight

	reports   []chan struct{} // per node: a reportStall call happened
	announces []chan struct{} // per node: a sendBarrierArrive call happened
}

// loopIO is one node's workerIO.
type loopIO struct {
	f    *loopFleet
	node int
}

// sendRemote completes the crossing at once: the payload is copied into a
// buffer of the peer's pool (the sender recycles its own when this returns,
// exactly as after a socket write) and delivered through the peer's core.
func (io *loopIO) sendRemote(gen uint64, src, dst, dstNode int, tag Tag, data []float64, arrival float64) {
	peer := io.f.trs[dstNode]
	buf := peer.acquire(len(data))
	copy(buf, data)
	peer.deliver(src, dst, tag, buf, arrival)
}

func (io *loopIO) reportStall() {
	notify(io.f.reports[io.node])
}

// sendBarrierArrive is called under the announcing transport's barrier lock,
// so the release — which takes that lock on every transport — runs on its
// own goroutine, as the coordinator's release frame would arrive on one.
func (io *loopIO) sendBarrierArrive(gen, barGen uint64) {
	f := io.f
	notify(f.announces[io.node])
	f.mu.Lock()
	f.announced[barGen]++
	full := f.announced[barGen] == len(f.trs)
	f.mu.Unlock()
	if full {
		f.releases.Add(1)
		go func() {
			defer f.releases.Done()
			for _, t := range f.trs {
				t.releaseBarrier(barGen)
			}
		}()
	}
}

func notify(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func await(tb testing.TB, ch <-chan struct{}, what string) {
	tb.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		tb.Fatalf("timed out waiting for %s", what)
	}
}

// twoWorkers is the engine pinned at two workers. A body run takes a
// partition per rank whatever the count, so in forEachWindowFleet, whose
// programs are bodies, its row only pins that a pinned count leaves a body
// run's layout alone. TestWindowStepsMatchBody runs step programs at it:
// there every window of two ranks or more is split into two shared
// partitions, the first starting past rank 0 on every node but node 0,
// whatever -cpu the battery runs under.
var twoWorkers = layout{"calendar/2workers", 2}

// newLoopFleet builds nnodes windowed machines over an n-rank space, all on
// the engine at layout l.
func newLoopFleet(tb testing.TB, n, nnodes int, l layout, cost CostModel) *loopFleet {
	tb.Helper()
	f := &loopFleet{announced: map[uint64]int{}}
	for node := 0; node < nnodes; node++ {
		t, err := newWorkerTransport(&loopIO{f: f, node: node}, node, n, nnodes, 1)
		if err != nil {
			tb.Fatal(err)
		}
		if lo, hi := t.LocalRanks(); lo != node*n/nnodes || hi != (node+1)*n/nnodes {
			tb.Fatalf("node %d window = [%d, %d)", node, lo, hi)
		}
		m := NewWithTransport(t, cost)
		m.SetExecutor(l.new())
		f.trs = append(f.trs, t)
		f.ms = append(f.ms, m)
		f.reports = append(f.reports, make(chan struct{}, 1))
		f.announces = append(f.announces, make(chan struct{}, 1))
	}
	return f
}

// start runs body on every node's machine (each executes its own window)
// and returns a function that waits for all of them and yields the per-node
// Run errors.
func (f *loopFleet) start(body func(p *Proc) error) (wait func() []error) {
	errs := make([]error, len(f.ms))
	var wg sync.WaitGroup
	for i, m := range f.ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = m.Run(body)
		}()
	}
	return func() []error {
		wg.Wait()
		f.releases.Wait()
		return errs
	}
}

func (f *loopFleet) run(tb testing.TB, body func(p *Proc) error) {
	tb.Helper()
	for node, err := range f.start(body)() {
		if err != nil {
			tb.Fatalf("node %d: %v", node, err)
		}
	}
}

// rebind moves every transport to the next run generation, as the worker
// does between runs (Reset is a no-op on a WorkerTransport), and forgets the
// finished run's announcements and reports — ranks unwinding from a verdict
// re-trigger the stall check as they retire.
func (f *loopFleet) rebind(gen uint64) {
	f.mu.Lock()
	clear(f.announced)
	f.mu.Unlock()
	for node, t := range f.trs {
		t.rebind(gen)
		for _, ch := range []chan struct{}{f.reports[node], f.announces[node]} {
			select {
			case <-ch:
			default:
			}
		}
	}
}

// forEachWindowFleet runs f over 2- and 4-node fleets of n ranks on both
// layouts, and on the engine pinned at two workers (see twoWorkers).
func forEachWindowFleet(t *testing.T, n int, cost CostModel, fn func(t *testing.T, f *loopFleet)) {
	t.Helper()
	for _, l := range []layout{perRank, defaultLayout, twoWorkers} {
		for _, nnodes := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/%dnodes", l.name, nnodes), func(t *testing.T) {
				fn(t, newLoopFleet(t, n, nnodes, l, cost))
			})
		}
	}
}

func TestWindowFIFOPerStream(t *testing.T) {
	// TestConformanceFIFOPerStream's program: with two ranks per node (or
	// one) every stream crosses a window boundary somewhere in the ring.
	forEachWindowFleet(t, 4, Uniform(), func(t *testing.T, f *loopFleet) {
		const rounds = 50
		f.run(t, func(p *Proc) error {
			dst := (p.Rank() + 1) % 4
			src := (p.Rank() + 3) % 4
			for i := 0; i < rounds; i++ {
				p.SendValue(dst, TagOf(1), float64(i))
				p.SendValue(dst, TagOf(2), float64(100+i))
			}
			for i := 0; i < rounds; i++ {
				if v := p.RecvValue(src, TagOf(2)); v != float64(100+i) {
					t.Errorf("tag 2 message %d: got %v", i, v)
				}
			}
			for i := 0; i < rounds; i++ {
				if v := p.RecvValue(src, TagOf(1)); v != float64(i) {
					t.Errorf("tag 1 message %d: got %v", i, v)
				}
			}
			return nil
		})
	})
}

func TestWindowAllPairsTraffic(t *testing.T) {
	// Every ordered pair exchanges a distinct payload, intra-window and
	// across every window boundary in both directions.
	forEachWindowFleet(t, 8, Balanced(), func(t *testing.T, f *loopFleet) {
		f.run(t, func(p *Proc) error {
			me, n := p.Rank(), p.Size()
			for dst := 0; dst < n; dst++ {
				if dst != me {
					p.Send(dst, TagOf(uint16(me)), []float64{float64(me*1000 + dst)})
				}
			}
			for src := 0; src < n; src++ {
				if src == me {
					continue
				}
				got := p.Recv(src, TagOf(uint16(src)))
				if len(got) != 1 || got[0] != float64(src*1000+me) {
					t.Errorf("pair %d->%d: got %v", src, me, got)
				}
				p.ReleaseBuf(got)
			}
			return nil
		})
	})
}

func TestWindowIdenticalToShared(t *testing.T) {
	// The conformance program over windowed machines: each node's ranks
	// reach the values, statistics and clocks the same ranks reach on one
	// shared machine, bit for bit — and again after a rebind, on the rank
	// goroutines the first run started.
	const n = 8
	ref := New(n, IPSC2())
	wantValues, wantStats, _, err := conformanceProgram(ref)
	if err != nil {
		t.Fatal(err)
	}
	forEachWindowFleet(t, n, IPSC2(), func(t *testing.T, f *loopFleet) {
		for gen := uint64(1); gen <= 2; gen++ {
			if gen > 1 {
				f.rebind(gen)
			}
			var wg sync.WaitGroup
			for node, m := range f.ms {
				wg.Add(1)
				go func() {
					defer wg.Done()
					values, stats, _, err := conformanceProgram(m)
					if err != nil {
						t.Errorf("gen %d node %d: %v", gen, node, err)
						return
					}
					wantStarts := 0
					if gen == 1 {
						wantStarts = f.trs[node].hi - f.trs[node].lo
					}
					if got := m.CalendarStats().Starts; got != wantStarts {
						t.Errorf("gen %d node %d: %d rank continuations started, want %d", gen, node, got, wantStarts)
					}
					for r := f.trs[node].lo; r < f.trs[node].hi; r++ {
						if values[r] != wantValues[r] {
							t.Errorf("gen %d rank %d: value %v, shared %v", gen, r, values[r], wantValues[r])
						}
						if stats[r] != wantStats[r] {
							t.Errorf("gen %d rank %d: stats %+v, shared %+v", gen, r, stats[r], wantStats[r])
						}
						if got, want := m.ProcClock(r), ref.ProcClock(r); got != want {
							t.Errorf("gen %d rank %d: clock %v, shared %v", gen, r, got, want)
						}
					}
				}()
			}
			wg.Wait()
		}
	})
}

func TestWindowBarrier(t *testing.T) {
	// No rank leaves host-barrier generation g before every rank of every
	// window has entered it, over repeated generations mixed with receives
	// (so mailbox parking and barrier parking alternate on the calendar).
	const n, gens = 8, 5
	forEachWindowFleet(t, n, Uniform(), func(t *testing.T, f *loopFleet) {
		var entered [gens]atomic.Int32
		f.run(t, func(p *Proc) error {
			me := p.Rank()
			acc := float64(me)
			for g := 0; g < gens; g++ {
				p.SendValue((me+1)%n, TagOf(uint16(g)), acc)
				acc += p.RecvValue((me+n-1)%n, TagOf(uint16(g)))
				entered[g].Add(1)
				if !p.Machine().Transport().Barrier(me) {
					return fmt.Errorf("rank %d: barrier gen %d reported down", me, g)
				}
				if got := entered[g].Load(); got != n {
					t.Errorf("rank %d left barrier gen %d with %d/%d entered", me, g, got, n)
				}
			}
			return nil
		})
		for node, tr := range f.trs {
			if got := tr.releasedBarrier(); got != gens {
				t.Errorf("node %d: released generation %d, want %d", node, got, gens)
			}
		}
	})
}

func TestWindowBarrierRejectsRankOutsideWindow(t *testing.T) {
	f := newLoopFleet(t, 4, 2, perRank, Uniform())
	defer func() {
		if recover() == nil {
			t.Error("Barrier(0) on node 1's window [2, 4) did not panic")
		}
	}()
	f.trs[1].Barrier(0)
}

func TestWindowAbortUnblocksReceiversAndBarrier(t *testing.T) {
	// TestConformanceAbortUnblocksReceiversAndBarrier on the upper window,
	// node 1's machine running alone; rebind, not Reset, is what rewinds it.
	f := newLoopFleet(t, 8, 2, perRank, Uniform())
	tr, m := f.trs[1], f.ms[1]
	started := make(chan struct{}, 2)
	done := make(chan error, 1)
	go func() {
		done <- m.Run(func(p *Proc) error {
			switch p.Rank() {
			case 4:
				started <- struct{}{}
				if _, _, ok := tr.Recv(4, 1, TagOf(5)); ok {
					t.Error("Recv succeeded after abort")
				}
			case 6:
				started <- struct{}{}
				if tr.Barrier(6) {
					t.Error("Barrier succeeded after abort")
				}
			}
			return nil
		})
	}()
	<-started
	<-started
	tr.Abort()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !tr.Down() {
		t.Fatal("transport not down after Abort")
	}
	if _, _, ok := tr.Recv(7, 1, TagOf(6)); ok {
		t.Fatal("Recv succeeded on a down transport")
	}
	tr.Reset()
	if !tr.Down() {
		t.Fatal("Reset rewound a WorkerTransport; only rebind may")
	}
	tr.rebind(2)
	if tr.Down() {
		t.Fatal("rebind did not clear the down flag")
	}
}

func TestWindowVerdictUnwindsBlockedRanks(t *testing.T) {
	// A machine-wide deadlock with node 0 parked in a barrier nobody else
	// reaches and the other nodes parked in receives. Each receiving node
	// reports itself stalled and declares nothing; the verdict arriving from
	// outside (declareStall, hostDown) wakes receivers and barrier waiters
	// through whichever engine parked them, with the single-process
	// transports' error text; rebound, the fleet runs clean again.
	reason := errors.New("fleet lost")
	errBarrier := errors.New("barrier reported down")
	forEachWindowFleet(t, 8, Uniform(), func(t *testing.T, f *loopFleet) {
		perNode := 8 / len(f.trs)
		body := func(p *Proc) error {
			if p.Rank() < perNode {
				if !p.Machine().Transport().Barrier(p.Rank()) {
					return errBarrier
				}
				return nil
			}
			p.Recv((p.Rank()+1)%8, TagOf(3))
			return nil
		}
		for gen, down := range []func(*WorkerTransport){
			(*WorkerTransport).declareStall,
			func(tr *WorkerTransport) { tr.hostDown(reason) },
		} {
			if gen > 0 {
				f.rebind(uint64(gen + 1))
			}
			wait := f.start(body)
			await(t, f.announces[0], "node 0's barrier announcement")
			for node := 1; node < len(f.trs); node++ {
				await(t, f.reports[node], fmt.Sprintf("node %d's stall report", node))
				if !f.trs[node].stallStatus() {
					t.Errorf("node %d reported but stallStatus() = false", node)
				}
				if f.trs[node].Down() {
					t.Errorf("node %d declared a stall on its own", node)
				}
			}
			for _, tr := range f.trs {
				down(tr)
			}
			for node, err := range wait() {
				switch {
				case node == 0 && !errors.Is(err, errBarrier):
					t.Errorf("gen %d node 0: err = %v, want the barrier reporting down", gen, err)
				case node > 0 && gen == 0 && !errors.Is(err, ErrDeadlock):
					t.Errorf("gen %d node %d: err = %v, want ErrDeadlock", gen, node, err)
				case node > 0 && gen == 1 && !errors.Is(err, reason):
					t.Errorf("gen %d node %d: err = %v, want the host's reason", gen, node, err)
				}
			}
			if want := fmt.Sprintf("processor %d waiting on (src=%d, tag=%#x)", perNode, perNode+1, TagOf(3)); gen == 0 {
				if err := f.ms[1].RankErrors()[perNode]; err == nil || err.Error() != want+": "+ErrDeadlock.Error() {
					t.Errorf("rank %d: err = %v, want %q + the deadlock cause", perNode, err, want)
				}
			}
		}
		f.rebind(3)
		f.run(t, func(p *Proc) error {
			p.SendValue((p.Rank()+1)%8, TagOf(4), float64(p.Rank()))
			if v := p.RecvValue((p.Rank()+7)%8, TagOf(4)); v != float64((p.Rank()+7)%8) {
				t.Errorf("rank %d after two failed runs: got %v", p.Rank(), v)
			}
			return nil
		})
	})
}

func TestWindowStallStatus(t *testing.T) {
	// stallStatus() is the node's stalled flag: true exactly when every
	// live local rank is blocked and no waiter has a matching message
	// pending — a pending message on another stream does not count — and it
	// changes nothing: the delivery that follows still wakes its receiver.
	forEachWindowFleet(t, 4, Uniform(), func(t *testing.T, f *loopFleet) {
		last := len(f.trs) - 1 // the node owning ranks 2.. (2 nodes) or rank 3 (4 nodes)
		waiter := f.trs[last].lo
		sent, gate := make(chan struct{}), make(chan struct{})
		got := make([]float64, 4)
		wait := f.start(func(p *Proc) error {
			switch me := p.Rank(); {
			case me == 0:
				p.SendValue(waiter, TagOf(9), 5) // not what waiter is parked on
				close(sent)
				<-gate // runnable, just slow: node 0 is not stalled meanwhile
				p.SendValue(waiter, TagOf(1), 7)
			case me == waiter:
				got[me] = p.RecvValue(0, TagOf(1)) + p.RecvValue(0, TagOf(9))
				for r := waiter + 1; r < 4; r++ {
					p.SendValue(r, TagOf(2), got[me])
				}
			case me > waiter:
				got[me] = p.RecvValue(waiter, TagOf(2))
			}
			return nil
		})
		await(t, sent, "rank 0's first send")
		await(t, f.reports[last], "the waiting node's stall report")
		for i := 0; i < 3; i++ {
			if !f.trs[last].stallStatus() {
				t.Fatalf("look %d: every rank of node %d is blocked with nothing matching, stallStatus() = false", i, last)
			}
		}
		if f.trs[last].Down() {
			t.Error("stallStatus() took the transport down")
		}
		if f.trs[0].stallStatus() {
			t.Error("node 0 has a runnable rank, stallStatus() = true")
		}
		mb := &f.trs[last].boxes[0]
		mb.mu.Lock()
		other, waiting := mb.depthLocked(msgKey{src: 0, tag: TagOf(9)}), mb.waiting
		mb.mu.Unlock()
		if other != 1 || !waiting {
			t.Errorf("rank %d: %d messages pending on the other stream, waiting = %v; want 1, true", waiter, other, waiting)
		}
		close(gate)
		for node, err := range wait() {
			if err != nil {
				t.Fatalf("node %d: %v", node, err)
			}
		}
		for r := waiter; r < 4; r++ {
			if got[r] != 12 {
				t.Errorf("rank %d got %v, want 12", r, got[r])
			}
		}
		for node, tr := range f.trs {
			if tr.stallStatus() {
				t.Errorf("node %d: no rank is live, stallStatus() = true", node)
			}
		}
	})
}

func TestWindowStepsMatchBody(t *testing.T) {
	// Seeded Kahn scripts in their step form over windowed machines at two
	// workers: each window is two shared partitions, and every local
	// quiescence checks the window's snapshot against the engine's live
	// count. Each node's ranks reach the values, counters and clocks of the
	// body form on one shared machine, again after a rebind, and leave no
	// mailbox marked waiting.
	const n = 12
	scripts := kahnScripts(rand.New(rand.NewSource(n)), n, 4)
	want, _ := runForm(t, New(n, IPSC2()), scripts, false, nil, nil)
	for _, nnodes := range []int{2, 3} {
		t.Run(fmt.Sprintf("%dnodes", nnodes), func(t *testing.T) {
			f := newLoopFleet(t, n, nnodes, twoWorkers, IPSC2())
			got := kahnResult{values: make([]float64, n)}
			var calls atomic.Int64
			body, step := kahnProgram(t, scripts, &got, &calls, nil, nil)
			for gen := uint64(1); gen <= 2; gen++ {
				if gen > 1 {
					f.rebind(gen)
				}
				calls.Store(0)
				errs := make([]error, nnodes)
				var wg sync.WaitGroup
				for node, m := range f.ms {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[node] = m.RunSteps(body, step)
					}()
				}
				wg.Wait()
				for node, m := range f.ms {
					if errs[node] != nil {
						t.Fatalf("gen %d node %d: %v", gen, node, errs[node])
					}
					if st := m.CalendarStats(); st.Partitions != 2 || st.Starts != 0 {
						t.Errorf("gen %d node %d: %d partitions, %d one-rank goroutines started; want 2 shared partitions", gen, node, st.Partitions, st.Starts)
					}
					if w := waitingLeft(m.Transport()); w != 0 {
						t.Errorf("gen %d node %d: %d mailboxes still marked waiting", gen, node, w)
					}
					for r := f.trs[node].lo; r < f.trs[node].hi; r++ {
						if got.values[r] != want.values[r] || m.ProcStats(r) != want.stats[r] || m.ProcClock(r) != want.clocks[r] {
							t.Errorf("gen %d rank %d: value %v clock %v stats %+v, shared body form %v, %v, %+v", gen, r,
								got.values[r], m.ProcClock(r), m.ProcStats(r), want.values[r], want.clocks[r], want.stats[r])
						}
					}
				}
				if calls.Load() < n {
					t.Errorf("gen %d: %d step calls for %d ranks", gen, calls.Load(), n)
				}
			}
		})
	}
}
