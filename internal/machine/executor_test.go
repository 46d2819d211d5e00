package machine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
)

// The cross-layout conformance battery: the engine at a worker per rank,
// at its default min(GOMAXPROCS, n), and at the pinned counts 1, 2, 3 and n
// below must drive every registered transport to bit-identical values,
// censuses and virtual times. The machine is a Kahn network, so results are
// a function of the program, not of which host thread ran which rank when:
// any two schedules are each other's reference.

// layout is a worker count the engine is built at, under a test label.
type layout struct {
	name    string
	workers int
}

func (l layout) new() *calendarExecutor { return NewCalendarExecutor(l.workers) }

// The two layouts a battery runs under keep the labels they once had as
// engine names: "goroutine" is a worker per rank (a count above the rank
// count is clamped to it), "calendar" the default, min(GOMAXPROCS, n).
var (
	perRank       = layout{"goroutine", math.MaxInt}
	defaultLayout = layout{"calendar", 0}
	layouts       = []layout{perRank, defaultLayout}
)

// withPinned appends to ls the engine pinned at each worker count.
func withPinned(ls []layout, workers ...int) []layout {
	for _, w := range workers {
		ls = append(ls, layout{fmt.Sprintf("%dworkers", w), w})
	}
	return ls
}

func TestExecutorCrossEngineIdentical(t *testing.T) {
	// The conformance program must produce bit-identical values,
	// per-processor statistics and elapsed virtual time on every
	// (layout, transport) pair — chaos-wrapped transports included.
	const n = 8
	type result struct {
		values  []float64
		stats   []Stats
		elapsed float64
	}
	ref := map[string]result{}
	for _, l := range layouts {
		for _, row := range conformanceRows(t, n) {
			m := NewWithTransport(row.tr, IPSC2())
			m.SetExecutor(l.new())
			v, s, e, runErr := conformanceProgram(m)
			if runErr != nil {
				t.Fatalf("%s on %s: %v", l.name, row.name, runErr)
			}
			cur := result{values: v, stats: s, elapsed: e}
			prev, seen := ref[row.name]
			if !seen {
				ref[row.name] = cur
				continue
			}
			if cur.elapsed != prev.elapsed {
				t.Errorf("%s on %s: elapsed %v != reference %v", l.name, row.name, cur.elapsed, prev.elapsed)
			}
			for r := 0; r < n; r++ {
				if cur.values[r] != prev.values[r] {
					t.Errorf("%s on %s: rank %d value %v != %v", l.name, row.name, r, cur.values[r], prev.values[r])
				}
				if cur.stats[r] != prev.stats[r] {
					t.Errorf("%s on %s: rank %d stats %+v != %+v", l.name, row.name, r, cur.stats[r], prev.stats[r])
				}
			}
		}
	}
}

func TestCalendarSingleWorkerLiveness(t *testing.T) {
	// With one worker token every blocking wait must hand the token to
	// another rank — any lost wakeup or busy-wait deadlocks instantly.
	// The program mixes receives (mailbox parking) with host barriers
	// (barrier parking) across several generations; completing at all is
	// the property under test, on top of value correctness. The
	// conformance row for this liveness pin under GOMAXPROCS=1 is the
	// CI race job's `-cpu 1` run of this whole package.
	const n, rounds = 8, 5
	m := New(n, Uniform())
	m.SetExecutor(NewCalendarExecutor(1))
	var gen atomic.Int32
	err := m.Run(func(p *Proc) error {
		next := (p.Rank() + 1) % n
		prev := (p.Rank() + n - 1) % n
		acc := float64(p.Rank())
		for round := 0; round < rounds; round++ {
			p.SendValue(next, TagOf(uint16(round)), acc)
			acc += p.RecvValue(prev, TagOf(uint16(round)))
			gen.Add(1)
			if !m.Transport().Barrier(p.Rank()) {
				t.Errorf("rank %d: barrier round %d reported down", p.Rank(), round)
			}
			if got := gen.Load(); got < int32((round+1)*n) {
				t.Errorf("rank %d left barrier round %d with %d/%d entered", p.Rank(), round, got, (round+1)*n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The step twin, on the one partition a body run never shares: seeded
	// Kahn scripts (each round opens with a ring exchange, and no barrier,
	// which a step cannot wait in) against their body form on a partition
	// per rank.
	scripts := kahnScripts(rand.New(rand.NewSource(rounds)), n, rounds)
	want, _ := runForm(t, New(n, Uniform()), scripts, false, nil, nil)
	got, _ := runForm(t, m, scripts, true, nil, nil)
	sameKahn(t, "step form on one worker", got, want)
	if st := m.CalendarStats(); st.Partitions != 1 || st.Parks == 0 {
		t.Errorf("the step form on one worker: %+v, want one partition that parked", st)
	}
}

func TestCalendarWorkerCountsAndReuse(t *testing.T) {
	// Every worker count from 1 to beyond GOMAXPROCS completes and computes
	// the same values, and one executor instance is reusable across
	// sequential runs on the same machine.
	const n = 16
	var want []float64
	for _, workers := range []int{0, 1, 2, 3, n, 2 * n} {
		m := New(n, ZeroComm())
		m.SetExecutor(NewCalendarExecutor(workers))
		for run := 0; run < 3; run++ {
			got := make([]float64, n)
			err := m.Run(func(p *Proc) error {
				next := (p.Rank() + 1) % n
				prev := (p.Rank() + n - 1) % n
				p.SendValue(next, 1, float64(p.Rank()))
				got[p.Rank()] = float64(p.Rank())*100 + p.RecvValue(prev, 1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d run %d: %v", workers, run, err)
			}
			if want == nil {
				want = got
				continue
			}
			for r := range got {
				if got[r] != want[r] {
					t.Errorf("workers=%d run %d: rank %d got %v want %v", workers, run, r, got[r], want[r])
				}
			}
		}
	}
}

func TestCalendarDeadlockDetection(t *testing.T) {
	// The quiescence-triggered stall check must reach the same deadlock
	// verdicts with GOMAXPROCS partitions as with one per rank.
	for _, tr := range []Transport{NewSharedTransport(4), NewFederatedTransport(4, 2)} {
		m := NewWithTransport(tr, Uniform())
		// All-blocked cycle.
		err := m.Run(func(p *Proc) error {
			p.Recv((p.Rank()+1)%4, 0)
			return nil
		})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("cycle: err = %v, want ErrDeadlock", err)
		}
		// Peer exits; the lone receiver can never be satisfied.
		err = m.Run(func(p *Proc) error {
			if p.Rank() == 3 {
				p.Recv(0, 0)
			}
			return nil
		})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("peer exit: err = %v, want ErrDeadlock", err)
		}
		// The machine stays usable after both verdicts.
		err = m.Run(func(p *Proc) error {
			if p.Rank() == 0 {
				p.SendValue(1, 1, 42)
			}
			if p.Rank() == 1 {
				if v := p.RecvValue(0, 1); v != 42 {
					t.Errorf("after deadlocks: got %v", v)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCalendarPanicPropagates(t *testing.T) {
	// Rank 0 panics; everyone else blocks on a message only rank 0 could
	// send, so the abort raised by the recovered panic must wake them.
	// (Rank 0 because Run reports the first error in rank order — under any
	// schedule, a lower-ranked waiter's abort error would win.)
	m := New(4, ZeroComm())
	err := m.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			panic("boom")
		}
		p.Recv(0, 9)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "processor 0 panicked: boom") {
		t.Fatalf("err = %v, want the recovered panic from rank 0", err)
	}
}

func TestCalendarChaosRecoveryBitIdentical(t *testing.T) {
	// A lossy chaos transport under the default layout: retransmission
	// must restore exactly the fault-free values, and — because fault
	// draws come from per-pair PRNG streams independent of host
	// interleaving — the whole chaotic run (values and virtual times)
	// must match the same scenario on a worker per rank.
	const n, rounds = 4, 30
	sc := chaos.Scenario{Name: "drop", Seed: 3, Drop: 0.1}

	clean := New(n, IPSC2())
	want := runRing(t, clean, n, rounds)

	gm, _ := chaosMachine(t, "shared", n, 1, sc)
	gm.SetExecutor(perRank.new())
	goroutineVals := runRing(t, gm, n, rounds)
	goroutineElapsed := gm.Elapsed()

	cm, ct := chaosMachine(t, "shared", n, 1, sc)
	calendarVals := runRing(t, cm, n, rounds)
	calendarElapsed := cm.Elapsed()

	for r := 0; r < n; r++ {
		if calendarVals[r] != want[r] {
			t.Errorf("rank %d: calendar chaos value %v != fault-free %v", r, calendarVals[r], want[r])
		}
		if calendarVals[r] != goroutineVals[r] {
			t.Errorf("rank %d: calendar chaos value %v != goroutine chaos %v", r, calendarVals[r], goroutineVals[r])
		}
	}
	if calendarElapsed != goroutineElapsed {
		t.Errorf("calendar chaos elapsed %v != goroutine chaos %v", calendarElapsed, goroutineElapsed)
	}
	if rep := ct.Report(); rep.Drops == 0 {
		t.Error("scenario injected no faults; the test exercised nothing")
	}
}

func TestCalendarChaosFaultAbort(t *testing.T) {
	// An exhausted retry budget declares ErrFaultAbort; the abort must
	// wake parked continuations on both sides of the dead stream.
	const n = 4
	m, _ := chaosMachine(t, "shared", n, 1, chaos.Scenario{Name: "dead", Seed: 1, Drop: 1, MaxRetries: 1})
	err := m.Run(func(p *Proc) error {
		prog := ringProgram(n, 3)
		prog(p)
		return nil
	})
	if !errors.Is(err, ErrFaultAbort) {
		t.Fatalf("err = %v, want ErrFaultAbort", err)
	}
}

func TestCalendarPoolOwnershipStress(t *testing.T) {
	// The worker pool must preserve the single-owner discipline of the
	// per-processor buffer free lists: a rank's buffers are only ever
	// touched from whichever worker goroutine currently holds its token,
	// with a happens-before edge across every token handoff. Run under
	// -race this would flag any unsynchronized handoff. More workers than
	// GOMAXPROCS on small hosts keeps real preemption in play.
	const n, rounds = 32, 20
	m := New(n, ZeroComm())
	m.SetExecutor(NewCalendarExecutor(4))
	for run := 0; run < 2; run++ {
		err := m.Run(func(p *Proc) error {
			next := (p.Rank() + 1) % n
			prev := (p.Rank() + n - 1) % n
			for round := 0; round < rounds; round++ {
				buf := p.AcquireBuf(8)
				for i := range buf {
					buf[i] = float64(p.Rank()*rounds + round)
				}
				p.Send(next, TagOf(uint16(round)), buf)
				in := p.Recv(prev, TagOf(uint16(round)))
				if in[0] != float64(prev*rounds+round) {
					t.Errorf("rank %d round %d: got %v", p.Rank(), round, in[0])
				}
				p.ReleaseBuf(in)
				if round%5 == 4 && !m.Transport().Barrier(p.Rank()) {
					t.Errorf("rank %d: barrier down at round %d", p.Rank(), round)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

func TestCalendarVirtualTimeOrder(t *testing.T) {
	// The calendar grants its single token in virtual-time order: with
	// every rank runnable at distinct clocks, the earliest clock runs
	// first. Observable through a step program where each rank stamps a
	// sequence number on its first call after a clock-advancing phase.
	// Only a step run shares a partition, so only a step run has an order.
	const n = 6
	m := New(n, Uniform())
	m.SetExecutor(NewCalendarExecutor(1))
	order := make([]int, 0, n)
	reported := 0 // the reports the last rank has taken
	err := m.RunSteps(func(p *Proc) error { return errors.New("the body form ran") }, func(p *Proc, resume bool) (bool, error) {
		// Spread the clocks: rank r computes (n-r) units and reports to the
		// last rank, then waits for its release; the last rank releases
		// everyone once all have reported, and the calendar must then grant
		// the token smallest-clock-first, i.e. in reverse rank order.
		me, last := p.Rank(), n-1
		if me == last {
			for ; reported < last; reported++ {
				if _, ok := p.TryRecvValue(reported, 1); !ok {
					return false, nil
				}
			}
			for r := 0; r < last; r++ {
				p.SendValue(r, 2, 0)
			}
			return true, nil
		}
		if !resume {
			p.Compute((n - me) * 100)
			p.SendValue(last, 1, 0)
		}
		if _, ok := p.TryRecvValue(last, 2); !ok {
			return false, nil
		}
		order = append(order, me)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != n-1 {
		t.Fatalf("recorded %d ranks, want %d", len(order), n-1)
	}
	for i, r := range order {
		if r != n-2-i {
			t.Fatalf("post-release execution order %v, want reverse rank order (clock order)", order)
		}
	}
}

// TestCalendarHeapMatchesSort drives one partition's heap directly with a
// seeded sequence of pushes and pops — clocks drawn from a handful of
// values, so most compares are decided by the rank tie-break — and requires
// every pop to return what sorting the pending (clock, rank) pairs
// lexicographically puts first.
func TestCalendarHeapMatchesSort(t *testing.T) {
	const n = 512
	rng := rand.New(rand.NewSource(19))
	var pt calPartition
	clock := make([]float64, n)
	var model []calEntry // pending, unordered
	onHeap := make([]bool, n)
	pop := func(step int) {
		sort.Slice(model, func(i, j int) bool {
			if model[i].clock != model[j].clock {
				return model[i].clock < model[j].clock
			}
			return model[i].rank < model[j].rank
		})
		want := model[0]
		model = model[1:]
		if got := pt.popMin(); got != int(want.rank) {
			t.Fatalf("step %d: popped rank %d, sorted order has rank %d at clock %v first", step, got, want.rank, want.clock)
		}
		onHeap[want.rank] = false
	}
	for step := 0; step < 20000; step++ {
		if r := rng.Intn(n); !onHeap[r] && (rng.Intn(3) > 0 || len(model) == 0) {
			// A rank re-enters at a later clock than it left, as a woken
			// rank does; the clocks collide across ranks all the time.
			clock[r] += float64(rng.Intn(4))
			x := calEntry{clock: clock[r], rank: int32(r)}
			pt.push(x)
			model = append(model, x)
			onHeap[r] = true
		} else if len(model) > 0 {
			pop(step)
		}
		if len(pt.heap) != len(model) {
			t.Fatalf("step %d: heap holds %d entries, model %d", step, len(pt.heap), len(model))
		}
	}
	for len(model) > 0 {
		pop(-1)
	}
	if len(pt.heap) != 0 {
		t.Fatalf("drained heap still holds %d entries", len(pt.heap))
	}
}
