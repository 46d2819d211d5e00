package machine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// The partition battery: the engine block-distributes a step run's ranks
// over its workers, one lock, calendar and token per partition (a body run
// takes a partition per rank). These tests hold every split — one
// partition, two, three, uneven, one rank per partition (a body run's
// layout, which the references below run on) — to every other bit for bit:
// the machine is a Kahn network, so any two schedules of a program are each
// other's reference. They also watch the things only a partitioned
// scheduler can get wrong: two ranks of one partition running at once, a
// quiescence seen twice or while a token is out, a partition with nothing
// to do that spins.

// kahnOp is one step of a rank's script.
type kahnOp struct {
	kind  byte // 's' send, 'r' receive, 'c' compute
	peer  int
	tag   Tag
	words int // payload length of a send; flops of a compute
}

// kahnScripts generates a consistent random program for n ranks: it draws a
// global sequence of events and appends each to the scripts of the ranks it
// involves, a receive always after its send, so executing the scripts in
// generation order is a valid schedule and no schedule can deadlock (sends
// never block). Receives are appended late and out of order, so messages
// wait in mailboxes and ranks wait on streams that are not the next to
// arrive. Every round opens with a ring exchange — r sends to r+1 — so a
// stream crosses every partition boundary whatever the split.
func kahnScripts(rng *rand.Rand, n, rounds int) [][]kahnOp {
	scripts := make([][]kahnOp, n)
	type owed struct {
		dst, src int
		tag      Tag
	}
	var inFlight []owed
	send := func(src, dst int, tag Tag) {
		scripts[src] = append(scripts[src], kahnOp{kind: 's', peer: dst, tag: tag, words: 1 + rng.Intn(6)})
		inFlight = append(inFlight, owed{dst: dst, src: src, tag: tag})
	}
	receiveOne := func() {
		i := rng.Intn(len(inFlight))
		o := inFlight[i]
		inFlight[i] = inFlight[len(inFlight)-1]
		inFlight = inFlight[:len(inFlight)-1]
		scripts[o.dst] = append(scripts[o.dst], kahnOp{kind: 'r', peer: o.src, tag: o.tag})
	}
	for round := 0; round < rounds; round++ {
		for r := 0; r < n; r++ {
			send(r, (r+1)%n, TagOf(1))
		}
		for ev := 0; ev < 4*n; ev++ {
			switch k := rng.Intn(10); {
			case k < 4:
				src, dst := rng.Intn(n), rng.Intn(n)
				if src != dst {
					send(src, dst, TagOf(uint16(2+rng.Intn(3))))
				}
			case k < 8:
				if len(inFlight) > 0 {
					receiveOne()
				}
			default:
				r := rng.Intn(n)
				scripts[r] = append(scripts[r], kahnOp{kind: 'c', words: 1 + rng.Intn(500)})
			}
		}
	}
	for len(inFlight) > 0 {
		receiveOne()
	}
	return scripts
}

// kahnResult is everything a run of the scripts determines.
type kahnResult struct {
	values []float64
	stats  []Stats
	clocks []float64
}

// wantSplit is the partition rule, restated: per = ⌈n / min(workers, n)⌉
// ranks per partition and as many partitions as that needs.
func wantSplit(n, workers int) (per, parts int) {
	per = (n + min(workers, n) - 1) / min(workers, n)
	return per, (n + per - 1) / per
}

// TestCalendarPartitionExclusive runs seeded Kahn programs in their step
// form at every split, twice per machine: the values, counters and clocks
// of a run on one rank per partition, never two ranks of a partition called
// at once, and a scheduler account that balances.
func TestCalendarPartitionExclusive(t *testing.T) {
	if per, parts := wantSplit(10, 4); per != 3 || parts != 4 { // 3, 3, 3, 1
		t.Fatalf("split of 10 over 4 = %d partitions of %d", parts, per)
	}
	if per, parts := wantSplit(7, 5); per != 2 || parts != 4 { // 2, 2, 2, 1: four, not five
		t.Fatalf("split of 7 over 5 = %d partitions of %d", parts, per)
	}
	for _, n := range []int{7, 10, 64, 257} {
		rounds := 6
		if n > 64 {
			rounds = 2
		}
		scripts := kahnScripts(rand.New(rand.NewSource(int64(n))), n, rounds)
		want, _ := runForm(t, New(n, IPSC2()), scripts, false, nil, nil)
		for _, workers := range []int{1, 2, 3, 5, n, 2 * n} {
			t.Run(fmt.Sprintf("n%d/w%d", n, workers), func(t *testing.T) {
				per, parts := wantSplit(n, workers)
				m := New(n, IPSC2())
				m.SetExecutor(NewCalendarExecutor(workers))
				for run := 0; run < 2; run++ { // the second run reuses the partitions
					running := make([]atomic.Int32, parts)
					got, _ := runForm(t, m, scripts, true, func(r int) int { return r / per }, running)
					sameKahn(t, fmt.Sprintf("run %d", run), got, want)
					st := m.CalendarStats()
					if st.Partitions != parts {
						t.Errorf("run %d: %d partitions, want %d", run, st.Partitions, parts)
					}
					// Every park was woken, and every grant started a rank
					// or followed a wake: nothing was resumed for no reason.
					if st.Parks != st.Wakes || st.HandoffGrants+st.FromIdleGrants != int64(n)+st.Wakes {
						t.Errorf("run %d: %+v does not balance for %d ranks", run, st, n)
					}
					if parts == 1 && st.FromIdleGrants != 0 {
						t.Errorf("run %d: %d grants from idle with one partition; only another partition's rank can find it idle", run, st.FromIdleGrants)
					}
				}
			})
		}
	}
}

// checkCountingTransport counts the engine's stall checks and looks at the
// scheduler each time one arrives: the engine owes exactly one per true
// quiescence, made with every token free.
type checkCountingTransport struct {
	Transport
	e      *calendarExecutor
	checks atomic.Int32
	held   atomic.Int32 // checks that arrived while some partition's token was out
}

// tryRecv and stepping pass the wrapped transport's receive attempt
// through, so step programs run as steps over the wrapper.
func (c *checkCountingTransport) tryRecv(dst, src int, tag Tag) ([]float64, float64, recvState) {
	return tryRecvOn(c.Transport, dst, src, tag)
}

func (c *checkCountingTransport) stepping() bool { return canStep(c.Transport) }

func (c *checkCountingTransport) CheckStalled() bool {
	c.checks.Add(1)
	for k := range c.e.parts {
		pt := &c.e.parts[k]
		pt.mu.Lock()
		if pt.busy || len(pt.heap) != 0 {
			c.held.Add(1)
		}
		pt.mu.Unlock()
	}
	return c.Transport.CheckStalled()
}

func TestCalendarQuiescenceFiresOnce(t *testing.T) {
	// The programs run in their step form, the only one that shares
	// partitions; the references run their bodies.
	const n, rounds = 12, 4
	// ring exchanges real traffic among the ranks of [lo, n) first, so the
	// deadlock is reached from a running machine and not from its start.
	ring := func(p *Proc, lo int) {
		span := n - lo
		if span == 1 {
			return
		}
		next, prev := lo+(p.Rank()-lo+1)%span, lo+(p.Rank()-lo+span-1)%span
		for i := 0; i < rounds; i++ {
			p.SendValue(next, TagOf(1), float64(i))
			p.RecvValue(prev, TagOf(1))
		}
	}
	// round and sent are a step rank's place in the ring: the round it is
	// in, and whether it has sent that round's message.
	round, sent := make([]int, n), make([]bool, n)
	var calls atomic.Int64
	// ringStep is the step form of the ranks of [lo, n) running ring and
	// then receiving from unfed(rank), a stream nobody feeds (nil: none).
	ringStep := func(lo int, unfed func(rank int) int) StepFunc {
		return func(p *Proc, resume bool) (bool, error) {
			calls.Add(1)
			me, span := p.Rank(), n-lo
			if me < lo {
				return true, nil
			}
			if !resume {
				round[me], sent[me] = 0, false
			}
			next, prev := lo+(me-lo+1)%span, lo+(me-lo+span-1)%span
			for ; span > 1 && round[me] < rounds; round[me]++ {
				if !sent[me] {
					p.SendValue(next, TagOf(1), float64(round[me]))
					sent[me] = true
				}
				if _, ok := p.TryRecvValue(prev, TagOf(1)); !ok {
					return false, nil
				}
				sent[me] = false
			}
			if unfed == nil {
				return true, nil
			}
			_, ok := p.TryRecv(unfed(me), TagOf(9))
			return ok, nil
		}
	}
	for _, workers := range []int{1, 2, 3, n} {
		per, parts := wantSplit(n, workers)
		lastLo := (parts - 1) * per
		programs := []struct {
			name string
			body func(p *Proc) error
			step StepFunc
		}{
			{"every partition parked", func(p *Proc) error {
				ring(p, 0)
				p.Recv((p.Rank()+1)%n, TagOf(9)) // a cycle nobody feeds
				return nil
			}, ringStep(0, func(r int) int { return (r + 1) % n })},
			{"live ranks in the last partition only", func(p *Proc) error {
				if p.Rank() < lastLo {
					return nil
				}
				ring(p, lastLo)
				p.Recv(0, TagOf(9)) // rank 0 has returned, or never sends
				return nil
			}, ringStep(lastLo, func(int) int { return 0 })},
		}
		for _, prog := range programs {
			t.Run(fmt.Sprintf("w%d/%s", workers, prog.name), func(t *testing.T) {
				calls.Store(0)
				ref := New(n, Uniform())
				wantErr := ref.Run(prog.body)
				if !errors.Is(wantErr, ErrDeadlock) {
					t.Fatalf("body form: err = %v, want ErrDeadlock", wantErr)
				}
				e := NewCalendarExecutor(workers)
				ct := &checkCountingTransport{Transport: NewSharedTransport(n), e: e}
				m := NewWithTransport(ct, Uniform())
				m.SetExecutor(e)
				for run := 1; run <= 2; run++ {
					err := runStepsWithin(t, m, prog.body, prog.step)
					if err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("run %d: err = %v, body form says %v", run, err, wantErr)
					}
					for r, want := range ref.RankErrors() {
						got := m.RankErrors()[r]
						if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
							t.Errorf("run %d rank %d: err = %v, body form says %v", run, r, got, want)
						}
					}
					if got := ct.checks.Load(); got != int32(run) {
						t.Errorf("run %d: %d stall checks so far, want one per deadlock", run, got)
					}
				}
				if got := ct.held.Load(); got != 0 {
					t.Errorf("%d partitions had a token out or a rank runnable when a stall check arrived", got)
				}
				// A clean run has no quiescence before its end, and the
				// end is not one.
				if err := m.RunSteps(func(p *Proc) error { ring(p, 0); return nil }, ringStep(0, nil)); err != nil {
					t.Fatal(err)
				}
				if got := ct.checks.Load(); got != 2 {
					t.Errorf("a clean run made %d stall checks", got-2)
				}
				if calls.Load() == 0 {
					t.Error("the step form never ran")
				}
			})
		}
	}
}

func TestCalendarSkewedActivity(t *testing.T) {
	// Only the first partition's ranks communicate; the rest return at once.
	// The other partitions must run their ranks through and fall idle — one
	// idle transition each, no park, no wake — instead of looking for work.
	// The ring runs in its step form, the only one that shares partitions;
	// the reference runs its body on a partition per rank.
	const n, workers, rounds = 64, 4, 10
	per, parts := wantSplit(n, workers)
	// round and sent are a step rank's continuation: the round it is in,
	// and whether it has sent that round's message.
	round, sent := make([]int, n), make([]bool, n)
	program := func(vals []float64) (func(p *Proc) error, StepFunc) {
		body := func(p *Proc) error {
			me := p.Rank()
			if me >= per {
				return nil
			}
			acc := float64(me)
			for i := 0; i < rounds; i++ {
				p.Compute(10 * (me + 1))
				p.SendValue((me+1)%per, TagOf(uint16(i)), acc)
				acc += p.RecvValue((me+per-1)%per, TagOf(uint16(i)))
			}
			vals[me] = acc
			return nil
		}
		step := func(p *Proc, resume bool) (bool, error) {
			me := p.Rank()
			if me >= per {
				return true, nil
			}
			if !resume {
				round[me], sent[me], vals[me] = 0, false, float64(me)
			}
			for ; round[me] < rounds; round[me]++ {
				i := round[me]
				if !sent[me] {
					p.Compute(10 * (me + 1))
					p.SendValue((me+1)%per, TagOf(uint16(i)), vals[me])
					sent[me] = true
				}
				v, ok := p.TryRecvValue((me+per-1)%per, TagOf(uint16(i)))
				if !ok {
					return false, nil
				}
				vals[me] += v
				sent[me] = false
			}
			return true, nil
		}
		return body, step
	}
	want := make([]float64, n)
	ref := New(n, IPSC2())
	refBody, _ := program(want)
	if err := ref.Run(refBody); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	e := NewCalendarExecutor(workers)
	m := New(n, IPSC2())
	m.SetExecutor(e)
	if err := m.RunSteps(program(got)); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if got[r] != want[r] || m.ProcClock(r) != ref.ProcClock(r) || m.ProcStats(r) != ref.ProcStats(r) {
			t.Errorf("rank %d: value %v clock %v, body form %v at %v", r, got[r], m.ProcClock(r), want[r], ref.ProcClock(r))
		}
	}
	sum := CalendarStats{Partitions: parts} // partitions of several ranks start no rank's goroutine
	for k := range e.parts {
		st := e.parts[k].stats
		sum.add(st)
		if k == 0 {
			if st.Parks == 0 || st.Parks != st.Wakes || st.HandoffGrants != int64(per)+st.Wakes {
				t.Errorf("the busy partition: %+v", st)
			}
			continue
		}
		if want := (CalendarStats{HandoffGrants: int64(per), Idles: 1, MaxDepth: int64(per)}); st != want {
			t.Errorf("partition %d has nothing to wait for: %+v, want %+v", k, st, want)
		}
	}
	if st := m.CalendarStats(); st != sum || st.FromIdleGrants != 0 {
		t.Errorf("CalendarStats() = %+v, partitions sum to %+v", st, sum)
	}
	if st := ref.CalendarStats(); st.Partitions != n {
		t.Errorf("the body form ran %d partitions, want one per rank (%d)", st.Partitions, n)
	}
}

func TestCalendarEmptyWindow(t *testing.T) {
	// A machine whose local window holds no rank has nothing to partition:
	// the run returns at once, without dividing by the rank count.
	m := New(4, Uniform())
	m.lo, m.hi = 2, 2
	m.SetExecutor(NewCalendarExecutor(0))
	err := m.Run(func(p *Proc) error {
		t.Errorf("rank %d ran outside an empty window", p.Rank())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := m.CalendarStats(); st != (CalendarStats{}) {
		t.Errorf("an empty run reports %+v", st)
	}
}
