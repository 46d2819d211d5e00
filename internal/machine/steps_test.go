package machine

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
)

// The step battery: a program that offers a step form runs as step rows —
// resumed by a call of its partition's goroutine, with no stack of its own
// — and must be its body form in every observable: values, counters,
// clocks and error texts.

// kahnProgram is the scripts' interpreter in both forms: a body that waits
// where a receive finds no message, and the step form with the same
// arithmetic, its continuation (the next op and the accumulator) kept per
// rank. Each rank folds what it receives into its accumulator and sends
// values derived from it, so a message matched to the wrong receive changes
// every value downstream. res receives what a run determines; steps counts
// the step calls; running, when non-nil, is the per-partition count of
// ranks inside a call, which must never exceed one.
func kahnProgram(t *testing.T, scripts [][]kahnOp, res *kahnResult, steps *atomic.Int64, partOf func(int) int, running []atomic.Int32) (func(*Proc) error, StepFunc) {
	n := len(scripts)
	pos := make([]int, n)
	acc := make([]float64, n)
	op := func(p *Proc, i int) bool {
		me, o := p.Rank(), scripts[p.Rank()][i]
		switch o.kind {
		case 's':
			buf := p.AcquireBuf(o.words)
			for j := range buf {
				buf[j] = acc[me] + float64(i+j)
			}
			p.Send(o.peer, o.tag, buf)
		case 'r':
			in, ok := p.TryRecv(o.peer, o.tag)
			if !ok {
				return false
			}
			for _, v := range in {
				acc[me] = acc[me]*0.5 + v
			}
			p.ReleaseBuf(in)
		case 'c':
			p.Compute(o.words)
			acc[me] += float64(o.words)
		}
		return true
	}
	body := func(p *Proc) error {
		me := p.Rank()
		acc[me] = float64(me + 1)
		for i := range scripts[me] {
			for !op(p, i) {
				p.Wait()
			}
		}
		res.values[me] = acc[me]
		return nil
	}
	step := func(p *Proc, resume bool) (bool, error) {
		me := p.Rank()
		steps.Add(1)
		if running != nil {
			slot := &running[partOf(me)]
			if now := slot.Add(1); now != 1 {
				t.Errorf("rank %d called while %d ranks of partition %d were running", me, now-1, partOf(me))
			}
			defer slot.Add(-1)
		}
		if !resume {
			pos[me], acc[me] = 0, float64(me+1)
		}
		for ; pos[me] < len(scripts[me]); pos[me]++ {
			if !op(p, pos[me]) {
				return false, nil
			}
		}
		res.values[me] = acc[me]
		return true, nil
	}
	return body, step
}

// runForm runs the scripts on m in the step form (steps true) or the body
// form and returns what the run determined and how many step calls it made.
func runForm(t *testing.T, m *Machine, scripts [][]kahnOp, steps bool, partOf func(int) int, running []atomic.Int32) (kahnResult, int64) {
	t.Helper()
	n := len(scripts)
	res := kahnResult{values: make([]float64, n), stats: make([]Stats, n), clocks: make([]float64, n)}
	var calls atomic.Int64
	body, step := kahnProgram(t, scripts, &res, &calls, partOf, running)
	if !steps {
		step = nil
	}
	if err := m.RunSteps(body, step); err != nil {
		t.Fatal(err)
	}
	// Every published wait was withdrawn, however many times its rank
	// retried the receive.
	if w := waitingLeft(m.tr); w != 0 {
		t.Errorf("%d mailboxes still marked waiting after a clean run", w)
	}
	for r := 0; r < n; r++ {
		res.stats[r], res.clocks[r] = m.ProcStats(r), m.ProcClock(r)
	}
	return res, calls.Load()
}

// waitingLeft counts the mailboxes of tr's core (or of a chaos wrapper's
// base) that are marked waiting.
func waitingLeft(tr Transport) int {
	if c, ok := tr.(*ChaosTransport); ok {
		tr = c.base
	}
	s := tr.(interface{ core() *boxSet }).core()
	w := 0
	for i := range s.boxes {
		mb := &s.boxes[i]
		mb.mu.Lock()
		if mb.waiting {
			w++
		}
		mb.mu.Unlock()
	}
	return w
}

// core returns the mailbox core a transport embeds.
func (s *boxSet) core() *boxSet { return s }

func sameKahn(t *testing.T, what string, got, want kahnResult) {
	t.Helper()
	for r := range want.values {
		if got.values[r] != want.values[r] || got.stats[r] != want.stats[r] || got.clocks[r] != want.clocks[r] {
			t.Errorf("%s rank %d: value %v clock %v stats %+v, body form %v, %v, %+v", what, r,
				got.values[r], got.clocks[r], got.stats[r], want.values[r], want.clocks[r], want.stats[r])
		}
	}
}

// TestCalendarStepsMatchBody runs seeded Kahn programs in their step form at
// every split of the ranks, twice per machine, against the body form on the
// same engine: the same values, counters and clocks, never two ranks of a
// partition called at once, no goroutine started per rank on partitions of
// several, and a scheduler account that balances.
func TestCalendarStepsMatchBody(t *testing.T) {
	for _, n := range []int{7, 10, 64, 257} {
		rounds := 6
		if n > 64 {
			rounds = 2
		}
		scripts := kahnScripts(rand.New(rand.NewSource(int64(n))), n, rounds)
		want, _ := runForm(t, New(n, IPSC2()), scripts, false, nil, nil)
		for _, workers := range []int{1, 2, 3, 5, n} {
			t.Run(fmt.Sprintf("n%d/w%d", n, workers), func(t *testing.T) {
				per, parts := wantSplit(n, workers)
				ref := New(n, IPSC2())
				ref.SetExecutor(NewCalendarExecutor(workers))
				bodyRun, _ := runForm(t, ref, scripts, false, nil, nil)
				sameKahn(t, "body form", bodyRun, want)

				m := New(n, IPSC2())
				e := NewCalendarExecutor(workers)
				m.SetExecutor(e)
				for run := 0; run < 2; run++ {
					running := make([]atomic.Int32, parts)
					got, calls := runForm(t, m, scripts, true, func(r int) int { return r / per }, running)
					sameKahn(t, fmt.Sprintf("run %d", run), got, want)
					st := m.CalendarStats()
					// A call starts each rank and follows each wake, or
					// a park that found a wake pending (a second message
					// on a stream its rank was still marked waiting on).
					if calls < int64(n)+st.Wakes {
						t.Errorf("run %d: %d step calls for %d ranks and %d wakes", run, calls, n, st.Wakes)
					}
					if st.Parks != st.Wakes || st.HandoffGrants+st.FromIdleGrants != int64(n)+st.Wakes || st.Partitions != parts {
						t.Errorf("run %d: %+v does not balance for %d ranks on %d partitions", run, st, n, parts)
					}
					wantStarts := 0
					if per == 1 && run == 0 {
						wantStarts = n // the partition goroutines, started once
					}
					if st.Starts != wantStarts {
						t.Errorf("run %d: Starts = %d, want %d", run, st.Starts, wantStarts)
					}
				}
				if alive := ranksAlive(e); per > 1 && alive != 0 {
					t.Errorf("%d one-rank partitions alive after step runs on partitions of %d", alive, per)
				}
				m.Close()
			})
		}
	}
}

// TestCalendarStepsFailLikeBody holds a step rank's failures to the body
// form's texts, at one partition, two and one per rank: a receive nobody
// feeds (a deadlock, detected once per quiescence), a panic, a Goexit at
// the first, middle and last rank of a partition; the machine's next run
// is then clean. A step that blocks instead of returning, or returns
// unfinished with nothing to wait for, fails its rank.
func TestCalendarStepsFailLikeBody(t *testing.T) {
	const n = 6
	programs := []struct {
		name string
		// at is the program at resume point k: it reports whether it got
		// past it; the body form waits on a false. Only the failure is
		// allowed to stop a rank, so every split fails the same ranks.
		at   func(p *Proc, k int) bool
		want string
	}{
		{"unfed receive", func(p *Proc, k int) bool {
			switch k {
			case 0:
				p.SendValue((p.Rank()+1)%n, TagOf(1), 1)
				return true
			case 1:
				_, ok := p.TryRecv((p.Rank()+n-1)%n, TagOf(1))
				return ok
			}
			_, ok := p.TryRecv((p.Rank()+1)%n, TagOf(9))
			return ok
		}, "deadlock"},
		{"panic after a park", func(p *Proc, k int) bool {
			switch {
			case p.Rank() == 1 && k == 0:
				p.Compute(100)
				p.SendValue(0, TagOf(1), 1)
			case p.Rank() == 0 && k == 0:
				_, ok := p.TryRecv(1, TagOf(1))
				return ok
			case p.Rank() == 0 && k == 1:
				panic("step failed")
			}
			return true
		}, "processor 0 panicked: step failed"},
		{"goexit", func(p *Proc, k int) bool {
			if k == 1 && (p.Rank() == 0 || p.Rank() == 2 || p.Rank() == n-1) {
				runtime.Goexit()
			}
			p.Compute(10)
			return true
		}, "processor 0 called runtime.Goexit"},
	}
	for _, workers := range []int{1, 2, n} {
		for _, prog := range programs {
			t.Run(fmt.Sprintf("w%d/%s", workers, prog.name), func(t *testing.T) {
				const points = 3
				pos := make([]int, n)
				body := func(p *Proc) error {
					for k := 0; k < points; k++ {
						for !prog.at(p, k) {
							p.Wait()
						}
					}
					return nil
				}
				var calls atomic.Int64
				step := func(p *Proc, resume bool) (bool, error) {
					calls.Add(1)
					if !resume {
						pos[p.Rank()] = 0
					}
					for ; pos[p.Rank()] < points; pos[p.Rank()]++ {
						if !prog.at(p, pos[p.Rank()]) {
							return false, nil
						}
					}
					return true, nil
				}
				ref := New(n, Uniform())
				ref.SetExecutor(NewCalendarExecutor(workers))
				wantErr := runStepsWithin(t, ref, body, nil)
				if wantErr == nil || !strings.Contains(wantErr.Error(), prog.want) {
					t.Fatalf("body form: err = %v, want %q", wantErr, prog.want)
				}
				e := NewCalendarExecutor(workers)
				ct := &checkCountingTransport{Transport: NewSharedTransport(n), e: e}
				m := NewWithTransport(ct, Uniform())
				m.SetExecutor(e)
				for run := 1; run <= 2; run++ {
					err := runStepsWithin(t, m, body, step)
					if err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("run %d: err = %v, body form says %v", run, err, wantErr)
					}
					for r, want := range ref.RankErrors() {
						got := m.RankErrors()[r]
						if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
							t.Errorf("run %d rank %d: err = %v, body form says %v", run, r, got, want)
						}
					}
				}
				if calls.Load() == 0 {
					t.Fatal("the step form never ran")
				}
				if prog.want == "deadlock" && ct.checks.Load() != 2 {
					t.Errorf("%d stall checks over two deadlocked runs, want one each", ct.checks.Load())
				}
				if got := ct.held.Load(); got != 0 {
					t.Errorf("%d partitions had a token out or a rank runnable when a stall check arrived", got)
				}
				vals, clocks := ringRun(t, m)
				wantVals, wantClocks := ringRun(t, New(n, Uniform()))
				for r := range vals {
					if vals[r] != wantVals[r] || clocks[r] != wantClocks[r] {
						t.Errorf("after the failure, rank %d: %v at %v, fresh machine %v at %v", r, vals[r], clocks[r], wantVals[r], wantClocks[r])
					}
				}
				m.Close()
			})
		}
	}
	// A step that blocks instead of returning, or returns unfinished with
	// no receive to wait on, fails its rank under every split, rather than
	// parking a rank with no stack or one nothing will wake.
	for _, bad := range []struct {
		step StepFunc
		want string
	}{
		{func(p *Proc, resume bool) (bool, error) {
			if p.Rank() == 1 {
				p.Recv(0, TagOf(5))
			}
			return true, nil
		}, "processor 1 panicked: machine: processor 1 blocked inside its step"},
		{func(p *Proc, resume bool) (bool, error) {
			return p.Rank() != 2, nil
		}, "processor 2 panicked: machine: processor 2's step returned unfinished with no receive to wait for"},
	} {
		for _, workers := range []int{1, 2, n} {
			m := New(n, Uniform())
			m.SetExecutor(NewCalendarExecutor(workers))
			err := runStepsWithin(t, m, func(p *Proc) error { return nil }, bad.step)
			if err == nil || !strings.Contains(err.Error(), bad.want) {
				t.Errorf("w%d: err = %v, want %q", workers, err, bad.want)
			}
			m.Close()
		}
	}
}

// runStepsWithin is runWithin for RunSteps.
func runStepsWithin(t *testing.T, m *Machine, body func(p *Proc) error, step StepFunc) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- m.RunSteps(body, step) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("run never returned")
		return nil
	}
}

// TestCalendarStepsNeedAStepTransport: a chaos wrapper with an active
// scenario cannot answer "would block", so a run there takes the body form
// and reproduces it bit for bit; an inactive wrapper passes steps through.
func TestCalendarStepsNeedAStepTransport(t *testing.T) {
	const n = 8
	scripts := kahnScripts(rand.New(rand.NewSource(3)), n, 4)
	for _, sc := range []chaos.Scenario{{}, {Name: "jitter", Seed: 5, Delay: 1, DelayMax: 1e-3}} {
		ref, _ := chaosMachine(t, "shared", n, 1, sc)
		ref.SetExecutor(NewCalendarExecutor(2))
		want, _ := runForm(t, ref, scripts, false, nil, nil)
		m, _ := chaosMachine(t, "shared", n, 1, sc)
		m.SetExecutor(NewCalendarExecutor(2))
		got, calls := runForm(t, m, scripts, true, nil, nil)
		sameKahn(t, fmt.Sprintf("scenario %q", sc.Name), got, want)
		if stepped := calls > 0; stepped != !sc.Active() {
			t.Errorf("scenario %q (active %v): %d step calls", sc.Name, sc.Active(), calls)
		}
	}
}

// TestCalendarRunKindLayout alternates the two run kinds — the step form
// and the body form of one seeded Kahn program — on one machine at a
// worker per rank (8, labelled "goroutine"), at the default worker count
// and pinned at 1, 2 and 3 workers. Every run matches the reference bit for bit. A body run takes a
// partition per rank and a step run min(workers, n). Switching kinds restarts nothing: the
// machine's first run on partitions of one rank — a body run, or a step run
// with a rank per partition — starts n goroutines, and every run after it
// starts none.
func TestCalendarRunKindLayout(t *testing.T) {
	const n = 8
	scripts := kahnScripts(rand.New(rand.NewSource(41)), n, 4)
	want, _ := runForm(t, New(n, IPSC2()), scripts, false, nil, nil)
	for _, eng := range withPinned([]layout{{"goroutine", n}, defaultLayout}, 1, 2, 3) {
		workers := eng.workers
		if workers == 0 {
			workers = min(runtime.GOMAXPROCS(0), n)
		}
		t.Run(eng.name, func(t *testing.T) {
			m := New(n, IPSC2())
			m.SetExecutor(eng.new())
			defer m.Close()
			_, stepParts := wantSplit(n, workers)
			started := false
			for run := 0; run < 8; run++ {
				steps := run%2 == 0
				got, _ := runForm(t, m, scripts, steps, nil, nil)
				sameKahn(t, fmt.Sprintf("run %d (steps %v)", run, steps), got, want)
				st := m.CalendarStats()
				wantParts := n
				if steps {
					wantParts = stepParts
				}
				if st.Partitions != wantParts {
					t.Errorf("run %d (steps %v): %d partitions, want %d", run, steps, st.Partitions, wantParts)
				}
				wantStarts := 0
				if !started && (!steps || stepParts == n) {
					wantStarts, started = n, true
				}
				if st.Starts != wantStarts {
					t.Errorf("run %d (steps %v): Starts = %d, want %d", run, steps, st.Starts, wantStarts)
				}
			}
		})
	}
}
