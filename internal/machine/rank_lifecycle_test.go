package machine

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// The rank lifecycle: a body rank's continuation — the goroutine of the
// partition it holds alone — is created by the first run that executes it
// and then lives as long as its machine, waiting on its gate between runs.
// CalendarStats.Starts is the exact account of it. Close ends them (at once,
// or as the run in flight ends), a later run creates them again, and the
// garbage collector ends those of a dropped machine.

// ringRun runs a one-message ring with compute on m and returns the values
// and clocks it leaves, failing the test on an error.
func ringRun(t *testing.T, m *Machine) (vals, clocks []float64) {
	t.Helper()
	n := m.Size()
	vals = make([]float64, n)
	err := m.Run(func(p *Proc) error {
		me := p.Rank()
		p.Compute(10 * (me + 1))
		p.SendValue((me+1)%n, 1, float64(me))
		vals[me] = float64(me)*100 + p.RecvValue((me+n-1)%n, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	clocks = make([]float64, n)
	for r := range clocks {
		clocks[r] = m.ProcClock(r)
	}
	return vals, clocks
}

// ranksAlive counts the rank continuations e keeps: the goroutines of
// partitions that hold one rank.
func ranksAlive(e *calendarExecutor) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	alive := 0
	for k := range e.cuts[0].parts {
		if e.cuts[0].parts[k].alive {
			alive++
		}
	}
	return alive
}

// runWithin runs body on m and fails the test if the run does not return
// within the deadline: a lost token hangs it.
func runWithin(t *testing.T, m *Machine, body func(p *Proc) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- m.Run(body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("run never returned")
		return nil
	}
}

func TestRankLifecycleStarts(t *testing.T) {
	// Both layouts and the pinned partition counts: the first run starts
	// every rank, a warm run none, and a run after Close all of them again.
	const n = 6
	engines := withPinned(layouts, 1, 2, 3, n)
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			m := New(n, Uniform())
			m.SetExecutor(eng.new())
			wantVals, wantClocks := ringRun(t, New(n, Uniform()))
			for run, want := range []int{n, 0, 0, n} {
				if run == 3 {
					m.Close()
				}
				vals, clocks := ringRun(t, m)
				if got := m.CalendarStats().Starts; got != want {
					t.Errorf("run %d started %d rank continuations, want %d", run, got, want)
				}
				for r := range vals {
					if vals[r] != wantVals[r] || clocks[r] != wantClocks[r] {
						t.Errorf("run %d rank %d: %v at %v, fresh machine %v at %v", run, r, vals[r], clocks[r], wantVals[r], wantClocks[r])
					}
				}
			}
			m.Close()
		})
	}
}

// goroutinesBackTo waits for the goroutine count to fall to base, failing
// the test if it does not: Close returns once every partition goroutine has
// left its loop, but the last few may still be on their way out of the
// runtime.
func goroutinesBackTo(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for got := runtime.NumGoroutine(); got > base; got = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the machine", got, base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRankLifecycleGoexit(t *testing.T) {
	// A rank leaves its body with runtime.Goexit once it has parked, while
	// the others wait for its message. That must surface as the rank's
	// error and abort the run, like a panic, not hang it (the token would
	// die with the goroutine) or report success, on both layouts and at
	// the ranks that would be first, middle and last of a step run's
	// partition at 1, 2 and 3 workers. The next run recreates the one
	// continuation and is bit-identical to a fresh machine's, and Close
	// leaves no goroutine behind.
	const n = 9
	type goexitCase struct {
		layout
		rank int
	}
	cases := []goexitCase{{perRank, 0}, {defaultLayout, 0}}
	for _, workers := range []int{1, 2, 3} {
		per := (n + workers - 1) / workers // partition 0 is ranks [0, per)
		for _, at := range []struct {
			name string
			rank int
		}{{"first", 0}, {"middle", per / 2}, {"last", per - 1}} {
			eng := withPinned(nil, workers)[0]
			eng.name += "/" + at.name
			cases = append(cases, goexitCase{eng, at.rank})
		}
	}
	wantVals, wantClocks := ringRun(t, New(n, Uniform()))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			m := New(n, Uniform())
			m.SetExecutor(tc.new())
			err := runWithin(t, m, func(p *Proc) error {
				// A chain down the ranks: every rank but the last waits
				// for its upper neighbour, which runs after it on its
				// partition, and the last waits for rank 0.
				me := p.Rank()
				if me < n-1 {
					p.RecvValue(me+1, 1)
				}
				p.SendValue((me+n-1)%n, 1, float64(me))
				if me == n-1 {
					p.RecvValue(0, 1)
				}
				if me == tc.rank {
					runtime.Goexit()
				}
				p.Recv(tc.rank, 9)
				return nil
			})
			want := fmt.Sprintf("processor %d called runtime.Goexit", tc.rank)
			if err == nil || !strings.Contains(fmt.Sprint(m.RankErrors()[tc.rank]), want) {
				t.Fatalf("err = %v, rank %d's %v, want its Goexit", err, tc.rank, m.RankErrors()[tc.rank])
			}
			vals, clocks := ringRun(t, m)
			if got := m.CalendarStats().Starts; got != 1 {
				t.Errorf("the run after a Goexit started %d rank continuations, want 1", got)
			}
			for r := range vals {
				if vals[r] != wantVals[r] || clocks[r] != wantClocks[r] {
					t.Errorf("rank %d: %v at %v, fresh machine %v at %v", r, vals[r], clocks[r], wantVals[r], wantClocks[r])
				}
			}
			m.Close()
			goroutinesBackTo(t, base)
		})
	}
}

func TestRankLifecycleLockedCaller(t *testing.T) {
	// The caller of Run and Close may hold its OS thread, as the ipc
	// worker's main goroutine does while still in init: Run, Run, Close,
	// Run, Close from a locked goroutine match a fresh machine.
	const n = 6
	engines := withPinned([]layout{perRank}, 1, 2, 3)
	wantVals, wantClocks := ringRun(t, New(n, Uniform()))
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			m := New(n, Uniform())
			m.SetExecutor(eng.new())
			for step := 0; step < 5; step++ {
				if step == 2 || step == 4 {
					m.Close()
					continue
				}
				vals, clocks := ringRun(t, m)
				for r := range vals {
					if vals[r] != wantVals[r] || clocks[r] != wantClocks[r] {
						t.Errorf("step %d rank %d: %v at %v, fresh machine %v at %v", step, r, vals[r], clocks[r], wantVals[r], wantClocks[r])
					}
				}
			}
		})
	}
}

func TestRankLifecycleCloseDuringRun(t *testing.T) {
	// Two Closes race a run in flight: the run completes, its ranks end as
	// it does, and the next run starts them again.
	const n = 4
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			m := New(n, Uniform())
			e := l.new()
			m.SetExecutor(e)
			ringRun(t, m)
			inRun, release := make(chan struct{}), make(chan struct{})
			done := make(chan error, 1)
			go func() {
				done <- m.Run(func(p *Proc) error {
					if p.Rank() == 0 {
						close(inRun)
						<-release
						p.SendValue(1, 1, 7)
					} else if p.Rank() == 1 {
						p.RecvValue(0, 1)
					}
					return nil
				})
			}()
			<-inRun
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					m.Close()
				}()
			}
			wg.Wait()
			close(release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if alive := ranksAlive(e); alive != 0 {
				t.Errorf("%d rank continuations outlived a run closed in flight", alive)
			}
			ringRun(t, m)
			if got := m.CalendarStats().Starts; got != n {
				t.Errorf("the run after Close started %d rank continuations, want %d", got, n)
			}
			m.Close()
			m.Close()
			if alive := ranksAlive(e); alive != 0 {
				t.Errorf("%d rank continuations outlived Close", alive)
			}
		})
	}
}

func TestRankLifecycleRebind(t *testing.T) {
	// One engine moved to a machine of another size ends the first
	// machine's ranks before it starts the second's; SetExecutor closes the
	// engine it replaces.
	e := NewCalendarExecutor(2)
	small, big := New(4, Uniform()), New(6, Uniform())
	small.SetExecutor(e)
	ringRun(t, small)
	big.SetExecutor(e)
	ringRun(t, big)
	if got := big.CalendarStats().Starts; got != 6 {
		t.Errorf("the rebound engine started %d rank continuations, want 6", got)
	}
	if alive := ranksAlive(e); alive != 6 {
		t.Errorf("%d rank continuations alive after the rebind, want 6", alive)
	}
	big.SetExecutor(nil)
	if alive := ranksAlive(e); alive != 0 {
		t.Errorf("%d rank continuations outlived SetExecutor replacing their engine", alive)
	}
}

func TestRankLifecycleDroppedMachine(t *testing.T) {
	// A machine dropped without Close: the engine holds no reference to it
	// between runs, so it becomes garbage, and its cleanup ends the ranks.
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			e := l.new()
			func() {
				m := New(8, Uniform())
				m.SetExecutor(e)
				ringRun(t, m)
			}()
			if alive := ranksAlive(e); alive != 8 {
				t.Fatalf("%d rank continuations alive after the run, want 8", alive)
			}
			deadline := time.Now().Add(30 * time.Second)
			for ranksAlive(e) != 0 {
				if time.Now().After(deadline) {
					t.Fatal("the ranks of a dropped machine outlived its collection")
				}
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
		})
	}
}

func TestCalendarLockedBodyMayBlock(t *testing.T) {
	// A body rank has its partition's goroutine to itself, so a body that
	// holds its OS thread may block: every rank locks its thread and then
	// waits in a ring of receives, on a worker per rank and on one, and
	// the run matches the same ring unlocked.
	const n = 8
	ring := func(vals []float64, lock bool) func(p *Proc) error {
		return func(p *Proc) error {
			if lock {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			me := p.Rank()
			p.Compute(10 * (me + 1))
			if me > 0 {
				vals[me] = p.RecvValue(me-1, 1)
			}
			p.SendValue((me+1)%n, 1, float64(me)+vals[me])
			if me == 0 {
				vals[me] = p.RecvValue(n-1, 1)
			}
			return nil
		}
	}
	want := make([]float64, n)
	ref := New(n, Uniform())
	if err := ref.Run(ring(want, false)); err != nil {
		t.Fatal(err)
	}
	for _, eng := range withPinned([]layout{perRank}, 1) {
		t.Run(eng.name, func(t *testing.T) {
			m := New(n, Uniform())
			m.SetExecutor(eng.new())
			defer m.Close()
			got := make([]float64, n)
			if err := runWithin(t, m, ring(got, true)); err != nil {
				t.Fatal(err)
			}
			if st := m.CalendarStats(); st.Parks == 0 {
				t.Errorf("no rank parked: %+v", st)
			}
			for r := range got {
				if got[r] != want[r] || m.ProcClock(r) != ref.ProcClock(r) {
					t.Errorf("rank %d: %v at %v, unlocked %v at %v", r, got[r], m.ProcClock(r), want[r], ref.ProcClock(r))
				}
			}
		})
	}
}
