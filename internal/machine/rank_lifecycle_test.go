package machine

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// The rank lifecycle: a rank's goroutine is started by the first run that
// executes it and then lives as long as its machine, waiting on its gate
// between runs. CalendarStats.Starts is the exact account of it. Close ends
// the goroutines (at once, or as the run in flight ends), a later run starts
// them again, and the garbage collector ends those of a dropped machine.

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

// ranksAlive counts the rank goroutines e keeps.
func ranksAlive(e *calendarExecutor) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	alive := 0
	for _, a := range e.alive {
		if a {
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
	// Both names and the pinned partition counts: the first run starts
	// every rank, a warm run none, and a run after Close all of them again.
	const n = 6
	type engine struct {
		name string
		new  func() Executor
	}
	engines := []engine{
		{"goroutine", newDefaultExecutor},
		{"calendar", func() Executor { return NewCalendarExecutor(0) }},
	}
	for _, workers := range []int{1, 2, 3, n} {
		engines = append(engines, engine{fmt.Sprintf("%dworkers", workers), func() Executor { return NewCalendarExecutor(workers) }})
	}
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
					t.Errorf("run %d started %d rank goroutines, want %d", run, got, want)
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

func TestRankLifecycleGoexit(t *testing.T) {
	// Rank 0 leaves its goroutine with runtime.Goexit while the others wait
	// for its message. That must surface as rank 0's error and abort the
	// run, like a panic, not hang it (the token would die with the
	// goroutine) or report success; the next run replaces the one goroutine
	// and is bit-identical to a fresh machine's.
	const n = 4
	for _, name := range ExecutorNames() {
		t.Run(name, func(t *testing.T) {
			m := New(n, Uniform())
			setExecutorByName(t, m, name)
			err := runWithin(t, m, func(p *Proc) error {
				if p.Rank() == 0 {
					runtime.Goexit()
				}
				p.Recv(0, 9)
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "processor 0 called runtime.Goexit") {
				t.Fatalf("err = %v, want rank 0's Goexit", err)
			}
			wantVals, wantClocks := ringRun(t, New(n, Uniform()))
			vals, clocks := ringRun(t, m)
			if got := m.CalendarStats().Starts; got != 1 {
				t.Errorf("the run after a Goexit started %d rank goroutines, want 1", got)
			}
			for r := range vals {
				if vals[r] != wantVals[r] || clocks[r] != wantClocks[r] {
					t.Errorf("rank %d: %v at %v, fresh machine %v at %v", r, vals[r], clocks[r], wantVals[r], wantClocks[r])
				}
			}
			m.Close()
		})
	}
}

func TestRankLifecycleCloseDuringRun(t *testing.T) {
	// Two Closes race a run in flight: the run completes, its ranks end as
	// it does, and the next run starts them again.
	const n = 4
	for _, name := range ExecutorNames() {
		t.Run(name, func(t *testing.T) {
			m := New(n, Uniform())
			setExecutorByName(t, m, name)
			e := m.exec.(*calendarExecutor)
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
				t.Errorf("%d rank goroutines outlived a run closed in flight", alive)
			}
			ringRun(t, m)
			if got := m.CalendarStats().Starts; got != n {
				t.Errorf("the run after Close started %d rank goroutines, want %d", got, n)
			}
			m.Close()
			m.Close()
			if alive := ranksAlive(e); alive != 0 {
				t.Errorf("%d rank goroutines outlived Close", alive)
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
		t.Errorf("the rebound engine started %d rank goroutines, want 6", got)
	}
	if alive := ranksAlive(e); alive != 6 {
		t.Errorf("%d rank goroutines alive after the rebind, want 6", alive)
	}
	big.SetExecutor(nil)
	if alive := ranksAlive(e); alive != 0 {
		t.Errorf("%d rank goroutines outlived SetExecutor replacing their engine", alive)
	}
}

func TestRankLifecycleDroppedMachine(t *testing.T) {
	// A machine dropped without Close: the engine holds no reference to it
	// between runs, so it becomes garbage, and its cleanup ends the ranks.
	for _, name := range ExecutorNames() {
		t.Run(name, func(t *testing.T) {
			e := func() *calendarExecutor {
				m := New(8, Uniform())
				setExecutorByName(t, m, name)
				ringRun(t, m)
				return m.exec.(*calendarExecutor)
			}()
			if alive := ranksAlive(e); alive != 8 {
				t.Fatalf("%d rank goroutines alive after the run, want 8", alive)
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
