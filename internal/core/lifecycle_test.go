package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/machine"
)

// settledGoroutines collects garbage until the goroutine count stops
// falling, and returns it: the partition goroutines of machines that earlier
// tests dropped end in cleanups that a collection queues.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for steady := 0; steady < 3; {
		runtime.GC()
		time.Sleep(time.Millisecond)
		if now := runtime.NumGoroutine(); now < n {
			n, steady = now, 0
		} else {
			steady++
		}
	}
	return n
}

func TestRankLifecycleSystemClose(t *testing.T) {
	// A System's rank continuations live between its runs, and Close ends
	// every one of them, on either layout of the engine: "goroutine" pins a
	// worker per rank, "calendar" is the default, min(GOMAXPROCS, n).
	const n = 8
	for _, tr := range []struct {
		name string
		opts []Option
	}{
		{"shared", nil},
		{"federated4", []Option{Transport("federated"), Nodes(4)}},
	} {
		for _, engine := range []struct {
			name    string
			workers int
		}{{"goroutine", n}, {"calendar", 0}} {
			t.Run(tr.name+"/"+engine.name, func(t *testing.T) {
				base := settledGoroutines()
				sys, err := NewSystem(append([]Option{Grid(n)}, tr.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				sys.Machine.SetExecutor(machine.NewCalendarExecutor(engine.workers))
				for i := 0; i < 2; i++ {
					if _, err := sys.RunProgram(shiftProgram(2*n, 0)); err != nil {
						t.Fatal(err)
					}
				}
				if got := runtime.NumGoroutine(); got < base+n {
					t.Errorf("%d goroutines between runs, want the %d ranks' on top of %d", got, n, base)
				}
				if err := sys.Close(); err != nil {
					t.Fatal(err)
				}
				// Close returns once every rank has left its loop; the
				// last few may still be on their way out of the runtime.
				deadline := time.Now().Add(10 * time.Second)
				for got := runtime.NumGoroutine(); got > base; got = runtime.NumGoroutine() {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after Close, %d before the System", got, base)
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}

func TestRankLifecycleWorkerRunEviction(t *testing.T) {
	// A worker run leaving the cache — evicted, or replaced under its key —
	// has its machine closed: its next run starts every rank again, while
	// a cached machine's starts none.
	noop := func(p *machine.Proc) error { return nil }
	var c runCache
	runs := make([]*workerRun, workerRunCacheCap+1)
	for i := range runs {
		runs[i] = &workerRun{m: machine.New(4, machine.Uniform())}
		if err := runs[i].m.Run(noop); err != nil {
			t.Fatal(err)
		}
		c.put(fmt.Sprint(i), runs[i])
	}
	c.put("1", &workerRun{m: machine.New(4, machine.Uniform())})
	for i, r := range runs {
		if err := r.m.Run(noop); err != nil {
			t.Fatal(err)
		}
		want := 0
		if i <= 1 {
			want = 4
		}
		if got := r.m.CalendarStats().Starts; got != want {
			t.Errorf("run %d: %d rank continuations started, want %d", i, got, want)
		}
		r.m.Close()
	}
}
