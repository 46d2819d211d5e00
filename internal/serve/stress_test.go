package serve_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// The pool's whole premise is that a Reset-reused System is
// indistinguishable from a fresh one. This stress test hammers that claim
// under -race: N goroutines funnel through a size-1 pool — checkout, run,
// return — on every transport, and every run's values and virtual times
// must be bit-identical to a fresh System's. The goroutines alternate
// between two sizes of one program, so a reused System's kept declarations
// (kf.Declared) are hit, rebuilt and hit again in whatever order the pool
// hands Systems out. A size-1 pool maximizes churn: concurrent checkouts
// miss and build, returns beyond capacity evict and Close, so the same
// test also races construction, eviction and teardown against live runs.
func TestPoolReuseBitIdenticalUnderStress(t *testing.T) {
	cases := []struct {
		name       string
		opts       []core.Option
		goroutines int
		iters      int
	}{
		{
			name:       "shared",
			opts:       []core.Option{core.Grid(2, 2)},
			goroutines: 8,
			iters:      6,
		},
		{
			name:       "federated",
			opts:       []core.Option{core.Grid(2, 2), core.Transport("federated"), core.Nodes(2)},
			goroutines: 6,
			iters:      4,
		},
		{
			name:       "ipc",
			opts:       []core.Option{core.Grid(2, 2), core.Transport("ipc"), core.Nodes(2)},
			goroutines: 3,
			iters:      2,
		},
	}
	var progs [2]*core.Program
	for k, n := range []float64{32, 16} {
		var err error
		if progs[k], err = core.BuildProgram("jacobi", n, 2); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// The truth: one run each on a fresh, never-pooled System.
			var want [2]core.Run
			var key string
			for k, prog := range progs {
				fresh, err := core.NewSystem(tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				key = fresh.PoolKey()
				want[k], err = fresh.RunProgram(prog)
				fresh.Close()
				if err != nil {
					t.Fatal(err)
				}
			}

			pool := serve.NewPool(1)
			defer pool.Close()
			var wg sync.WaitGroup
			errs := make(chan error, tc.goroutines*tc.iters)
			for g := 0; g < tc.goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < tc.iters; i++ {
						k := (g + i) % 2
						lease, err := pool.Checkout(key, func() (*core.System, error) {
							return core.NewSystem(tc.opts...)
						})
						if err != nil {
							errs <- err
							return
						}
						run, err := lease.Sys.RunProgram(progs[k])
						if err != nil {
							lease.Discard()
							errs <- err
							return
						}
						lease.Return()
						cmp := core.CompareRuns(want[k], run)
						if !cmp.Identical || !cmp.TimesIdentical {
							errs <- fmt.Errorf("pooled %s run diverged from fresh: values=%v census=%v times=%v",
								progs[k].Name, cmp.ValuesIdentical, cmp.CensusIdentical, cmp.TimesIdentical)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			st := pool.Stats()
			if st.Idle > 1 {
				t.Errorf("size-1 pool holds %d idle systems", st.Idle)
			}
			if st.Hits == 0 {
				t.Error("stress run never reused a warmed system")
			}
		})
	}
}
