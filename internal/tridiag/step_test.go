package tridiag

import (
	"fmt"
	"testing"

	"repro/internal/darray"
	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/topology"
)

// solveRun is what one run of the solver reports: each system's solution by
// global row, and every processor's counters and clock.
type solveRun struct {
	x      [][]float64
	stats  []machine.Stats
	clocks []float64
	starts int
}

// runSolve solves m variable-coefficient systems of 5P+3 rows on P
// processors under the mapping, in the step form (kf.ExecSteps with the
// job's step, the engine at workers) or, with stepped false, in the body
// form (the job's blocking driver, a partition per rank).
func runSolve(t *testing.T, mapping Mapping, procs, m, workers int, stepped bool) solveRun {
	t.Helper()
	mc := machine.New(procs, machine.IPSC2())
	defer mc.Close()
	mc.SetExecutor(machine.NewCalendarExecutor(workers))
	n := 5*procs + 3
	coeffs := make([][4][]float64, m)
	out := solveRun{x: make([][]float64, m)}
	for j := range coeffs {
		b, a, c, f := randCoeffs(uint64(31*j+procs), n)
		coeffs[j] = [4][]float64{b, a, c, f}
		out.x[j] = make([]float64, n)
	}
	type rankState struct {
		jb    job
		solve Solve
	}
	declare := func(c *kf.Ctx) *rankState {
		st := &rankState{jb: job{mapping: mapping}}
		for _, cf := range coeffs {
			arrs := spread(c, nil6(n), cf[3], cf[0], cf[1], cf[2])
			st.jb.xs = append(st.jb.xs, arrs[0])
			st.jb.fs = append(st.jb.fs, arrs[1])
			st.jb.bs = append(st.jb.bs, arrs[2])
			st.jb.as = append(st.jb.as, arrs[3])
			st.jb.cs = append(st.jb.cs, arrs[4])
		}
		return st
	}
	collect := func(xs []*darray.Array) {
		for j, x := range xs {
			lo := x.Lower(0)
			x.CopyOwned1(out.x[j][lo : lo+x.LocalSize(0)])
		}
	}
	body := func(c *kf.Ctx) error {
		st := declare(c)
		if err := st.jb.on(c); err != nil {
			return err
		}
		collect(st.jb.xs)
		return nil
	}
	states := make([]*rankState, procs)
	step := func(c *kf.Ctx, resume bool) (bool, error) {
		if !resume {
			states[c.P.Rank()] = declare(c)
		}
		st := states[c.P.Rank()]
		done, err := st.jb.stepOn(c, &st.solve)
		if done && err == nil {
			collect(st.jb.xs)
		}
		return done, err
	}
	if !stepped {
		step = nil
	}
	if err := kf.ExecSteps(mc, topology.New1D(procs), body, step); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < procs; r++ {
		out.stats = append(out.stats, mc.ProcStats(r))
		out.clocks = append(out.clocks, mc.ProcClock(r))
	}
	out.starts = mc.CalendarStats().Starts
	return out
}

// TestSolveStepBattery holds the solver's step form — the one
// implementation, whose blocking driver every front end calls — to the
// sequential Thomas solve and to its own body form: under both mappings,
// for 1, 3 and 8 systems on 2, 4 and 8 processors, stepped on 1, 2, 3 and
// P partitions, every solution is SolveSeq's (to rounding), and every
// processor's counters and clock are the body form's, which runs a
// partition per rank. Where a partition holds several ranks the step form
// starts no goroutine per rank.
func TestSolveStepBattery(t *testing.T) {
	for _, mapping := range []Mapping{ShuffleMapping, PackedMapping} {
		for _, procs := range []int{2, 4, 8} {
			for _, m := range []int{1, 3, 8} {
				want := runSolve(t, mapping, procs, m, procs, false)
				n := 5*procs + 3
				for j := 0; j < m; j++ {
					b, a, c, f := randCoeffs(uint64(31*j+procs), n)
					if d := maxDiff(want.x[j], SolveSeq(b, a, c, f)); d > 1e-9 {
						t.Fatalf("%v P=%d m=%d: body form's system %d off SolveSeq by %g", mapping, procs, m, j, d)
					}
				}
				for _, workers := range []int{1, 2, 3, procs} {
					t.Run(fmt.Sprintf("%v/P%d/m%d/workers%d", mapping, procs, m, workers), func(t *testing.T) {
						got := runSolve(t, mapping, procs, m, workers, true)
						for j := range got.x {
							for i := range got.x[j] {
								if got.x[j][i] != want.x[j][i] {
									t.Fatalf("system %d row %d: step form %v, body form %v", j, i, got.x[j][i], want.x[j][i])
								}
							}
						}
						for r := 0; r < procs; r++ {
							if got.stats[r] != want.stats[r] || got.clocks[r] != want.clocks[r] {
								t.Errorf("rank %d: step form %+v at %v, body form %+v at %v", r, got.stats[r], got.clocks[r], want.stats[r], want.clocks[r])
							}
						}
						if workers < procs && got.starts != 0 {
							t.Errorf("the step form started %d goroutines on partitions of several ranks", got.starts)
						}
					})
				}
			}
		}
	}
}
