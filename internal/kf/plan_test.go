package kf

import (
	"fmt"
	"testing"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/topology"
)

// The Plan API must be observationally identical to the Doall calls it was
// hoisted from — same iteration order, same phase numbering, same
// communication, same virtual times — across strided, reversed, empty and
// multi-dimensional ranges. These tests run the same program both ways on
// fresh machines and require bitwise equality of clocks, statistics and
// gathered results.

type kfCapture struct {
	clocks []float64
	stats  []machine.Stats
	out    []float64
}

func kfRun(t *testing.T, n int, g *topology.Grid, prog func(c *Ctx) []float64) kfCapture {
	t.Helper()
	m := machine.New(n, machine.IPSC2())
	cap := kfCapture{clocks: make([]float64, n), stats: make([]machine.Stats, n)}
	err := Exec(m, g, func(c *Ctx) error {
		out := prog(c)
		if c.P.Rank() == 0 {
			cap.out = out
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		cap.clocks[i] = m.ProcClock(i)
		cap.stats[i] = m.ProcStats(i)
	}
	return cap
}

func assertSameRun(t *testing.T, name string, a, b kfCapture) {
	t.Helper()
	for r := range a.clocks {
		if a.clocks[r] != b.clocks[r] {
			t.Errorf("%s: rank %d clock %v != %v", name, r, a.clocks[r], b.clocks[r])
		}
		if a.stats[r] != b.stats[r] {
			t.Errorf("%s: rank %d stats %+v != %+v", name, r, a.stats[r], b.stats[r])
		}
	}
	if len(a.out) != len(b.out) {
		t.Fatalf("%s: result length %d != %d", name, len(a.out), len(b.out))
	}
	for k := range a.out {
		if a.out[k] != b.out[k] {
			t.Errorf("%s: result[%d] = %v != %v", name, k, a.out[k], b.out[k])
			break
		}
	}
}

// sweepRanges is the range battery: unit stride, strided, reversed, empty.
var sweepRanges = []Range{
	R(1, 14),
	RStep(1, 14, 3),
	RStep(14, 1, -2),
	R(9, 4), // empty
}

func TestPlan1MatchesDoall1(t *testing.T) {
	g := topology.New1D(4)
	spec := darray.Spec{Extents: []int{16}, Dists: []dist.Dist{dist.Block{}}, Halo: []int{1}}
	const iters = 3
	body := func(x *darray.Array) func(cc *Ctx, i int) {
		return func(cc *Ctx, i int) {
			x.Set1(i, x.Old1(i-1)+2*x.Old1(i)+x.Old1(i+1))
			cc.P.Compute(3)
		}
	}
	for _, r := range sweepRanges {
		viaDoall := kfRun(t, 4, g, func(c *Ctx) []float64 {
			x := c.NewArray(spec)
			x.FillOwned(func(idx []int) float64 { return float64(idx[0]) })
			for it := 0; it < iters; it++ {
				c.Doall1(r, OnOwner1(x), []LoopOpt{Reads(x)}, body(x))
			}
			return x.GatherTo(c.NextScope(), 0)
		})
		viaPlan := kfRun(t, 4, g, func(c *Ctx) []float64 {
			x := c.NewArray(spec)
			x.FillOwned(func(idx []int) float64 { return float64(idx[0]) })
			plan := c.Plan1(r, OnOwner1(x), Reads(x))
			for it := 0; it < iters; it++ {
				plan.Run(body(x))
			}
			return x.GatherTo(c.NextScope(), 0)
		})
		assertSameRun(t, "plan1", viaDoall, viaPlan)
	}
}

func TestPlan2MatchesDoall2(t *testing.T) {
	g := topology.New(2, 2)
	spec := darray.Spec{
		Extents: []int{16, 16},
		Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
		Halo:    []int{1, 1},
	}
	const iters = 3
	body := func(x *darray.Array) func(cc *Ctx, i, j int) {
		return func(cc *Ctx, i, j int) {
			x.Set2(i, j, 0.25*(x.Old2(i+1, j)+x.Old2(i-1, j)+x.Old2(i, j+1)+x.Old2(i, j-1)))
			cc.P.Compute(4)
		}
	}
	for _, ri := range sweepRanges {
		for _, rj := range sweepRanges {
			viaDoall := kfRun(t, 4, g, func(c *Ctx) []float64 {
				x := c.NewArray(spec)
				x.FillOwned(func(idx []int) float64 { return float64(idx[0]*100 + idx[1]) })
				for it := 0; it < iters; it++ {
					c.Doall2(ri, rj, OnOwner2(x), []LoopOpt{Reads(x)}, body(x))
				}
				return x.GatherTo(c.NextScope(), 0)
			})
			viaPlan := kfRun(t, 4, g, func(c *Ctx) []float64 {
				x := c.NewArray(spec)
				x.FillOwned(func(idx []int) float64 { return float64(idx[0]*100 + idx[1]) })
				plan := c.Plan2(ri, rj, OnOwner2(x), Reads(x))
				for it := 0; it < iters; it++ {
					plan.Run(body(x))
				}
				return x.GatherTo(c.NextScope(), 0)
			})
			assertSameRun(t, "plan2", viaDoall, viaPlan)
		}
	}
}

func TestPlan3MatchesDoall3(t *testing.T) {
	g := topology.New(2, 2)
	spec := darray.Spec{
		Extents: []int{4, 10, 10},
		Dists:   []dist.Dist{dist.Star{}, dist.Block{}, dist.Block{}},
		Halo:    []int{0, 1, 1},
	}
	ri, rj, rk := R(0, 3), RStep(1, 8, 2), RStep(8, 1, -1)
	body := func(x *darray.Array) func(cc *Ctx, i, j, k int) {
		return func(cc *Ctx, i, j, k int) {
			x.Set3(i, j, k, x.Old3(i, j-1, k)+x.Old3(i, j, k-1))
			cc.P.Compute(2)
		}
	}
	viaDoall := kfRun(t, 4, g, func(c *Ctx) []float64 {
		x := c.NewArray(spec)
		x.FillOwned(func(idx []int) float64 { return float64(idx[0]*1e4 + idx[1]*100 + idx[2]) })
		for it := 0; it < 2; it++ {
			c.Doall3(ri, rj, rk, OnOwner3(x), []LoopOpt{Reads(x)}, body(x))
		}
		return x.GatherTo(c.NextScope(), 0)
	})
	viaPlan := kfRun(t, 4, g, func(c *Ctx) []float64 {
		x := c.NewArray(spec)
		x.FillOwned(func(idx []int) float64 { return float64(idx[0]*1e4 + idx[1]*100 + idx[2]) })
		plan := c.Plan3(ri, rj, rk, OnOwner3(x), Reads(x))
		for it := 0; it < 2; it++ {
			plan.Run(body(x))
		}
		return x.GatherTo(c.NextScope(), 0)
	})
	assertSameRun(t, "plan3", viaDoall, viaPlan)
}

// TestGatherPlanReplayMatchesInspection: executor replay must deliver the
// same values as a fresh inspection, with strictly fewer messages.
func TestGatherPlanReplayMatchesInspection(t *testing.T) {
	g := topology.New1D(4)
	spec := darray.Spec{Extents: []int{32}, Dists: []dist.Dist{dist.Block{}}}
	m := machine.New(4, machine.IPSC2())
	err := Exec(m, g, func(c *Ctx) error {
		x := c.NewArray(spec)
		x.FillOwned(func(idx []int) float64 { return float64(idx[0]) })
		// An irregular read set: wrap-around neighbors at stride 7.
		var need []int
		lo, hi, _ := x.OwnedSpan(0)
		for i := lo; i <= hi; i++ {
			need = append(need, (i*7+3)%32)
		}
		pl := c.InspectGather(x, need)
		first := pl.Gathered()
		sum0 := 0.0
		for _, i := range need {
			sum0 += first.At(i)
		}

		// Update the array, then compare replay against re-inspection.
		x.FillOwned(func(idx []int) float64 { return float64(idx[0] * 10) })
		before := c.P.Stats()
		replayed := pl.Gather(c)
		replayMsgs := c.P.Stats().MsgsSent - before.MsgsSent

		before = c.P.Stats()
		fresh := c.GatherIrregular(x, need)
		inspectMsgs := c.P.Stats().MsgsSent - before.MsgsSent

		for _, i := range need {
			if replayed.At(i) != fresh.At(i) {
				return errf("index %d: replay %v != inspection %v", i, replayed.At(i), fresh.At(i))
			}
		}
		if replayMsgs >= inspectMsgs {
			return errf("replay sent %d messages, inspection %d; executor must be cheaper", replayMsgs, inspectMsgs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlanRunZeroAllocs pins the acceptance criterion: a warmed plan.Run of
// the Jacobi doall — halo exchange, snapshots, body — performs zero heap
// allocations.
func TestPlanRunZeroAllocs(t *testing.T) {
	const warm, runs = 8, 40
	g := topology.New(2, 2)
	m := machine.New(4, machine.ZeroComm())
	spec := darray.Spec{
		Extents: []int{64, 64},
		Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
		Halo:    []int{1, 1},
	}
	err := Exec(m, g, func(c *Ctx) error {
		x := c.NewArray(spec)
		f := c.NewArray(spec)
		x.FillOwned(func(idx []int) float64 { return float64(idx[0] + idx[1]) })
		f.FillOwned(func(idx []int) float64 { return 1.0 / 4096 })
		plan := c.Plan2(R(1, 62), R(1, 62), OnOwner2(x), Reads(x), ReadsNoHalo(f))
		body := func(cc *Ctx, i, j int) {
			x.Set2(i, j, 0.25*(x.Old2(i+1, j)+x.Old2(i-1, j)+x.Old2(i, j+1)+x.Old2(i, j-1))-f.Old2(i, j))
			cc.P.Compute(5)
		}
		for it := 0; it < warm; it++ {
			plan.Run(body)
		}
		if c.P.Rank() == 0 {
			avg := testing.AllocsPerRun(runs, func() { plan.Run(body) })
			if avg != 0 {
				t.Errorf("warmed Jacobi plan.Run: %v allocs per run, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				plan.Run(body)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func errf(format string, args ...interface{}) error {
	return fmt.Errorf(format, args...)
}
