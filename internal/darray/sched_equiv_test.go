package darray

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/topology"
)

// The compiled-schedule paths (ExchangeHalo, GatherTo, Redistribute) must
// be indistinguishable from the direct derivation they were compiled from:
// same message counts, same byte counts, same per-processor virtual times,
// same values. These tests run every collective twice — schedules off, then
// on — under a cost model with real latencies, and require bitwise
// equality.

// capture holds one run's observable outcome.
type capture struct {
	clocks []float64
	stats  []machine.Stats
	data   [][]float64
}

// captureRun executes prog on a fresh n-processor machine in the given
// derivation mode (machine.SetDirect) and records clocks, per-processor
// statistics and each processor's returned payload.
func captureRun(t *testing.T, n int, direct bool, prog func(p *machine.Proc) []float64) capture {
	t.Helper()
	m := machine.New(n, machine.IPSC2())
	m.SetDirect(direct)
	c := capture{
		clocks: make([]float64, n),
		stats:  make([]machine.Stats, n),
		data:   make([][]float64, n),
	}
	err := m.Run(func(p *machine.Proc) error {
		c.data[p.Rank()] = prog(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c.clocks[i] = m.ProcClock(i)
		c.stats[i] = m.ProcStats(i)
	}
	return c
}

// assertEquivalent runs prog with scheduling disabled and enabled and
// requires bit-identical outcomes.
func assertEquivalent(t *testing.T, name string, n int, prog func(p *machine.Proc) []float64) {
	t.Helper()
	direct := captureRun(t, n, true, prog)
	replay := captureRun(t, n, false, prog)
	for r := 0; r < n; r++ {
		if direct.clocks[r] != replay.clocks[r] {
			t.Errorf("%s: rank %d clock %v (direct) != %v (scheduled)", name, r, direct.clocks[r], replay.clocks[r])
		}
		if direct.stats[r] != replay.stats[r] {
			t.Errorf("%s: rank %d stats %+v (direct) != %+v (scheduled)", name, r, direct.stats[r], replay.stats[r])
		}
		if len(direct.data[r]) != len(replay.data[r]) {
			t.Errorf("%s: rank %d payload length %d != %d", name, r, len(direct.data[r]), len(replay.data[r]))
			continue
		}
		for k := range direct.data[r] {
			if direct.data[r][k] != replay.data[r][k] {
				t.Errorf("%s: rank %d payload[%d] = %v != %v", name, r, k, direct.data[r][k], replay.data[r][k])
				break
			}
		}
	}
}

// fillPattern gives every element a value unique to its global index.
func fillPattern(a *Array) {
	a.FillOwned(func(idx []int) float64 {
		v := 1.0
		for _, g := range idx {
			v = v*1000 + float64(g)
		}
		return v
	})
}

// snapshotLocal returns a copy of the processor's whole local block
// (including ghost cells), so ghost contents participate in the comparison.
func snapshotLocal(a *Array) []float64 {
	if !a.Participates() {
		return nil
	}
	return append([]float64(nil), a.st.data...)
}

func TestHaloEquivalence2D(t *testing.T) {
	g := topology.New(2, 2)
	assertEquivalent(t, "halo-2d", 4, func(p *machine.Proc) []float64 {
		a := New(p, g, Spec{
			Extents: []int{13, 11},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
			Halo:    []int{2, 1},
		})
		fillPattern(a)
		sc := machine.RootScope()
		for it := 0; it < 3; it++ {
			a.ExchangeHalo(sc.Child(it, -1))
			// Mutate between exchanges so replay must move fresh data.
			a.FillOwned(func(idx []int) float64 {
				return a.At(idx...) + 1
			})
		}
		a.ExchangeHalo(sc.Child(99, -1))
		return snapshotLocal(a)
	})
}

func TestHaloEquivalence3DStarAndSection(t *testing.T) {
	g := topology.New(2, 2)
	assertEquivalent(t, "halo-3d-section", 4, func(p *machine.Proc) []float64 {
		a := New(p, g, Spec{
			Extents: []int{5, 13, 11},
			Dists:   []dist.Dist{dist.Star{}, dist.Block{}, dist.Block{}},
			Halo:    []int{0, 2, 1},
		})
		fillPattern(a)
		sc := machine.RootScope()
		a.ExchangeHalo(sc.Child(0, -1))
		// A section fixing the Star dimension exchanges the remaining
		// two haloed dimensions, in explicit (reversed) dim order.
		sec := a.Section(0, 2)
		sec.ExchangeHalo(sc.Child(1, -1), 1, 0)
		return snapshotLocal(a)
	})
}

func TestHaloEquivalenceEmptyBlocks(t *testing.T) {
	// Extent 3 over 4 processors leaves empty blocks; the degenerate
	// ghost windows must match between the two paths.
	g := topology.New1D(4)
	assertEquivalent(t, "halo-empty", 4, func(p *machine.Proc) []float64 {
		a := New(p, g, Spec{
			Extents: []int{3, 6},
			Dists:   []dist.Dist{dist.Block{}, dist.Star{}},
			Halo:    []int{1, 0},
		})
		fillPattern(a)
		a.ExchangeHalo(machine.RootScope())
		return snapshotLocal(a)
	})
}

func TestGatherEquivalence(t *testing.T) {
	g := topology.New(2, 2)
	assertEquivalent(t, "gather", 4, func(p *machine.Proc) []float64 {
		a := New(p, g, Spec{
			Extents: []int{9, 7},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
		})
		fillPattern(a)
		sc := machine.RootScope()
		out := a.GatherTo(sc.Child(0, -1), 0)
		// Gather again to a non-origin root, through a section.
		sec := a.Section(0, 4)
		if sec.Participates() {
			if o := sec.GatherTo(sc.Child(1, -1), 1); o != nil {
				out = append(out, o...)
			}
		}
		return out
	})
}

func TestRedistributeEquivalence(t *testing.T) {
	g := topology.New1D(4)
	assertEquivalent(t, "redistribute-1d", 4, func(p *machine.Proc) []float64 {
		a := New(p, g, Spec{
			Extents: []int{17},
			Dists:   []dist.Dist{dist.Block{}},
		})
		fillPattern(a)
		sc := machine.RootScope()
		b := a.Redistribute(sc.Child(0, -1), g, Spec{
			Extents: []int{17},
			Dists:   []dist.Dist{dist.Cyclic{}},
		})
		c := b.Redistribute(sc.Child(1, -1), g, Spec{
			Extents: []int{17},
			Dists:   []dist.Dist{dist.Star{}},
		})
		out := snapshotLocal(b)
		return append(out, snapshotLocal(c)...)
	})
}

func TestRedistributeEquivalence2D(t *testing.T) {
	g := topology.New(2, 2)
	assertEquivalent(t, "redistribute-2d", 4, func(p *machine.Proc) []float64 {
		a := New(p, g, Spec{
			Extents: []int{6, 10},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
		})
		fillPattern(a)
		b := a.Redistribute(machine.RootScope(), g, Spec{
			Extents: []int{6, 10},
			Dists:   []dist.Dist{dist.Cyclic{}, dist.Block{}},
		})
		return snapshotLocal(b)
	})
}

// TestHaloScheduleCachedIdentity pins the memoization: repeated exchanges
// reuse one compiled schedule, and distinct dim selections get distinct
// schedules.
func TestHaloScheduleCachedIdentity(t *testing.T) {
	g := topology.New(2, 2)
	m := machine.New(4, machine.ZeroComm())
	err := m.Run(func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{8, 8},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
			Halo:    []int{1, 1},
		})
		s1 := a.haloSchedule(nil)
		s2 := a.haloSchedule(nil)
		if s1 != s2 {
			t.Error("default halo schedule not memoized")
		}
		d0 := a.haloSchedule([]int{0})
		d01 := a.haloSchedule([]int{0, 1})
		d10 := a.haloSchedule([]int{1, 0})
		if d0 == d01 || d01 == d10 {
			t.Error("distinct dim selections must compile distinct schedules")
		}
		if d01 == a.haloSchedule([]int{0, 1}) != true {
			t.Error("explicit dim schedule not memoized")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
