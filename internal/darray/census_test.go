package darray

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/topology"
)

// The class census: in a block distribution a rank's compiled descriptors
// depend on its position class (first, interior or last along each grid
// axis), not on its coordinates, so a machine whose ranks share what they
// would compile alike holds a number of them that does not grow with the
// rank count. These tests count, by pointer identity, the distinct halo
// schedules, gather pack lists and layouts the ranks of a warmed Jacobi
// program hold at three grid sizes, and hold every shared descriptor's
// program to the direct derivation bit for bit.

// census counts the distinct descriptors a machine's ranks hold.
type census struct {
	halo   int // halo-exchange schedules
	gather int // gather plans' pack run lists, the root's own plan counted once more
	layout int // array layouts
}

// jacobiRanks is a Jacobi-like program's per-rank declarations: the
// iterate x (haloed when its distribution is contiguous) and the right-hand
// side f, declared on the first run and reused by every later one, as a
// warmed System keeps them.
type jacobiRanks struct {
	x, f []*Array
}

// runJacobiLike runs a Jacobi-like program twice over n x n arrays
// distributed (d, d) on a side x side grid — two passes of halo exchange
// and five-point update where d is contiguous, then a gather to rank 0, and
// where d is not contiguous, a redistribution onto (block, block) gathered
// too — on a machine deriving collectives directly or replaying compiled
// schedules. It returns the second (warm) run's outcome and the
// declarations the ranks hold.
func runJacobiLike(t *testing.T, side, n int, d dist.Dist, direct bool) (capture, jacobiRanks) {
	t.Helper()
	g := topology.New(side, side)
	np := side * side
	_, contiguous := d.(dist.Contiguous)
	var halo []int
	if contiguous {
		halo = []int{1, 1}
	}
	decl := jacobiRanks{x: make([]*Array, np), f: make([]*Array, np)}
	prog := func(p *machine.Proc) []float64 {
		r := p.Rank()
		if decl.x[r] == nil {
			decl.x[r] = New(p, g, Spec{Extents: []int{n, n}, Dists: []dist.Dist{d, d}, Halo: halo})
			decl.f[r] = New(p, g, Spec{Extents: []int{n, n}, Dists: []dist.Dist{d, d}})
		}
		x, f := decl.x[r], decl.f[r]
		x.FillOwned(func(idx []int) float64 { return float64((idx[0]*7 + idx[1]*3) % 11) })
		f.FillOwned(func(idx []int) float64 { return float64((idx[0]+idx[1])%5) / 8 })
		sc := machine.RootScope()
		for it := 0; it < 2; it++ {
			if !contiguous {
				break
			}
			x.ExchangeHalo(sc.Child(it, -1))
			x.Snapshot()
			x.OwnedEach(func(idx []int) {
				i, j := idx[0], idx[1]
				if i == 0 || j == 0 || i == n-1 || j == n-1 {
					return
				}
				x.Set2(i, j, 0.25*(x.Old2(i+1, j)+x.Old2(i-1, j)+x.Old2(i, j+1)+x.Old2(i, j-1))-f.At2(i, j))
			})
			x.ReleaseSnapshot()
		}
		out := x.GatherTo(sc.Child(2, -1), 0)
		if !contiguous {
			y := x.Redistribute(sc.Child(3, -1), g, Spec{Extents: []int{n, n}, Dists: []dist.Dist{dist.Block{}, dist.Block{}}})
			out = append(out, y.GatherTo(sc.Child(4, -1), 0)...)
		}
		return out
	}
	m := machine.New(np, machine.IPSC2())
	m.SetDirect(direct)
	c := capture{clocks: make([]float64, np), stats: make([]machine.Stats, np), data: make([][]float64, np)}
	for run := 0; run < 2; run++ {
		err := m.Run(func(p *machine.Proc) error {
			c.data[p.Rank()] = prog(p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < np; i++ {
		c.clocks[i] = m.ProcClock(i)
		c.stats[i] = m.ProcStats(i)
	}
	return c, decl
}

// countDescriptors takes the census of the declarations' compiled state.
func countDescriptors(decl jacobiRanks) census {
	halos := map[any]bool{}
	packs := map[any]bool{}
	layouts := map[any]bool{}
	roots := 0
	for r := range decl.x {
		for _, a := range []*Array{decl.x[r], decl.f[r]} {
			layouts[a.st.layout] = true
			for _, pl := range a.plans {
				if pl.halo != nil {
					halos[pl.halo] = true
				}
				if g := pl.gather; g != nil {
					if len(g.pack) > 0 {
						packs[&g.pack[0]] = true
					}
					if g.root != nil {
						roots++
					}
				}
			}
		}
	}
	return census{halo: len(halos), gather: len(packs) + roots, layout: len(layouts)}
}

// TestClassCensus: a warmed Jacobi program's ranks hold the same number of
// distinct halo schedules (at most one per position class, 9 in 2-D),
// gather pack lists and layouts on 256, 1,024 and 4,096 ranks — a census
// that is a function of the program, not of P² — and replay them
// bit-identically to the direct derivation.
func TestClassCensus(t *testing.T) {
	var first census
	for k, side := range []int{16, 32, 64} {
		direct, _ := runJacobiLike(t, side, 256, dist.Block{}, true)
		shared, decl := runJacobiLike(t, side, 256, dist.Block{}, false)
		assertSameCapture(t, side, direct, shared)
		c := countDescriptors(decl)
		t.Logf("Grid(%d, %d): %d halo schedules, %d gather plans, %d layouts over %d ranks",
			side, side, c.halo, c.gather, c.layout, side*side)
		if c.halo > 9 {
			t.Errorf("Grid(%d, %d): %d distinct halo schedules, want at most one per position class (9)", side, side, c.halo)
		}
		if k == 0 {
			first = c
		} else if c != first {
			t.Errorf("Grid(%d, %d): census %+v, Grid(16, 16) holds %+v: it grows with the rank count", side, side, c, first)
		}
	}
}

// TestClassCensusUnevenAndCyclic holds the shared descriptors of an uneven
// block distribution (an extent no grid size divides, so interior blocks
// differ in size) and of a cyclic one (no halo; gathered, then
// redistributed onto blocks and gathered again) to the direct derivation
// bit for bit, and their census to a bound that does not grow with the
// rank count.
func TestClassCensusUnevenAndCyclic(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		d    dist.Dist
	}{
		{"uneven block", 250, dist.Block{}},
		{"cyclic", 250, dist.Cyclic{}},
	} {
		for _, side := range []int{16, 32} {
			direct, _ := runJacobiLike(t, side, tc.n, tc.d, true)
			shared, decl := runJacobiLike(t, side, tc.n, tc.d, false)
			assertSameCapture(t, side, direct, shared)
			c := countDescriptors(decl)
			t.Logf("%s %d on Grid(%d, %d): %d halo schedules, %d gather plans, %d layouts",
				tc.name, tc.n, side, side, c.halo, c.gather, c.layout)
			// Two block sizes per axis: at most 9 classes times 4 shapes.
			if c.halo > 36 || c.gather > 36+1 || c.layout > 2*4 {
				t.Errorf("%s on Grid(%d, %d): census %+v exceeds the per-class bound", tc.name, side, side, c)
			}
		}
	}
}

// assertSameCapture requires two runs' clocks, statistics and values to be
// bit-identical.
func assertSameCapture(t *testing.T, side int, direct, shared capture) {
	t.Helper()
	for r := range direct.clocks {
		if direct.clocks[r] != shared.clocks[r] || direct.stats[r] != shared.stats[r] {
			t.Fatalf("Grid(%d, %d) rank %d: clock %v stats %+v direct, clock %v stats %+v shared",
				side, side, r, direct.clocks[r], direct.stats[r], shared.clocks[r], shared.stats[r])
		}
		if len(direct.data[r]) != len(shared.data[r]) {
			t.Fatalf("Grid(%d, %d) rank %d: %d values direct, %d shared", side, side, r, len(direct.data[r]), len(shared.data[r]))
		}
		for i, v := range direct.data[r] {
			if shared.data[r][i] != v {
				t.Fatalf("Grid(%d, %d) rank %d value %d: %v direct, %v shared", side, side, r, i, v, shared.data[r][i])
			}
		}
	}
}
