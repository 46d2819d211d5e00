package darray

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/topology"
)

// OwnerGrid and SectionGrid derive an iteration grid by index arithmetic;
// Section(...).Grid() derives it by building (and retaining) views. Both go
// through the slices each grid keeps (topology.Grid.SliceThrough), so they
// must agree to the pointer — on every rank, for every distribution mix,
// and from sections of sections as well as from root arrays.

type gridCase struct {
	name    string
	grid    []int
	extents []int
	dists   []dist.Dist
}

var gridCases = []gridCase{
	{"block", []int{4}, []int{10}, []dist.Dist{dist.Block{}}},
	{"cyclic", []int{3}, []int{7}, []dist.Dist{dist.Cyclic{}}},
	{"star", []int{2}, []int{5}, []dist.Dist{dist.Star{}}},
	{"block,block", []int{2, 3}, []int{6, 9}, []dist.Dist{dist.Block{}, dist.Block{}}},
	{"cyclic,star", []int{4}, []int{9, 3}, []dist.Dist{dist.Cyclic{}, dist.Star{}}},
	{"star,block", []int{3}, []int{4, 7}, []dist.Dist{dist.Star{}, dist.Block{}}},
	{"block,cyclic", []int{2, 2}, []int{5, 6}, []dist.Dist{dist.Block{}, dist.Cyclic{}}},
	{"star,star", []int{2, 2}, []int{3, 3}, []dist.Dist{dist.Star{}, dist.Star{}}},
	{"star,block,block", []int{2, 2}, []int{4, 6, 8}, []dist.Dist{dist.Star{}, dist.Block{}, dist.Block{}}},
	{"block,star,cyclic", []int{3, 2}, []int{6, 2, 5}, []dist.Dist{dist.Block{}, dist.Star{}, dist.Cyclic{}}},
	{"block,cyclic,aligned", []int{2, 2, 2}, []int{4, 5, 8},
		[]dist.Dist{dist.Block{}, dist.Cyclic{}, dist.BlockAligned{RootExtent: 16, Stride: 2}}},
	// An extent smaller than its axis: some processors own nothing.
	{"block(coarse),block", []int{4, 2}, []int{3, 4}, []dist.Dist{dist.Block{}, dist.Block{}}},
}

func (gc gridCase) spec() Spec { return Spec{Extents: gc.extents, Dists: gc.dists} }

// chainGrid is the reference: the grid of the memoized Section chain.
func chainGrid(v *Array, idx []int) *topology.Grid {
	for _, i := range idx {
		v = v.Section(0, i)
	}
	return v.Grid()
}

// checkViewGrids compares the view-free derivations against the Section
// chain from view v: every (d, i) for SectionGrid, every leading-index
// prefix for OwnerGrid, then the same again from each section of v.
func checkViewGrids(t *testing.T, rank int, label string, v *Array) {
	nd := v.Dims()
	for d := 0; d < nd; d++ {
		for i := 0; i < v.Extent(d); i++ {
			if got, want := v.SectionGrid(d, i), v.Section(d, i).Grid(); got != want {
				t.Errorf("rank %d: %s.SectionGrid(%d, %d) = %v (%p), Section(...).Grid() = %v (%p)",
					rank, label, d, i, got, got, want, want)
			}
		}
	}
	var walk func(prefix []int)
	walk = func(prefix []int) {
		if got, want := v.OwnerGrid(prefix...), chainGrid(v, prefix); got != want {
			t.Errorf("rank %d: %s.OwnerGrid(%v) = %v (%p), Section chain's grid = %v (%p)",
				rank, label, prefix, got, got, want, want)
		}
		if len(prefix) == nd {
			return
		}
		for i := 0; i < v.Extent(len(prefix)); i++ {
			walk(append(prefix, i))
		}
	}
	walk(make([]int, 0, nd))
	for d := 0; d < nd; d++ {
		// First, middle and last index: one section per owner class is
		// enough to recurse from.
		n := v.Extent(d)
		for _, i := range []int{0, n / 2, n - 1} {
			checkViewGrids(t, rank, fmt.Sprintf("%s.Section(%d, %d)", label, d, i), v.Section(d, i))
		}
	}
}

func TestGridsWithoutViewsMatchSectionChain(t *testing.T) {
	for _, gc := range gridCases {
		t.Run(gc.name, func(t *testing.T) {
			g := topology.New(gc.grid...)
			run(t, g.Size(), func(p *machine.Proc) error {
				checkViewGrids(t, p.Rank(), "a", New(p, g, gc.spec()))
				return nil
			})
		})
	}
}

// TestGridsWithoutViewsZeroAllocs pins that, once the grids hold the
// slices a processor asks for, deriving an iteration grid allocates nothing — no
// throwaway view. One calendar worker runs the ranks one at a time, so
// AllocsPerRun (a process-wide count) sees only the measuring rank.
func TestGridsWithoutViewsZeroAllocs(t *testing.T) {
	for _, gc := range gridCases {
		t.Run(gc.name, func(t *testing.T) {
			g := topology.New(gc.grid...)
			m := machine.New(g.Size(), machine.ZeroComm())
			m.SetExecutor(machine.NewCalendarExecutor(1))
			err := m.Run(func(p *machine.Proc) error {
				a := New(p, g, gc.spec())
				nd := a.Dims()
				idx := make([]int, nd)
				sweep := func() {
					for d := 0; d < nd; d++ {
						for i := 0; i < a.Extent(d); i++ {
							a.SectionGrid(d, i)
							idx[d] = i
							for k := 1; k <= nd; k++ {
								a.OwnerGrid(idx[:k]...)
							}
						}
						idx[d] = 0
					}
				}
				sweep() // fill the grids' slices
				if avg := testing.AllocsPerRun(10, sweep); avg != 0 {
					t.Errorf("rank %d: %v allocs per sweep of SectionGrid/OwnerGrid, want 0", p.Rank(), avg)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGridsWithoutViewsPanics(t *testing.T) {
	g := topology.New(2, 2)
	run(t, 4, func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{4, 6, 8},
			Dists:   []dist.Dist{dist.Star{}, dist.Block{}, dist.Block{}},
		})
		line := a.Section(2, 5).Section(1, 2)
		for _, tc := range []struct {
			name string
			call func()
			want string
		}{
			{"OwnerGrid index past the extent", func() { a.OwnerGrid(1, 6) }, "darray: section index 6 out of extent 6"},
			{"OwnerGrid negative index", func() { a.OwnerGrid(-1) }, "darray: section index -1 out of extent 4"},
			{"OwnerGrid too many indices", func() { a.OwnerGrid(0, 0, 0, 0) }, "darray: dimension 0 out of 0"},
			{"OwnerGrid too many indices for a section", func() { line.OwnerGrid(0, 0) }, "darray: dimension 0 out of 0"},
			{"OwnerGrid section index past the extent", func() { line.OwnerGrid(4) }, "darray: section index 4 out of extent 4"},
			{"SectionGrid index past the extent", func() { a.SectionGrid(2, 8) }, "darray: section index 8 out of extent 8"},
			{"SectionGrid dimension out of range", func() { a.SectionGrid(3, 0) }, "darray: dimension 3 out of 3"},
			{"SectionGrid dimension of a section", func() { line.SectionGrid(1, 0) }, "darray: dimension 1 out of 1"},
		} {
			func() {
				defer func() {
					if got := recover(); got != tc.want {
						t.Errorf("rank %d: %s: panic %v, want %q", p.Rank(), tc.name, got, tc.want)
					}
				}()
				tc.call()
			}()
		}
		return nil
	})
}

// TestSectionPointersStableAcrossArenaChunks takes more sections of one
// parent than several arena chunks hold (chunks of 1, 2, 4, 8, 8, ...) and
// checks that every Section(d, i) keeps returning the pointer it returned
// first, and that the earliest views still read the parent's storage.
func TestSectionPointersStableAcrossArenaChunks(t *testing.T) {
	g := topology.New(1, 1)
	run(t, 1, func(p *machine.Proc) error {
		const n = 40
		a := New(p, g, Spec{
			Extents: []int{n, 3},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
		})
		a.Fill(func(idx []int) float64 { return float64(idx[0]*10 + idx[1]) })
		first := make([]*Array, n)
		for i := range first {
			first[i] = a.Section(0, i)
			for k := 0; k <= i; k++ {
				if a.Section(0, k) != first[k] {
					t.Fatalf("after %d sections, Section(0, %d) returned a new view", i+1, k)
				}
			}
		}
		for i, row := range first {
			for j := 0; j < 3; j++ {
				if got, want := row.At1(j), float64(i*10+j); got != want {
					t.Errorf("section %d: At1(%d) = %v, want %v", i, j, got, want)
				}
			}
		}
		if avg := testing.AllocsPerRun(10, func() {
			for i := 0; i < n; i++ {
				a.Section(0, i)
			}
		}); avg != 0 {
			t.Errorf("memoized Section sweep: %v allocs, want 0", avg)
		}
		return nil
	})
}
