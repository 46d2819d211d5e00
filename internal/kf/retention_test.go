package kf

import (
	"runtime"
	"testing"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/topology"
)

// An on-clause decides who runs an iteration and on which grid; it must not
// build section views to do so, let alone retain one per loop index. The
// generic path (any non-contiguous distribution: no owned strip to mine)
// asks Owns and IterGrid once per index of the range, so it is where a
// per-index view would show.

func liveHeap() int64 {
	runtime.GC()
	runtime.GC() // sync.Pool victims go on the second cycle
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func TestOnOwnerSectionRetainsNoViews(t *testing.T) {
	m := machine.New(1, machine.ZeroComm())
	g := topology.New1D(1)
	err := Exec(m, g, func(c *Ctx) error {
		// retained runs the doall over a fresh n x 2 (cyclic, *) array and
		// returns the heap the pass left behind, then what a second pass
		// of the same header, compiled as a plan, allocates.
		retained := func(n int) (left int64, secondPass float64) {
			a := c.NewArray(darray.Spec{Extents: []int{n, 2}, Dists: []dist.Dist{dist.Cyclic{}, dist.Star{}}})
			on := OnOwnerSection(a, 0)
			ran := 0
			body := func(cc *Ctx, i int) { ran++ }
			before := liveHeap()
			c.Doall1(R(0, n-1), on, nil, body)
			left = liveHeap() - before
			if ran != n {
				t.Errorf("n=%d: ran %d iterations, want %d", n, ran, n)
			}
			pl := c.Plan1(R(0, n-1), on)
			pl.Run(body)
			secondPass = testing.AllocsPerRun(3, func() { pl.Run(body) })
			runtime.KeepAlive(a)
			return left, secondPass
		}
		small, smallAllocs := retained(256)
		large, largeAllocs := retained(4096)
		t.Logf("retained after one pass: %d B over 256 indices, %d B over 4096", small, large)
		// Nothing is kept either way; a view per index would be ~800 B x
		// n. Each pass is bounded on its own, not by their difference: an
		// earlier test's dropped machine may be freed during the first.
		if small > 16<<10 || large > 16<<10 {
			t.Errorf("one pass retains %d B over 256 indices and %d B over 4096: not O(1) in the range", small, large)
		}
		if smallAllocs != 0 || largeAllocs != 0 {
			t.Errorf("second pass allocates %v (256 indices) and %v (4096 indices) objects, want 0", smallAllocs, largeAllocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDoallOverFreshArraysRetainsNothing holds a doall to its header's one
// pass: a context that runs doalls over a stream of fresh arrays (a
// multigrid cycle's work arrays) keeps neither the headers nor the arrays
// they name, so its retained heap does not grow with the number of passes.
func TestDoallOverFreshArraysRetainsNothing(t *testing.T) {
	const passes, n = 200, 4096
	m := machine.New(1, machine.ZeroComm())
	g := topology.New1D(1)
	err := Exec(m, g, func(c *Ctx) error {
		pass := func() {
			a := c.NewArray(darray.Spec{Extents: []int{n}, Dists: []dist.Dist{dist.Block{}}})
			c.Doall1(R(0, n-1), OnOwner1(a), nil, func(cc *Ctx, i int) {
				a.Set1(i, float64(i))
			})
		}
		pass() // first-use state of the context and the machine
		before := liveHeap()
		for range passes - 1 {
			pass()
		}
		left := liveHeap() - before
		t.Logf("retained after %d passes over fresh %d-element arrays: %d B", passes, n, left)
		// One array is 32 KB; a header kept per pass would pin them all.
		if left > 64<<10 {
			t.Errorf("%d doalls over fresh arrays retain %d B, want O(1) (≤ 64 KB)", passes, left)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOnOwnerSectionOwnsMatchesSection holds the view-free ownership test
// to the definition: a processor executes iteration i of "on owner(a(..., i,
// ...))" exactly when it participates in that section.
func TestOnOwnerSectionOwnsMatchesSection(t *testing.T) {
	for _, tc := range []struct {
		name    string
		grid    []int
		extents []int
		dists   []dist.Dist
	}{
		{"cyclic,star", []int{3}, []int{8, 2}, []dist.Dist{dist.Cyclic{}, dist.Star{}}},
		{"block,cyclic", []int{2, 2}, []int{5, 6}, []dist.Dist{dist.Block{}, dist.Cyclic{}}},
		{"star,block,cyclic", []int{2, 3}, []int{3, 4, 7}, []dist.Dist{dist.Star{}, dist.Block{}, dist.Cyclic{}}},
		{"block(coarse),block", []int{4, 1}, []int{3, 4}, []dist.Dist{dist.Block{}, dist.Block{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := topology.New(tc.grid...)
			exec(t, g.Size(), g, func(c *Ctx) error {
				a := c.NewArray(darray.Spec{Extents: tc.extents, Dists: tc.dists})
				check := func(label string, v *darray.Array) {
					for d := 0; d < v.Dims(); d++ {
						on := OnOwnerSection(v, d)
						for i := -2; i < v.Extent(d)+2; i++ {
							want := i >= 0 && i < v.Extent(d) && v.Section(d, i).Participates()
							if got := on.Owns(c, i); got != want {
								t.Errorf("rank %d: %s dim %d index %d: Owns = %v, Section(...).Participates() = %v",
									c.P.Rank(), label, d, i, got, want)
							}
						}
					}
				}
				check("a", a)
				// From a section too, including one this rank is not part of.
				for i := 0; i < a.Extent(0); i++ {
					check("a.Section(0, i)", a.Section(0, i))
				}
				return nil
			})
		})
	}
}
