package darray

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/topology"
)

// The arity accessors test each index against a precomputed window and form
// the offset inline; an index outside its window goes through roff/woff. The
// reference here is the composition they replaced — fixedOff plus one
// roff/woff per dimension, in index order, the variadic form when the arity
// does not match — and the two must agree on every value, every cell
// written and every panic text, for every rank and every index from two
// below the extent to two above it.

// outcome is what one access did: the value read (or the storage offset
// written), or the text it panicked with.
type outcome struct {
	v     float64
	panic string
}

func attempt(f func() float64) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = outcome{panic: fmt.Sprint(r)}
		}
	}()
	return outcome{v: f()}
}

// refRead is the parent's AtN, or with old its OldN.
func refRead(a *Array, old bool, idx []int) float64 {
	if len(a.acc) == len(idx) && (!old || a.st.root.snapOn) {
		off := a.fixedOff
		for k, g := range idx {
			off += a.roff(k, g)
		}
		if old {
			return a.st.old()[off]
		}
		return a.st.data[off]
	}
	if old {
		return a.Old(idx...)
	}
	return a.At(idx...)
}

// refWriteOff is the offset the parent's SetN stores at, as a float64 so it
// fits an outcome; a non-participating view goes to the variadic Set, which
// panics before it writes.
func refWriteOff(a *Array, idx []int) float64 {
	if len(a.acc) == len(idx) {
		off := a.fixedOff
		for k, g := range idx {
			off += a.woff(k, g)
		}
		return float64(off)
	}
	a.Set(0, idx...)
	panic("unreachable: variadic Set on a non-participating view returned")
}

func readN(a *Array, old bool, idx []int) float64 {
	switch {
	case len(idx) == 1 && old:
		return a.Old1(idx[0])
	case len(idx) == 1:
		return a.At1(idx[0])
	case len(idx) == 2 && old:
		return a.Old2(idx[0], idx[1])
	case len(idx) == 2:
		return a.At2(idx[0], idx[1])
	case old:
		return a.Old3(idx[0], idx[1], idx[2])
	default:
		return a.At3(idx[0], idx[1], idx[2])
	}
}

func setN(a *Array, idx []int, v float64) {
	switch len(idx) {
	case 1:
		a.Set1(idx[0], v)
	case 2:
		a.Set2(idx[0], idx[1], v)
	default:
		a.Set3(idx[0], idx[1], idx[2], v)
	}
}

// checkAccess probes view v (1 to 3 free dimensions) at every index of
// [-2, extent+2) per dimension, then recurses into its sections.
func checkAccess(t *testing.T, rank int, label string, v *Array) {
	nd := v.Dims()
	if nd == 0 {
		return
	}
	st := v.st
	idx := make([]int, nd)
	var probe func(d int)
	probe = func(d int) {
		if d < nd {
			for i := -2; i < v.Extent(d)+2; i++ {
				idx[d] = i
				probe(d + 1)
			}
			return
		}
		for _, old := range []bool{false, true} {
			got := attempt(func() float64 { return readN(v, old, idx) })
			want := attempt(func() float64 { return refRead(v, old, idx) })
			if got != want {
				t.Errorf("rank %d: %s%v old=%v: got %+v, reference %+v", rank, label, idx, old, got, want)
			}
		}
		const mark = -1
		want := attempt(func() float64 { return refWriteOff(v, idx) })
		got := attempt(func() float64 { setN(v, idx, mark); return 0 })
		if got.panic != want.panic {
			t.Errorf("rank %d: Set %s%v: panic %q, reference %q", rank, label, idx, got.panic, want.panic)
		}
		if want.panic == "" {
			off := int(want.v)
			if st.data[off] != mark {
				t.Errorf("rank %d: Set %s%v did not store at offset %d", rank, label, idx, off)
			}
			st.data[off] = float64(off + 1)
		}
	}
	probe(0)
	// Every store was undone at the reference's offset, so a store that went
	// anywhere else is still there.
	for off, x := range st.data {
		if x != float64(off+1) {
			t.Fatalf("rank %d: after the Set probes of %s, data[%d] = %v", rank, label, off, x)
		}
	}
	for d := 0; d < nd; d++ {
		n := v.Extent(d)
		for _, i := range []int{0, n / 2, n - 1} {
			checkAccess(t, rank, fmt.Sprintf("%s.Section(%d, %d)", label, d, i), v.Section(d, i))
		}
	}
}

func TestArityAccessorsMatchPerDimensionReference(t *testing.T) {
	for _, gc := range gridCases {
		for halo := 0; halo <= 2; halo++ {
			t.Run(fmt.Sprintf("%s/halo%d", gc.name, halo), func(t *testing.T) {
				spec := gc.spec()
				spec.Halo = make([]int, len(gc.dists))
				for d, ds := range gc.dists {
					if _, ok := ds.(dist.Contiguous); ok {
						spec.Halo[d] = halo
					}
				}
				g := topology.New(gc.grid...)
				run(t, g.Size(), func(p *machine.Proc) error {
					a := New(p, g, spec)
					// Distinct values in every cell, halo included, and a
					// snapshot that differs from the live data everywhere.
					for off := range a.st.data {
						a.st.data[off] = -float64(off + 1)
					}
					a.Snapshot()
					for off := range a.st.data {
						a.st.data[off] = float64(off + 1)
					}
					checkAccess(t, p.Rank(), "a", a)
					a.ReleaseSnapshot()
					checkAccess(t, p.Rank(), "a (no snapshot)", a)
					return nil
				})
			})
		}
	}
}

// TestAccessorWindows states the windows themselves on one layout small
// enough to read: extent 10 over 4 processors with halo 2, where the first
// and last blocks' read windows are clipped by the extent.
func TestAccessorWindows(t *testing.T) {
	g := topology.New(4)
	run(t, 4, func(p *machine.Proc) error {
		a := New(p, g, Spec{Extents: []int{10}, Dists: []dist.Dist{dist.Block{}}, Halo: []int{2}})
		lo, hi := a.Lower(0), a.Upper(0)
		// The windows are addressed from the block's origin, lo.
		ax := a.acc[0]
		if ax.wspan != hi-lo+1 {
			t.Errorf("rank %d: write window [%d, +%d), owns [%d, %d]", p.Rank(), lo, ax.wspan, lo, hi)
		}
		rlo, rhi := max(lo-2, 0), min(hi+2, 9)
		if lo+ax.rlo != rlo || ax.rspan != rhi-rlo+1 {
			t.Errorf("rank %d: read window [%d, +%d), want [%d, %d]", p.Rank(), lo+ax.rlo, ax.rspan, rlo, rhi)
		}
		c := New(p, g, Spec{Extents: []int{10}, Dists: []dist.Dist{dist.Cyclic{}}})
		if cx := c.acc[0]; cx.rspan != 0 || cx.wspan != 0 {
			t.Errorf("rank %d: cyclic dimension has windows %d/%d, want both empty", p.Rank(), cx.rspan, cx.wspan)
		}
		return nil
	})
}
