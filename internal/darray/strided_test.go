package darray

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/topology"
)

// TestStridedMatchesAccessors holds a view's Strided addressing to the
// arity accessors it shortcuts, on every grid case, halo width, rank and
// section: for every index from two below the extent to two above it, the
// index is inside the read window exactly when At (and Old) accept it, and
// then Origin + Σ g·Stride addresses the cell they read, in the storage and
// in the snapshot; likewise the write window and Set. A view with a cyclic
// dimension, or a processor outside it, has no Strided form.
func TestStridedMatchesAccessors(t *testing.T) {
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
					for off := range a.st.data {
						a.st.data[off] = -float64(off + 1)
					}
					a.Snapshot()
					for off := range a.st.data {
						a.st.data[off] = float64(off + 1)
					}
					checkStrided(t, p.Rank(), "a", a)
					return nil
				})
			})
		}
	}
}

func checkStrided(t *testing.T, rank int, label string, v *Array) {
	nd := v.Dims()
	if nd == 0 {
		return
	}
	s, ok := v.Strided()
	general := false
	for k := range v.acc {
		general = general || v.acc[k].kind == axGeneral
	}
	if want := v.Participates() && !general; ok != want {
		t.Errorf("rank %d: %s.Strided() ok = %v, want %v", rank, label, ok, want)
	}
	data, shadow := v.Storage()
	if ok {
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
			off, inRead, inWrite := s.Origin, true, true
			for k, g := range idx {
				off += g * s.Stride[k]
				inRead = inRead && s.ReadLo[k] <= g && g <= s.ReadHi[k]
				inWrite = inWrite && s.WriteLo[k] <= g && g <= s.WriteHi[k]
			}
			at := attempt(func() float64 { return readN(v, false, idx) })
			old := attempt(func() float64 { return readN(v, true, idx) })
			if (at.panic == "") != inRead || (old.panic == "") != inRead {
				t.Errorf("rank %d: %s%v: read window says %v, At panic %q, Old panic %q", rank, label, idx, inRead, at.panic, old.panic)
			} else if inRead && (data[off] != at.v || shadow[off] != old.v) {
				t.Errorf("rank %d: %s%v: Strided cell %d holds %v/%v, At/Old read %v/%v", rank, label, idx, off, data[off], shadow[off], at.v, old.v)
			}
			set := attempt(func() float64 { setN(v, idx, -0.5); return 0 })
			if (set.panic == "") != inWrite {
				t.Errorf("rank %d: %s%v: write window says %v, Set panic %q", rank, label, idx, inWrite, set.panic)
			} else if inWrite {
				if data[off] != -0.5 {
					t.Errorf("rank %d: Set %s%v did not store at Strided cell %d", rank, label, idx, off)
				}
				data[off] = float64(off + 1)
			}
		}
		probe(0)
	}
	for d := 0; d < nd; d++ {
		n := v.Extent(d)
		for _, i := range []int{0, n / 2, n - 1} {
			sec := v.Section(d, i)
			if !sec.SharesStorage(v) {
				t.Errorf("rank %d: %s.Section(%d, %d) does not share its parent's storage", rank, label, d, i)
			}
			checkStrided(t, rank, fmt.Sprintf("%s.Section(%d, %d)", label, d, i), sec)
		}
	}
}
