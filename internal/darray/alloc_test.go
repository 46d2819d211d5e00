package darray

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/topology"
)

// The runtime's hot paths must not allocate in steady state: element access
// goes through cached per-dimension offsets, and halo exchange packs into
// pooled message buffers that the receiver releases. These tests pin that
// property with testing.AllocsPerRun so a regression fails loudly instead
// of silently bloating every simulated program.

func TestAt2Set2ZeroAllocs(t *testing.T) {
	m := machine.New(1, machine.ZeroComm())
	g := topology.New(1, 1)
	err := m.Run(func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{32, 32},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
			Halo:    []int{1, 1},
		})
		a.Fill(func(idx []int) float64 { return float64(idx[0] + idx[1]) })
		sink := 0.0
		avg := testing.AllocsPerRun(200, func() {
			for i := 1; i < 31; i++ {
				for j := 1; j < 31; j++ {
					sink += a.At2(i-1, j) + a.At2(i+1, j)
					a.Set2(i, j, sink)
				}
			}
		})
		if avg != 0 {
			t.Errorf("At2/Set2 sweep: %v allocs per run, want 0", avg)
		}
		_ = sink
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAt1Set1SectionZeroAllocs(t *testing.T) {
	m := machine.New(1, machine.ZeroComm())
	g := topology.New(1, 1)
	err := m.Run(func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{16, 16},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
		})
		a.Zero()
		row := a.Section(0, 3)
		sink := 0.0
		avg := testing.AllocsPerRun(200, func() {
			for j := 0; j < 16; j++ {
				row.Set1(j, sink)
				sink += row.At1(j)
			}
		})
		if avg != 0 {
			t.Errorf("section At1/Set1 sweep: %v allocs per run, want 0", avg)
		}
		_ = sink
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeHaloZeroAllocsSteadyState(t *testing.T) {
	// Both processors run warm+runs+1 exchanges on one fixed scope
	// (repeated tags match FIFO per stream). Rank 0 measures the last
	// runs+1 of them; rank 1 mirrors them outside the measurement.
	// AllocsPerRun counts process-global allocations, so rank 1
	// allocating would fail the test too — which is exactly the
	// property under test, on both sides.
	const warm, runs = 8, 50
	m := machine.New(2, machine.ZeroComm())
	g := topology.New1D(2)
	sc := machine.RootScope()
	err := m.Run(func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{64, 64},
			Dists:   []dist.Dist{dist.Star{}, dist.Block{}},
			Halo:    []int{0, 2},
		})
		a.Fill(func(idx []int) float64 { return float64(idx[0]*64 + idx[1]) })
		for i := 0; i < warm; i++ {
			a.ExchangeHalo(sc)
		}
		if p.Rank() == 0 {
			avg := testing.AllocsPerRun(runs, func() { a.ExchangeHalo(sc) })
			if avg != 0 {
				t.Errorf("warmed ExchangeHalo: %v allocs per run, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				a.ExchangeHalo(sc)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeHalo2DZeroAllocsSteadyState(t *testing.T) {
	// The 2-D version exercises strided (non-innermost) plane packing, on
	// one fixed scope and, at 256x256, on a fresh scope per exchange as
	// kf.Ctx.NextScope hands out (new tags every time).
	const warm, runs = 8, 30
	for _, tc := range []struct {
		n     int
		fresh bool
	}{{32, false}, {256, true}} {
		m := machine.New(4, machine.ZeroComm())
		g := topology.New(2, 2)
		err := m.Run(func(p *machine.Proc) error {
			a := New(p, g, Spec{
				Extents: []int{tc.n, tc.n},
				Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
				Halo:    []int{1, 1},
			})
			a.Fill(func(idx []int) float64 { return float64(idx[0] + idx[1]) })
			sc, seq := machine.RootScope(), 0
			exchange := func() {
				if tc.fresh {
					a.ExchangeHalo(sc.Child(seq, -1))
					seq++
				} else {
					a.ExchangeHalo(sc)
				}
			}
			for i := 0; i < warm; i++ {
				exchange()
			}
			if p.Rank() == 0 {
				if avg := testing.AllocsPerRun(runs, exchange); avg != 0 {
					t.Errorf("warmed 2-D ExchangeHalo of %dx%d: %v allocs per run, want 0", tc.n, tc.n, avg)
				}
			} else {
				for i := 0; i < runs+1; i++ {
					exchange()
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestExchangeHaloRunBasedMatchesReference cross-checks the run-based
// pack/unpack against a straightforward per-cell reference on an uneven
// 3-D section-free layout, so the copy-based fast path cannot silently
// reorder values.
func TestExchangeHaloRunBasedMatchesReference(t *testing.T) {
	m := machine.New(4, machine.ZeroComm())
	g := topology.New(2, 2)
	sc := machine.RootScope()
	err := m.Run(func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{5, 13, 11},
			Dists:   []dist.Dist{dist.Star{}, dist.Block{}, dist.Block{}},
			Halo:    []int{0, 2, 1},
		})
		a.Fill(func(idx []int) float64 {
			return float64(idx[0]*10000 + idx[1]*100 + idx[2])
		})
		a.ExchangeHalo(sc)
		for i := 0; i < 5; i++ {
			for j := a.Lower(1) - 2; j <= a.Upper(1)+2; j++ {
				if j < 0 || j > 12 {
					continue
				}
				jGhost := j < a.Lower(1) || j > a.Upper(1)
				for k := a.Lower(2) - 1; k <= a.Upper(2)+1; k++ {
					if k < 0 || k > 10 {
						continue
					}
					kGhost := k < a.Lower(2) || k > a.Upper(2)
					if jGhost && kGhost {
						continue // corner ghosts are not exchanged
					}
					want := float64(i*10000 + j*100 + k)
					if got := a.At3(i, j, k); got != want {
						t.Errorf("rank %d: At(%d,%d,%d) = %v, want %v", p.Rank(), i, j, k, got, want)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
