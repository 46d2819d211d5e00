package darray

import (
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/topology"
)

// run executes body on an n-processor simulated machine and fails the test
// on error.
func run(t *testing.T, n int, body func(p *machine.Proc) error) *machine.Machine {
	t.Helper()
	m := machine.New(n, machine.ZeroComm())
	if err := m.Run(body); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBlock1DOwnership(t *testing.T) {
	g := topology.New1D(4)
	run(t, 4, func(p *machine.Proc) error {
		a := New(p, g, Spec{Extents: []int{16}, Dists: []dist.Dist{dist.Block{}}})
		if a.Lower(0) != p.Rank()*4 || a.Upper(0) != p.Rank()*4+3 {
			t.Errorf("rank %d: [%d,%d]", p.Rank(), a.Lower(0), a.Upper(0))
		}
		if a.LocalSize(0) != 4 {
			t.Errorf("rank %d: local size %d", p.Rank(), a.LocalSize(0))
		}
		return nil
	})
}

func TestSetAtRoundTrip(t *testing.T) {
	g := topology.New1D(3)
	run(t, 3, func(p *machine.Proc) error {
		a := New(p, g, Spec{Extents: []int{10}, Dists: []dist.Dist{dist.Block{}}})
		for i := a.Lower(0); i <= a.Upper(0); i++ {
			a.Set1(i, float64(i*i))
		}
		for i := a.Lower(0); i <= a.Upper(0); i++ {
			if a.At1(i) != float64(i*i) {
				t.Errorf("At1(%d) = %v", i, a.At1(i))
			}
		}
		return nil
	})
}

func TestUnownedAccessPanics(t *testing.T) {
	g := topology.New1D(2)
	run(t, 2, func(p *machine.Proc) error {
		a := New(p, g, Spec{Extents: []int{8}, Dists: []dist.Dist{dist.Block{}}})
		other := (a.Lower(0) + 4) % 8
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d: reading unowned %d did not panic", p.Rank(), other)
				}
			}()
			a.At1(other)
		}()
		return nil
	})
}

func TestHaloWriteRejected(t *testing.T) {
	g := topology.New1D(2)
	run(t, 2, func(p *machine.Proc) error {
		a := New(p, g, Spec{Extents: []int{8}, Dists: []dist.Dist{dist.Block{}}, Halo: []int{1}})
		ghost := a.Lower(0) - 1
		if p.Rank() == 0 {
			ghost = a.Upper(0) + 1
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d: writing ghost %d did not panic", p.Rank(), ghost)
				}
			}()
			a.Set1(ghost, 1)
		}()
		return nil
	})
}

func TestExchangeHalo1D(t *testing.T) {
	g := topology.New1D(4)
	sc := machine.RootScope()
	run(t, 4, func(p *machine.Proc) error {
		a := New(p, g, Spec{Extents: []int{16}, Dists: []dist.Dist{dist.Block{}}, Halo: []int{1}})
		a.Fill(func(idx []int) float64 { return float64(idx[0]) })
		a.ExchangeHalo(sc)
		if lo := a.Lower(0); lo > 0 {
			if got := a.At1(lo - 1); got != float64(lo-1) {
				t.Errorf("rank %d: ghost %d = %v", p.Rank(), lo-1, got)
			}
		}
		if hi := a.Upper(0); hi < 15 {
			if got := a.At1(hi + 1); got != float64(hi+1) {
				t.Errorf("rank %d: ghost %d = %v", p.Rank(), hi+1, got)
			}
		}
		return nil
	})
}

func TestExchangeHalo2D(t *testing.T) {
	g := topology.New(2, 2)
	sc := machine.RootScope()
	run(t, 4, func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{8, 8},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
			Halo:    []int{1, 1},
		})
		a.Fill(func(idx []int) float64 { return float64(idx[0]*100 + idx[1]) })
		a.ExchangeHalo(sc)
		// Every interior neighbor read inside the halo must now work.
		for i := a.Lower(0); i <= a.Upper(0); i++ {
			for j := a.Lower(1); j <= a.Upper(1); j++ {
				for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					ni, nj := i+d[0], j+d[1]
					if ni < 0 || ni > 7 || nj < 0 || nj > 7 {
						continue
					}
					if got := a.At2(ni, nj); got != float64(ni*100+nj) {
						t.Errorf("rank %d: At(%d,%d) = %v", p.Rank(), ni, nj, got)
					}
				}
			}
		}
		return nil
	})
}

func TestExchangeHaloWide(t *testing.T) {
	// Halo width 2 with blocks of size 2: ghosts span exactly one
	// neighbor each side, but a width-3 halo would span two owners; use
	// width 2 across 4 procs of block 2 so runs stay single-owner, then
	// width 3 over larger blocks to cross owners.
	g := topology.New1D(4)
	sc := machine.RootScope()
	run(t, 4, func(p *machine.Proc) error {
		a := New(p, g, Spec{Extents: []int{8}, Dists: []dist.Dist{dist.Block{}}, Halo: []int{3}})
		a.Fill(func(idx []int) float64 { return float64(idx[0] + 1) })
		a.ExchangeHalo(sc)
		lo, hi := a.Lower(0), a.Upper(0)
		for i := lo - 3; i <= hi+3; i++ {
			if i < 0 || i > 7 {
				continue
			}
			if got := a.At1(i); got != float64(i+1) {
				t.Errorf("rank %d: At(%d) = %v, want %v", p.Rank(), i, got, float64(i+1))
			}
		}
		return nil
	})
}

func TestStarDimensionReplicated(t *testing.T) {
	g := topology.New1D(2)
	run(t, 2, func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{4, 6},
			Dists:   []dist.Dist{dist.Star{}, dist.Block{}},
		})
		// Star dim: every processor holds all i for its owned j's.
		for i := 0; i < 4; i++ {
			for j := a.Lower(1); j <= a.Upper(1); j++ {
				a.Set2(i, j, float64(i+10*j))
			}
		}
		for i := 0; i < 4; i++ {
			for j := a.Lower(1); j <= a.Upper(1); j++ {
				if a.At2(i, j) != float64(i+10*j) {
					t.Errorf("At(%d,%d) = %v", i, j, a.At2(i, j))
				}
			}
		}
		if a.Lower(0) != 0 || a.Upper(0) != 3 {
			t.Errorf("star bounds [%d,%d]", a.Lower(0), a.Upper(0))
		}
		return nil
	})
}

func TestReplicatedArray(t *testing.T) {
	g := topology.New(2, 2)
	run(t, 4, func(p *machine.Proc) error {
		a := New(p, g, ReplicatedSpec(5))
		for i := 0; i < 5; i++ {
			a.Set1(i, float64(i))
		}
		for i := 0; i < 5; i++ {
			if a.At1(i) != float64(i) {
				t.Errorf("replicated At(%d) = %v", i, a.At1(i))
			}
		}
		return nil
	})
}

func TestSectionOfTwoDim(t *testing.T) {
	g := topology.New(2, 2)
	run(t, 4, func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{8, 8},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
		})
		a.Fill(func(idx []int) float64 { return float64(idx[0]*100 + idx[1]) })
		// Row section a(3, *): owned by grid row of owner(3) = 0.
		row := a.Section(0, 3)
		wantPart := a.Owns(3, a.Lower(1))
		if row.Participates() != wantPart {
			t.Errorf("rank %d: row participation %v, want %v", p.Rank(), row.Participates(), wantPart)
		}
		if row.Participates() {
			if row.Dims() != 1 || row.Extent(0) != 8 {
				t.Errorf("row dims/extent: %d/%d", row.Dims(), row.Extent(0))
			}
			for j := row.Lower(0); j <= row.Upper(0); j++ {
				if row.At1(j) != float64(300+j) {
					t.Errorf("row.At(%d) = %v", j, row.At1(j))
				}
			}
			// Writes through the section land in the parent.
			row.Set1(row.Lower(0), -1)
			if a.At2(3, row.Lower(0)) != -1 {
				t.Error("section write not visible through parent")
			}
		}
		return nil
	})
}

func TestSectionOfSection(t *testing.T) {
	g := topology.New(2, 2)
	run(t, 4, func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{4, 6, 8},
			Dists:   []dist.Dist{dist.Star{}, dist.Block{}, dist.Block{}},
		})
		a.Fill(func(idx []int) float64 {
			return float64(idx[0]*1000 + idx[1]*100 + idx[2])
		})
		plane := a.Section(2, 5) // fixes k=5: subgrid column
		if plane.Participates() {
			line := plane.Section(1, 2) // fixes j=2: singleton
			if line.Participates() {
				for i := 0; i < 4; i++ {
					if line.At1(i) != float64(i*1000+200+5) {
						t.Errorf("line.At(%d) = %v", i, line.At1(i))
					}
				}
			}
		}
		return nil
	})
}

// SectionParticipates answers Section(d, i).Participates() without building
// the view; it must agree with it on members and non-members, from root
// arrays and from sections, and reject the same indices.
func TestSectionParticipatesMatchesSection(t *testing.T) {
	g := topology.New(2, 3)
	run(t, 8, func(p *machine.Proc) error { // ranks 6 and 7 are outside g
		a := New(p, g, Spec{
			Extents: []int{3, 5, 7},
			Dists:   []dist.Dist{dist.Star{}, dist.Block{}, dist.Cyclic{}},
		})
		check := func(v *Array) {
			for d := 0; d < v.Dims(); d++ {
				for i := 0; i < v.Extent(d); i++ {
					if got, want := v.SectionParticipates(d, i), v.Section(d, i).Participates(); got != want {
						t.Errorf("rank %d: %v.SectionParticipates(%d, %d) = %v, Section(...).Participates() = %v",
							p.Rank(), v, d, i, got, want)
					}
				}
			}
		}
		check(a)
		for j := 0; j < a.Extent(1); j++ {
			check(a.Section(1, j))
		}
		defer func() {
			if got, want := recover(), "darray: section index 7 out of extent 7"; got != want {
				t.Errorf("rank %d: SectionParticipates past the extent: panic %v, want %q", p.Rank(), got, want)
			}
		}()
		a.SectionParticipates(2, 7)
		return nil
	})
}

func TestSectionGridBinding(t *testing.T) {
	g := topology.New(2, 3)
	run(t, 6, func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{6, 9},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
		})
		// Section fixing dim 0 at i=4: owner along axis 0 is
		// Block.Owner(4, 6, 2) = 1, so the section's grid is grid row 1.
		s := a.Section(0, 4)
		wantRanks := g.Slice(1, topology.All).Ranks()
		gotRanks := s.Grid().Ranks()
		if len(gotRanks) != len(wantRanks) {
			t.Fatalf("section grid size %d, want %d", len(gotRanks), len(wantRanks))
		}
		for i := range wantRanks {
			if gotRanks[i] != wantRanks[i] {
				t.Errorf("section grid rank[%d] = %d, want %d", i, gotRanks[i], wantRanks[i])
			}
		}
		return nil
	})
}

func TestSnapshotOldValues(t *testing.T) {
	g := topology.New1D(2)
	run(t, 2, func(p *machine.Proc) error {
		a := New(p, g, Spec{Extents: []int{8}, Dists: []dist.Dist{dist.Block{}}})
		a.Fill(func(idx []int) float64 { return float64(idx[0]) })
		a.Snapshot()
		for i := a.Lower(0); i <= a.Upper(0); i++ {
			a.Set1(i, -1)
		}
		for i := a.Lower(0); i <= a.Upper(0); i++ {
			if a.Old1(i) != float64(i) {
				t.Errorf("Old(%d) = %v", i, a.Old1(i))
			}
			if a.At1(i) != -1 {
				t.Errorf("At(%d) = %v", i, a.At1(i))
			}
		}
		a.ReleaseSnapshot()
		return nil
	})
}

func TestGatherTo(t *testing.T) {
	g := topology.New(2, 2)
	sc := machine.RootScope()
	run(t, 4, func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{6, 6},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
		})
		a.Fill(func(idx []int) float64 { return float64(idx[0]*10 + idx[1]) })
		flat := a.GatherTo(sc, 0)
		if p.Rank() == 0 {
			if len(flat) != 36 {
				t.Fatalf("gathered %d values", len(flat))
			}
			for i := 0; i < 6; i++ {
				for j := 0; j < 6; j++ {
					if flat[i*6+j] != float64(i*10+j) {
						t.Errorf("flat[%d,%d] = %v", i, j, flat[i*6+j])
					}
				}
			}
		} else if flat != nil {
			t.Errorf("rank %d: non-nil gather result", p.Rank())
		}
		return nil
	})
}

func TestCopySetOwned1(t *testing.T) {
	g := topology.New1D(3)
	run(t, 3, func(p *machine.Proc) error {
		a := New(p, g, Spec{Extents: []int{10}, Dists: []dist.Dist{dist.Block{}}})
		a.Fill(func(idx []int) float64 { return float64(idx[0] * 2) })
		buf := make([]float64, a.LocalSize(0))
		n := a.CopyOwned1(buf)
		if n != a.LocalSize(0) {
			t.Fatalf("copied %d", n)
		}
		for k := 0; k < n; k++ {
			if buf[k] != float64((a.Lower(0)+k)*2) {
				t.Errorf("buf[%d] = %v", k, buf[k])
			}
			buf[k] += 1
		}
		a.SetOwned1(buf[:n])
		if a.At1(a.Lower(0)) != float64(a.Lower(0)*2+1) {
			t.Error("SetOwned1 did not write back")
		}
		return nil
	})
}

func TestRedistributeBlockToCyclic(t *testing.T) {
	g := topology.New1D(4)
	sc := machine.RootScope()
	run(t, 4, func(p *machine.Proc) error {
		a := New(p, g, Spec{Extents: []int{17}, Dists: []dist.Dist{dist.Block{}}})
		a.Fill(func(idx []int) float64 { return float64(idx[0] * 3) })
		b := a.Redistribute(sc, g, Spec{Extents: []int{17}, Dists: []dist.Dist{dist.Cyclic{}}})
		b.OwnedEach(func(idx []int) {
			if b.At(idx...) != float64(idx[0]*3) {
				t.Errorf("rank %d: b[%d] = %v", p.Rank(), idx[0], b.At(idx...))
			}
		})
		return nil
	})
}

func TestRedistributeAcrossGridShapes(t *testing.T) {
	// (block, block) on 2x2  ->  (*, block) on 1x4 : the paper's C3
	// distribution experiment in miniature.
	sc := machine.RootScope()
	run(t, 4, func(p *machine.Proc) error {
		g2 := topology.New(2, 2)
		g1 := topology.New1D(4)
		a := New(p, g2, Spec{
			Extents: []int{8, 8},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
		})
		a.Fill(func(idx []int) float64 { return float64(idx[0]*8 + idx[1]) })
		b := a.Redistribute(sc, g1, Spec{
			Extents: []int{8, 8},
			Dists:   []dist.Dist{dist.Star{}, dist.Block{}},
		})
		b.OwnedEach(func(idx []int) {
			if b.At(idx...) != float64(idx[0]*8+idx[1]) {
				t.Errorf("rank %d: b[%d,%d] = %v", p.Rank(), idx[0], idx[1], b.At(idx...))
			}
		})
		return nil
	})
}

func TestRedistributePreservesContentsProperty(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw%40) + 4
		ok := true
		m := machine.New(4, machine.ZeroComm())
		err := m.Run(func(p *machine.Proc) error {
			g := topology.New1D(4)
			sc := machine.RootScope()
			a := New(p, g, Spec{Extents: []int{n}, Dists: []dist.Dist{dist.Block{}}})
			a.Fill(func(idx []int) float64 {
				return float64((int64(idx[0])*2654435761 + seed) % 1000)
			})
			b := a.Redistribute(sc, g, Spec{Extents: []int{n}, Dists: []dist.Dist{dist.Cyclic{}}})
			c := b.Redistribute(sc.Child(1, 0), g, Spec{Extents: []int{n}, Dists: []dist.Dist{dist.Block{}}})
			c.OwnedEach(func(idx []int) {
				if c.At(idx...) != a.At(idx...) {
					ok = false
				}
			})
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyBlocksOnCoarseExtent(t *testing.T) {
	// Extent smaller than processor count: some blocks are empty; halo
	// exchange and gathers must still work.
	g := topology.New1D(8)
	sc := machine.RootScope()
	run(t, 8, func(p *machine.Proc) error {
		a := New(p, g, Spec{Extents: []int{3}, Dists: []dist.Dist{dist.Block{}}, Halo: []int{1}})
		a.Fill(func(idx []int) float64 { return float64(idx[0] + 7) })
		a.ExchangeHalo(sc)
		if a.LocalSize(0) > 0 {
			lo, hi := a.Lower(0), a.Upper(0)
			if lo > 0 && a.At1(lo-1) != float64(lo-1+7) {
				t.Errorf("rank %d ghost lo", p.Rank())
			}
			if hi < 2 && a.At1(hi+1) != float64(hi+1+7) {
				t.Errorf("rank %d ghost hi", p.Rank())
			}
		}
		flat := a.GatherTo(sc.Child(9, 9), 0)
		if p.Rank() == 0 {
			for i := 0; i < 3; i++ {
				if flat[i] != float64(i+7) {
					t.Errorf("flat[%d] = %v", i, flat[i])
				}
			}
		}
		return nil
	})
}

func TestCyclicDistributionAccess(t *testing.T) {
	g := topology.New1D(3)
	run(t, 3, func(p *machine.Proc) error {
		a := New(p, g, Spec{Extents: []int{10}, Dists: []dist.Dist{dist.Cyclic{}}})
		a.Fill(func(idx []int) float64 { return float64(idx[0]) })
		count := 0
		a.OwnedEach(func(idx []int) {
			if idx[0]%3 != p.Rank() {
				t.Errorf("rank %d owns %d", p.Rank(), idx[0])
			}
			count++
		})
		want := dist.Cyclic{}.Size(p.Rank(), 10, 3)
		if count != want {
			t.Errorf("rank %d: %d owned, want %d", p.Rank(), count, want)
		}
		return nil
	})
}

func TestSpecValidation(t *testing.T) {
	g := topology.New(2, 2)
	run(t, 4, func(p *machine.Proc) error {
		cases := []Spec{
			{Extents: []int{8}, Dists: []dist.Dist{dist.Block{}}},                                   // 1 dist dim on 2-D grid
			{Extents: []int{8, 8}, Dists: []dist.Dist{dist.Block{}}},                                // arity mismatch
			{Extents: []int{8, 8, 8}, Dists: []dist.Dist{dist.Block{}, dist.Block{}, dist.Block{}}}, // 3 on 2-D grid
			{Extents: []int{8}, Dists: []dist.Dist{dist.Cyclic{}}, Halo: []int{1}},                  // halo on cyclic (wrong grid arity too)
		}
		for i, spec := range cases {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("spec %d did not panic", i)
					}
				}()
				New(p, g, spec)
			}()
		}
		return nil
	})
}

func TestOwnerIndex(t *testing.T) {
	g := topology.New1D(4)
	run(t, 4, func(p *machine.Proc) error {
		a := New(p, g, Spec{Extents: []int{16}, Dists: []dist.Dist{dist.Block{}}})
		for i := 0; i < 16; i++ {
			if a.OwnerIndex(0, i) != i/4 {
				t.Errorf("OwnerIndex(%d) = %d", i, a.OwnerIndex(0, i))
			}
		}
		return nil
	})
}
