package kf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/topology"
)

func exec(t *testing.T, nprocs int, g *topology.Grid, body func(c *Ctx) error) *machine.Machine {
	t.Helper()
	m := machine.New(nprocs, machine.ZeroComm())
	if err := Exec(m, g, body); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExecRunsOnGridOnly(t *testing.T) {
	m := machine.New(6, machine.ZeroComm())
	g := topology.New1D(4) // ranks 0-3
	ran := make([]bool, 6)
	err := Exec(m, g, func(c *Ctx) error {
		ran[c.P.Rank()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		if ran[r] != (r < 4) {
			t.Errorf("rank %d ran=%v", r, ran[r])
		}
	}
}

func TestDoall1OwnerComputes(t *testing.T) {
	g := topology.New1D(4)
	exec(t, 4, g, func(c *Ctx) error {
		a := c.NewArray(darray.Spec{Extents: []int{16}, Dists: []dist.Dist{dist.Block{}}})
		count := 0
		c.Doall1(R(0, 15), OnOwner1(a), nil, func(cc *Ctx, i int) {
			if !a.Owns(i) {
				t.Errorf("rank %d executes unowned %d", c.P.Rank(), i)
			}
			a.Set1(i, float64(i))
			count++
		})
		if count != 4 {
			t.Errorf("rank %d ran %d iterations", c.P.Rank(), count)
		}
		return nil
	})
}

func TestDoall1StridedRange(t *testing.T) {
	g := topology.New1D(2)
	exec(t, 2, g, func(c *Ctx) error {
		a := c.NewArray(darray.Spec{Extents: []int{10}, Dists: []dist.Dist{dist.Block{}}})
		var got []int
		c.Doall1(RStep(1, 9, 2), OnOwner1(a), nil, func(cc *Ctx, i int) {
			got = append(got, i)
		})
		for _, i := range got {
			if i%2 == 0 {
				t.Errorf("even index %d in odd-strided loop", i)
			}
		}
		total := c.AllReduceSum(float64(len(got)))
		if total != 5 {
			t.Errorf("total iterations %v, want 5", total)
		}
		return nil
	})
}

func TestCopyInCopyOutShift(t *testing.T) {
	// The paper's A(i) = A(i+1) shift: with copy-in/copy-out semantics no
	// temporary is needed and the result must be the ORIGINAL values
	// shifted, not a cascading overwrite.
	g := topology.New1D(4)
	exec(t, 4, g, func(c *Ctx) error {
		a := c.NewArray(darray.Spec{Extents: []int{16}, Dists: []dist.Dist{dist.Block{}}, Halo: []int{1}})
		a.Fill(func(idx []int) float64 { return float64(idx[0] * idx[0]) })
		c.Doall1(R(0, 14), OnOwner1(a), []LoopOpt{Reads(a)}, func(cc *Ctx, i int) {
			a.Set1(i, a.Old1(i+1))
		})
		for i := a.Lower(0); i <= a.Upper(0); i++ {
			want := float64((i + 1) * (i + 1))
			if i == 15 {
				want = 225 // untouched last element
			}
			if a.At1(i) != want {
				t.Errorf("a[%d] = %v, want %v", i, a.At1(i), want)
			}
		}
		return nil
	})
}

func TestCopyInIndependentOfIterationOrder(t *testing.T) {
	// Property: with copy-in/copy-out, a doall that reads neighbors and
	// writes itself produces results independent of the distribution
	// (hence of execution interleaving). Compare p=1 vs p=4.
	f := func(seed int64) bool {
		n := 32
		results := make([][]float64, 2)
		for k, procs := range []int{1, 4} {
			m := machine.New(procs, machine.ZeroComm())
			g := topology.New1D(procs)
			var flat []float64
			err := Exec(m, g, func(c *Ctx) error {
				a := c.NewArray(darray.Spec{Extents: []int{n}, Dists: []dist.Dist{dist.Block{}}, Halo: []int{1}})
				a.Fill(func(idx []int) float64 {
					x := uint64(seed) + uint64(idx[0])*2654435761
					x ^= x >> 13
					return float64(x % 97)
				})
				c.Doall1(R(1, n-2), OnOwner1(a), []LoopOpt{Reads(a)}, func(cc *Ctx, i int) {
					a.Set1(i, a.Old1(i-1)+a.Old1(i+1))
				})
				flat2 := a.GatherTo(c.NextScope(), 0)
				if c.P.Rank() == 0 {
					flat = flat2
				}
				return nil
			})
			if err != nil {
				return false
			}
			results[k] = flat
		}
		for i := range results[0] {
			if results[0][i] != results[1][i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestDoall2JacobiStep(t *testing.T) {
	// One Jacobi sweep on a 2-D block/block array must equal the
	// sequential computation.
	const n = 8
	g := topology.New(2, 2)
	// Sequential reference.
	ref := make([][]float64, n+1)
	old := make([][]float64, n+1)
	for i := range ref {
		ref[i] = make([]float64, n+1)
		old[i] = make([]float64, n+1)
		for j := range ref[i] {
			old[i][j] = float64(i*7 + j*3)
		}
	}
	for i := 1; i < n; i++ {
		for j := 1; j < n; j++ {
			ref[i][j] = 0.25 * (old[i+1][j] + old[i-1][j] + old[i][j+1] + old[i][j-1])
		}
	}
	exec(t, 4, g, func(c *Ctx) error {
		x := c.NewArray(darray.Spec{
			Extents: []int{n + 1, n + 1},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
			Halo:    []int{1, 1},
		})
		x.Fill(func(idx []int) float64 { return float64(idx[0]*7 + idx[1]*3) })
		c.Doall2(R(1, n-1), R(1, n-1), OnOwner2(x), []LoopOpt{Reads(x)},
			func(cc *Ctx, i, j int) {
				x.Set2(i, j, 0.25*(x.Old2(i+1, j)+x.Old2(i-1, j)+x.Old2(i, j+1)+x.Old2(i, j-1)))
			})
		x.OwnedEach(func(idx []int) {
			i, j := idx[0], idx[1]
			want := old[i][j]
			if i >= 1 && i < n && j >= 1 && j < n {
				want = ref[i][j]
			}
			if math.Abs(x.At2(i, j)-want) > 1e-12 {
				t.Errorf("x[%d,%d] = %v, want %v", i, j, x.At2(i, j), want)
			}
		})
		return nil
	})
}

func TestCallOnGridSlice(t *testing.T) {
	// Distributed procedure on a row of a 2x3 grid: only that row's
	// processors execute, and collectives inside span just the row.
	g := topology.New(2, 3)
	exec(t, 6, g, func(c *Ctx) error {
		for row := 0; row < 2; row++ {
			sub := g.Slice(row, topology.All)
			err := c.Call(sub, func(cc *Ctx) error {
				if !sub.Contains(cc.P.Rank()) {
					t.Errorf("rank %d in wrong row call", cc.P.Rank())
				}
				got := cc.AllReduceSum(1)
				if got != 3 {
					t.Errorf("row %d: sum = %v, want 3", row, got)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

func TestDoallSectionClause(t *testing.T) {
	// "doall i = ... on owner(r(i,*))": each iteration runs on a grid
	// row; inside, a collective spans exactly that row.
	const n = 8
	g := topology.New(2, 2)
	exec(t, 4, g, func(c *Ctx) error {
		r := c.NewArray(darray.Spec{
			Extents: []int{n, n},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
		})
		r.Fill(func(idx []int) float64 { return float64(idx[0]) })
		iters := 0
		c.Doall1(R(0, n-1), OnOwnerSection(r, 0), nil, func(cc *Ctx, i int) {
			iters++
			if cc.G.Size() != 2 {
				t.Errorf("iteration %d grid size %d, want 2", i, cc.G.Size())
			}
			row := r.Section(0, i)
			if !row.Participates() {
				t.Errorf("iteration %d: non-participant executed", i)
			}
			sum := 0.0
			for j := row.Lower(0); j <= row.Upper(0); j++ {
				sum += row.At1(j)
			}
			tot := cc.AllReduceSum(sum)
			if tot != float64(i*n) {
				t.Errorf("row %d total = %v, want %v", i, tot, float64(i*n))
			}
		})
		if iters != n/2 {
			t.Errorf("rank %d ran %d section iterations, want %d", c.P.Rank(), iters, n/2)
		}
		return nil
	})
}

func TestOnProcs(t *testing.T) {
	g := topology.New1D(4)
	exec(t, 4, g, func(c *Ctx) error {
		var mine []int
		c.Doall1(R(0, 3), OnProcs(), nil, func(cc *Ctx, ip int) {
			mine = append(mine, ip)
		})
		if len(mine) != 1 || mine[0] != c.GridIndex() {
			t.Errorf("rank %d executed %v", c.P.Rank(), mine)
		}
		return nil
	})
}

func TestGatherIrregular(t *testing.T) {
	// Runtime resolution of an indirect access pattern A(idx(i)).
	g := topology.New1D(4)
	exec(t, 4, g, func(c *Ctx) error {
		a := c.NewArray(darray.Spec{Extents: []int{16}, Dists: []dist.Dist{dist.Block{}}})
		a.Fill(func(idx []int) float64 { return float64(idx[0] * 11) })
		// Every processor reads a scattered set including remote cells.
		var want []int
		for k := 0; k < 16; k += 3 {
			want = append(want, (k+c.P.Rank()*5)%16)
		}
		gath := c.GatherIrregular(a, want)
		for _, i := range want {
			if gath.At(i) != float64(i*11) {
				t.Errorf("rank %d: gathered[%d] = %v", c.P.Rank(), i, gath.At(i))
			}
		}
		return nil
	})
}

func TestGatherIrregularUndeclaredPanics(t *testing.T) {
	g := topology.New1D(2)
	exec(t, 2, g, func(c *Ctx) error {
		a := c.NewArray(darray.Spec{Extents: []int{8}, Dists: []dist.Dist{dist.Block{}}})
		a.Fill(func(idx []int) float64 { return 1 })
		gath := c.GatherIrregular(a, nil)
		remote := (a.Upper(0) + 1) % 8
		defer func() {
			if recover() == nil {
				t.Errorf("rank %d: undeclared remote read did not panic", c.P.Rank())
			}
		}()
		gath.At(remote)
		return nil
	})
}

func TestNestedScopesDoNotCollide(t *testing.T) {
	// Different processors run different numbers of inner collectives on
	// disjoint slices; the structural scope derivation must keep the
	// final full-grid reduction consistent.
	g := topology.New(2, 2)
	exec(t, 4, g, func(c *Ctx) error {
		coord := c.Coord()
		row := g.Slice(coord[0], topology.All)
		// Row 0 does 1 inner phase, row 1 does 3.
		c.Call(row, func(cc *Ctx) error {
			for k := 0; k < 1+2*coord[0]; k++ {
				cc.AllReduceSum(1)
			}
			return nil
		})
		// Full-grid collective afterwards must still line up.
		if got := c.AllReduceSum(1); got != 4 {
			t.Errorf("final sum = %v, want 4", got)
		}
		return nil
	})
}

func TestRangeEach(t *testing.T) {
	var got []int
	RStep(10, 2, -3).Each(func(i int) { got = append(got, i) })
	want := []int{10, 7, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
		}
	}
}

func TestDoall3OwnerComputes(t *testing.T) {
	g := topology.New(2, 2)
	exec(t, 4, g, func(c *Ctx) error {
		a := c.NewArray(darray.Spec{
			Extents: []int{4, 6, 8},
			Dists:   []dist.Dist{dist.Star{}, dist.Block{}, dist.Block{}},
		})
		a.Zero()
		count := 0
		c.Doall3(R(0, 3), R(0, 5), R(0, 7), OnOwner3(a), nil,
			func(cc *Ctx, i, j, k int) {
				if !a.Owns(i, j, k) {
					t.Errorf("rank %d executes unowned (%d,%d,%d)", c.P.Rank(), i, j, k)
				}
				a.Set3(i, j, k, float64(i+10*j+100*k))
				count++
			})
		// All 4*6*8 cells covered exactly once across the grid.
		total := c.AllReduceSum(float64(count))
		if total != 4*6*8 {
			t.Errorf("total iterations %v, want %d", total, 4*6*8)
		}
		a.OwnedEach(func(idx []int) {
			want := float64(idx[0] + 10*idx[1] + 100*idx[2])
			if a.At(idx...) != want {
				t.Errorf("a%v = %v, want %v", idx, a.At(idx...), want)
			}
		})
		return nil
	})
}

func TestDoall3WithReads(t *testing.T) {
	// Copy-in semantics in 3-D: a z-shift reads pre-loop values.
	g := topology.New1D(2)
	exec(t, 2, g, func(c *Ctx) error {
		a := c.NewArray(darray.Spec{
			Extents: []int{3, 3, 8},
			Dists:   []dist.Dist{dist.Star{}, dist.Star{}, dist.Block{}},
			Halo:    []int{0, 0, 1},
		})
		a.Fill(func(idx []int) float64 { return float64(idx[2] * idx[2]) })
		c.Doall3(R(0, 2), R(0, 2), R(0, 6), OnOwner3(a), []LoopOpt{Reads(a)},
			func(cc *Ctx, i, j, k int) {
				a.Set3(i, j, k, a.Old3(i, j, k+1))
			})
		a.OwnedEach(func(idx []int) {
			k := idx[2]
			want := float64((k + 1) * (k + 1))
			if k == 7 {
				want = 49
			}
			if a.At(idx...) != want {
				t.Errorf("a%v = %v, want %v", idx, a.At(idx...), want)
			}
		})
		return nil
	})
}
