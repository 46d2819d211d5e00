package kf

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/topology"
)

// The compiled loops' census: a stencil statement's row path is the same on
// every processor of one position class (first, interior or last along each
// grid axis), so a machine holds one compiled loop per class, however many
// ranks bind it. (internal/darray's TestClassCensus takes the census of the
// arrays' views.)

// listing3 is the paper's Listing 3 statement over (X, f).
func listing3() *Statement {
	x, f := Param(0), Param(1)
	return Assign(x, Sub(Scale(0.25, Sum(x.Old(1, 0), x.Old(-1, 0), x.Old(0, 1), x.Old(0, -1))), f.Old(0, 0)))
}

// jacobiDecl is a Jacobi program's declarations on one rank: X with halos,
// f without, and the sweep over them.
type jacobiDecl struct {
	x, f  *darray.Array
	sweep *Stencil
}

// runJacobiStencil runs two passes of stmt over n x n arrays on a side x
// side grid, twice on one machine as a warmed System would (the second run
// reuses the declarations), or with closure true the same passes as a
// closure body. It returns every rank's owned values of X, the
// declarations, and how many compiled loops the runs built.
func runJacobiStencil(t *testing.T, stmt *Statement, side, n int, closure bool) ([][]float64, []*jacobiDecl, int64) {
	t.Helper()
	g := topology.New(side, side)
	m := machine.New(g.Size(), machine.ZeroComm())
	vals := make([][]float64, g.Size())
	decls := make([]*jacobiDecl, g.Size())
	built := loopBuilds.Load()
	for run := 0; run < 2; run++ {
		err := Exec(m, g, func(c *Ctx) error {
			d, fresh := Declared[jacobiDecl](c, n)
			if fresh {
				spec := darray.Spec{Extents: []int{n, n}, Dists: []dist.Dist{dist.Block{}, dist.Block{}}, Halo: []int{1, 1}}
				d.x = c.NewArray(spec)
				spec.Halo = nil
				d.f = c.NewArray(spec)
				if !closure {
					d.sweep = c.Plan2(R(1, n-2), R(1, n-2), OnOwner2(d.x), Reads(d.x), ReadsNoHalo(d.f)).Stencil(stmt, d.x, d.f)
				}
			}
			d.x.FillOwned(func(idx []int) float64 { return float64((idx[0]*7 + idx[1]*3) % 11) })
			d.f.FillOwned(func(idx []int) float64 { return float64((idx[0]+idx[1])%5) / 8 })
			for it := 0; it < 2; it++ {
				if !closure {
					d.sweep.Run()
					continue
				}
				x, f := d.x, d.f
				c.Doall2(R(1, n-2), R(1, n-2), OnOwner2(x), []LoopOpt{Reads(x), ReadsNoHalo(f)}, func(cc *Ctx, i, j int) {
					x.Set2(i, j, 0.25*(x.Old2(i+1, j)+x.Old2(i-1, j)+x.Old2(i, j+1)+x.Old2(i, j-1))-f.Old2(i, j))
					cc.P.Compute(5)
				})
			}
			r := c.P.Rank()
			vals[r] = vals[r][:0]
			d.x.OwnedEach(func(idx []int) { vals[r] = append(vals[r], d.x.At(idx...)) })
			decls[r] = d
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return vals, decls, loopBuilds.Load() - built
}

// TestClassCensusLoops: a warmed Jacobi sweep's ranks hold the same number
// of distinct compiled loops on 256, 1,024 and 4,096 ranks — at most one
// per position class, 9 in 2-D — each built once, every rank on the row
// path, and the values are the closure body's bit for bit.
func TestClassCensusLoops(t *testing.T) {
	stmt := listing3()
	first := 0
	for k, side := range []int{16, 32, 64} {
		want, _, _ := runJacobiStencil(t, stmt, side, 256, true)
		got, decls, built := runJacobiStencil(t, stmt, side, 256, false)
		loops := map[*stencilClass]bool{}
		for r, d := range decls {
			if d.sweep.cell != nil {
				t.Fatalf("Grid(%d, %d) rank %d: the sweep took the per-cell path", side, side, r)
			}
			loops[d.sweep.cls] = true
			for i, v := range want[r] {
				if math.Float64bits(got[r][i]) != math.Float64bits(v) {
					t.Fatalf("Grid(%d, %d) rank %d value %d: statement %v, closure %v", side, side, r, i, got[r][i], v)
				}
			}
		}
		t.Logf("Grid(%d, %d): %d compiled loops (%d built) over %d ranks", side, side, len(loops), built, side*side)
		if len(loops) > 9 {
			t.Errorf("Grid(%d, %d): %d distinct compiled loops, want at most one per position class (9)", side, side, len(loops))
		}
		if built != int64(len(loops)) {
			t.Errorf("Grid(%d, %d): %d compiled loops built for %d held: a loop was built twice", side, side, built, len(loops))
		}
		if k == 0 {
			first = len(loops)
		} else if len(loops) != first {
			t.Errorf("Grid(%d, %d): %d compiled loops, Grid(16, 16) holds %d: it grows with the rank count", side, side, len(loops), first)
		}
	}
}

// TestStencilSnapshotsOnlyWhatItWrites: a statement's Old reads of an array
// it does not assign read the live data, so the loop takes no snapshot of
// that array, on the row path and on the per-cell path (which an option
// over an array the statement is not bound to forces). The destination's
// own Old reads — also through a second parameter bound to it — read its
// snapshot on both paths. Either way the values are the closure body's.
func TestStencilSnapshotsOnlyWhatItWrites(t *testing.T) {
	const n = 18
	x0, y0 := Param(0), Param(1)
	// x = 0.5*(y.Old(1, 0) + y.Old(0, -1)) + x.Old(0, 1): bound as (a, a),
	// y is the destination itself; bound as (a, b), y is b.
	stmt := Assign(x0, Sum(Scale(0.5, Sum(y0.Old(1, 0), y0.Old(0, -1))), x0.Old(0, 1)))
	spec := darray.Spec{Extents: []int{n, n}, Dists: []dist.Dist{dist.Block{}, dist.Block{}}, Halo: []int{1, 1}}
	g := topology.New(2, 3)
	for _, tc := range []struct {
		name          string
		aliased, cell bool
	}{
		{"(a, b) by rows", false, false},
		{"(a, b) by cells", false, true},
		{"(a, a) by rows", true, false},
		{"(a, a) by cells", true, true},
	} {
		var got, want [][]float64
		for _, closure := range []bool{false, true} {
			vals := make([][]float64, g.Size())
			m := machine.New(g.Size(), machine.Balanced())
			err := Exec(m, g, func(c *Ctx) error {
				a, b, z := c.NewArray(spec), c.NewArray(spec), c.NewArray(spec)
				a.FillOwned(func(idx []int) float64 { return float64(idx[0]*n + idx[1]) })
				b.FillOwned(func(idx []int) float64 { return float64(idx[0]-idx[1]) / 4 })
				y := b
				if tc.aliased {
					y = a
				}
				opts := []LoopOpt{Reads(a)}
				if !tc.aliased {
					opts = append(opts, Reads(b))
				}
				if tc.cell {
					opts = append(opts, ReadsNoHalo(z))
				}
				pl := c.Plan2(R(1, n-2), R(1, n-2), OnOwner2(a), opts...)
				s := pl.Stencil(stmt, a, y)
				if (s.cell != nil) != tc.cell {
					t.Fatalf("rank %d: per-cell path %v, want %v", c.P.Rank(), s.cell != nil, tc.cell)
				}
				if live := s.cls.live&(1<<1) != 0; live != !tc.aliased {
					t.Errorf("rank %d: Param(1) reads live data: %v, want %v", c.P.Rank(), live, !tc.aliased)
				}
				snaps := map[*darray.Array]bool{}
				if tc.cell {
					for _, o := range s.cell.pl.opts {
						snaps[o.(*reads).a] = !o.(*reads).live
					}
				} else {
					for _, o := range s.cls.opts {
						snaps[s.arrs[o.arg]] = !o.live
					}
				}
				if !snaps[a] || snaps[b] || snaps[z] {
					t.Errorf("rank %d: snapshots a %v, b %v, z %v; want a's alone", c.P.Rank(), snaps[a], snaps[b], snaps[z])
				}
				for it := 0; it < 3; it++ {
					if !closure {
						s.Run()
						continue
					}
					pl.Run(func(cc *Ctx, i, j int) {
						a.Set2(i, j, float64(0.5*(y.Old2(i+1, j)+y.Old2(i, j-1)))+a.Old2(i, j+1))
						cc.P.Compute(3)
					})
				}
				r := c.P.Rank()
				a.OwnedEach(func(idx []int) { vals[r] = append(vals[r], a.At(idx...)) })
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if closure {
				want = vals
			} else {
				got = vals
			}
		}
		for r := range want {
			for i, v := range want[r] {
				if math.Float64bits(got[r][i]) != math.Float64bits(v) {
					t.Fatalf("%s rank %d value %d: statement %v, closure %v", tc.name, r, i, got[r][i], v)
				}
			}
		}
	}
}

// TestCompiledLoopsLeaveWithLastHolder: the compiled loops are held by the
// machine's intern table only weakly — once no rank holds its stencil and
// its arrays, every entry (the loops, and the views' class parts, layouts
// and halo schedules beside them) leaves the table after a collection.
func TestCompiledLoopsLeaveWithLastHolder(t *testing.T) {
	g := topology.New(4, 4)
	m := machine.New(g.Size(), machine.ZeroComm())
	stmt := listing3()
	decls := make([]*jacobiDecl, g.Size())
	err := Exec(m, g, func(c *Ctx) error {
		spec := darray.Spec{Extents: []int{40, 40}, Dists: []dist.Dist{dist.Block{}, dist.Block{}}, Halo: []int{1, 1}}
		d := &jacobiDecl{x: c.NewArray(spec), f: c.NewArray(spec)}
		d.sweep = c.Plan2(R(1, 38), R(1, 38), OnOwner2(d.x), Reads(d.x), ReadsNoHalo(d.f)).Stencil(stmt, d.x, d.f)
		d.sweep.Run()
		decls[c.P.Rank()] = d
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	loops := map[*stencilClass]bool{}
	for _, d := range decls {
		loops[d.sweep.cls] = true
	}
	held := m.Interned()
	t.Logf("%d ranks hold %d compiled loops; the table has %d entries", g.Size(), len(loops), held)
	if len(loops) != 9 || held < len(loops) {
		t.Fatalf("%d compiled loops in a table of %d entries, want 9 of them in it", len(loops), held)
	}
	runtime.KeepAlive(decls)
	decls = nil
	deadline := time.Now().Add(10 * time.Second)
	for m.Interned() > 0 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := m.Interned(); n != 0 {
		t.Errorf("%d entries remain after every holder was dropped, want 0", n)
	}
}
