// Package adi implements the paper's Section 4: two-dimensional ADI
// (Alternating Direction Implicit) iteration built from the one-dimensional
// parallel tridiagonal kernels, in the two forms of Listings 7 and 8:
//
//   - Parallel (Listing 7): each implicit line solve is a call to the
//     constant-coefficient tridiagonal solver on the grid slice owning that
//     line ("doall i = 1, nx on owner(r(i,*)) : call tric(...)"), so a grid
//     row solves its lines one at a time.
//   - ParallelPipelined (Listing 8): each grid slice hands all of its lines
//     to the pipelined multi-system solver at once, keeping the slice's
//     processors busy — the paper's madi.
//
// The iteration itself is Peaceman-Rachford with a fixed acceleration
// parameter rho: for -(a·u_xx + b·u_yy) = f with homogeneous Dirichlet
// boundaries,
//
//	(rho·I + H) u*   = (rho·I - V) u  + f     (tridiagonal solves along x)
//	(rho·I + V) u'   = (rho·I - H) u* + f     (tridiagonal solves along y)
//
// where H = -a·∂xx and V = -b·∂yy. The paper's Listing 7 abbreviates the
// update ("one replaces the right hand side f by the residual and repeats");
// Peaceman-Rachford is the standard concrete realization with the same
// parallel structure — two stencil sweeps and two families of tridiagonal
// solves per iteration — and it actually converges, which the experiments
// need. This paragraph is the record of that deviation; experiments E4 and
// E5 (`kfbench -list`, README "Running the paper's experiments") run it.
package adi

import (
	"math"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/topology"
	"repro/internal/tridiag"
)

// Params configures an ADI solve of -(a·u_xx + b·u_yy) = f on the unit
// square with an N x N interior point grid (unknowns only; the zero
// boundary is implicit) and spacing h = 1/(N+1).
type Params struct {
	// N is the number of interior points per side.
	N int
	// A and B are the (positive) diffusion coefficients in x and y.
	A, B float64
	// Rho is the Peaceman-Rachford parameter; 0 selects the single
	// optimal parameter 2*pi for the unit square model problem.
	Rho float64
	// Iters is the number of double sweeps to run.
	Iters int
}

func (p Params) rho() float64 {
	if p.Rho != 0 {
		return p.Rho
	}
	return 2 * math.Pi
}

func (p Params) h() float64 { return 1 / float64(p.N+1) }

// Result carries a parallel ADI run's outputs.
type Result struct {
	// U is the final interior solution, gathered on rank 0 (nil
	// elsewhere).
	U [][]float64
	// ResNorm is the max-norm residual after each iteration.
	ResNorm []float64
	// Elapsed is the virtual time of the iteration loop.
	Elapsed float64
	// Stats aggregates the machine counters for the whole run.
	Stats machine.Stats
}

// Sequential runs the same iteration on plain slices — the reference the
// parallel versions must match.
func Sequential(par Params, f [][]float64) ([][]float64, []float64) {
	n := par.N
	h := par.h()
	rho := par.rho()
	ax := par.A / (h * h)
	by := par.B / (h * h)
	u := mat(n)
	ustar := mat(n)
	rhs := mat(n)
	var history []float64
	bvec := make([]float64, n)
	avec := make([]float64, n)
	cvec := make([]float64, n)
	rvec := make([]float64, n)
	xvec := make([]float64, n)
	cpvec := make([]float64, n)
	fpvec := make([]float64, n)
	for it := 0; it < par.Iters; it++ {
		// Sweep 1: (rho + H) u* = (rho - V) u + f, tridiagonal in x.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				rhs[i][j] = (rho-2*by)*u[i][j] + by*(at(u, i, j-1)+at(u, i, j+1)) + f[i][j]
			}
		}
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				bvec[i], avec[i], cvec[i] = -ax, rho+2*ax, -ax
				rvec[i] = rhs[i][j]
			}
			bvec[0], cvec[n-1] = 0, 0
			kernels.ThomasWith(nil, bvec, avec, cvec, rvec, xvec, cpvec, fpvec)
			for i := 0; i < n; i++ {
				ustar[i][j] = xvec[i]
			}
		}
		// Sweep 2: (rho + V) u = (rho - H) u* + f, tridiagonal in y.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				rhs[i][j] = (rho-2*ax)*ustar[i][j] + ax*(at(ustar, i-1, j)+at(ustar, i+1, j)) + f[i][j]
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				bvec[j], avec[j], cvec[j] = -by, rho+2*by, -by
				rvec[j] = rhs[i][j]
			}
			bvec[0], cvec[n-1] = 0, 0
			kernels.ThomasWith(nil, bvec, avec, cvec, rvec, xvec, cpvec, fpvec)
			copy(u[i], xvec[:n])
		}
		history = append(history, residualNorm(par, u, f))
	}
	return u, history
}

// at reads u with zero Dirichlet boundary outside [0, n).
func at(u [][]float64, i, j int) float64 {
	if i < 0 || j < 0 || i >= len(u) || j >= len(u) {
		return 0
	}
	return u[i][j]
}

// residualNorm returns ||f - (H+V)u||_inf for the sequential grids.
func residualNorm(par Params, u, f [][]float64) float64 {
	n := par.N
	h := par.h()
	ax := par.A / (h * h)
	by := par.B / (h * h)
	worst := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			lap := ax*(at(u, i-1, j)-2*u[i][j]+at(u, i+1, j)) +
				by*(at(u, i, j-1)-2*u[i][j]+at(u, i, j+1))
			if r := math.Abs(f[i][j] + lap); r > worst {
				worst = r
			}
		}
	}
	return worst
}

// Parallel runs ADI on a px x py processor grid with (block, block) arrays,
// line by line (Listing 7). Set pipelined to solve each slice's lines
// through the pipelined multi-system solver instead (Listing 8's madi).
func Parallel(m *machine.Machine, g *topology.Grid, par Params, f [][]float64, pipelined bool) (Result, error) {
	var res Result
	err := kf.Exec(m, g, func(c *kf.Ctx) error {
		flat, hist, elapsed := ParallelCtx(c, par, f, pipelined)
		if c.GridIndex() == 0 {
			res.ResNorm = hist
			res.Elapsed = elapsed
		}
		if c.P.Rank() == 0 {
			n := par.N
			out := make([][]float64, n)
			for i := range out {
				out[i] = flat[i*n : (i+1)*n]
			}
			res.U = out
		}
		return nil
	})
	res.Stats = m.TotalStats()
	return res, err
}

// decl is ParallelCtx's declaration half, kept on the root context across
// runs (kf.Declared) and rebuilt when N changes: the four arrays, every loop
// header, and the owned lines madi hands the pipelined solver per direction.
type decl struct {
	u, ustar, rhs, fd        *darray.Array
	sweep1, sweep2, residual *kf.Plan2
	solveX, solveY           *kf.Plan1
	linesX, linesY           lines
}

// build declares the arrays and compiles every loop header once, outside
// the iteration loop — the hoisting a KF1 compiler performs: halo
// schedules, owned strips and iteration grids derive here, and the loop
// body only moves data.
func (d *decl) build(c *kf.Ctx, n int) {
	spec := darray.Spec{
		Extents: []int{n, n},
		Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
		Halo:    []int{1, 1},
	}
	d.u, d.ustar, d.rhs, d.fd = c.NewArray(spec), c.NewArray(spec), c.NewArray(spec), c.NewArray(spec)
	all := kf.R(0, n-1)
	d.sweep1 = c.Plan2(all, all, kf.OnOwner2(d.rhs), kf.Reads(d.u, 1))
	d.sweep2 = c.Plan2(all, all, kf.OnOwner2(d.rhs), kf.Reads(d.ustar, 0))
	d.residual = c.Plan2(all, all, kf.OnOwner2(d.u), kf.Reads(d.u))
	d.solveX = c.Plan1(all, kf.OnOwnerSection(d.rhs, 1))
	d.solveY = c.Plan1(all, kf.OnOwnerSection(d.rhs, 0))
	d.linesX, d.linesY = ownedLines(d.ustar, d.rhs, 1), ownedLines(d.u, d.rhs, 0)
}

// ParallelCtx is the ADI iteration as a plain parallel subroutine body —
// the declare-once form a core.Program wraps to run the identical
// computation on any system. It returns the flat gathered solution on
// rank 0 (nil elsewhere), the residual history on grid index 0, and the
// iteration loop's elapsed virtual time (identical on every rank).
func ParallelCtx(c *kf.Ctx, par Params, f [][]float64, pipelined bool) (flat, resNorm []float64, elapsed float64) {
	n := par.N
	h := par.h()
	rho := par.rho()
	ax := par.A / (h * h)
	by := par.B / (h * h)
	d, fresh := kf.Declared[decl](c, n)
	if fresh {
		d.build(c, n)
	}
	u, ustar, rhs, fd := d.u, d.ustar, d.rhs, d.fd
	u.Zero()
	ustar.Zero()
	rhs.Zero()
	fd.Fill(func(idx []int) float64 { return f[idx[0]][idx[1]] })

	stencilY := func(src *darray.Array, coef float64) func(cc *kf.Ctx, i, j int) {
		return func(cc *kf.Ctx, i, j int) {
			up, down := 0.0, 0.0
			if j > 0 {
				up = src.Old2(i, j-1)
			}
			if j < n-1 {
				down = src.Old2(i, j+1)
			}
			rhs.Set2(i, j, (rho-2*coef)*src.Old2(i, j)+coef*(up+down)+fd.At2(i, j))
			cc.P.Compute(6)
		}
	}
	stencilX := func(src *darray.Array, coef float64) func(cc *kf.Ctx, i, j int) {
		return func(cc *kf.Ctx, i, j int) {
			left, right := 0.0, 0.0
			if i > 0 {
				left = src.Old2(i-1, j)
			}
			if i < n-1 {
				right = src.Old2(i+1, j)
			}
			rhs.Set2(i, j, (rho-2*coef)*src.Old2(i, j)+coef*(left+right)+fd.At2(i, j))
			cc.P.Compute(6)
		}
	}

	for it := 0; it < par.Iters; it++ {
		// Sweep 1 right-hand side: y-stencil of u.
		d.sweep1.Run(stencilY(u, by))
		// x-direction solves: columns j, each on the grid column
		// slice owning it.
		if pipelined {
			solveLinesPipelined(c, d.linesX, -ax, rho+2*ax, -ax)
		} else {
			d.solveX.Run(func(cc *kf.Ctx, j int) {
				must(tridiag.TriC(cc, ustar.Section(1, j), rhs.Section(1, j), -ax, rho+2*ax, -ax))
			})
		}
		// Sweep 2 right-hand side: x-stencil of u*.
		d.sweep2.Run(stencilX(ustar, ax))
		// y-direction solves: rows i on grid row slices.
		if pipelined {
			solveLinesPipelined(c, d.linesY, -by, rho+2*by, -by)
		} else {
			d.solveY.Run(func(cc *kf.Ctx, i int) {
				must(tridiag.TriC(cc, u.Section(0, i), rhs.Section(0, i), -by, rho+2*by, -by))
			})
		}
		// Residual in the max norm.
		worst := 0.0
		d.residual.Run(func(cc *kf.Ctx, i, j int) {
			lap := ax*(edge(u, i-1, j, n)-2*u.Old2(i, j)+edge(u, i+1, j, n)) +
				by*(edge(u, i, j-1, n)-2*u.Old2(i, j)+edge(u, i, j+1, n))
			if r := math.Abs(fd.At2(i, j) + lap); r > worst {
				worst = r
			}
			cc.P.Compute(8)
		})
		rn := c.AllReduceMax(worst)
		if c.GridIndex() == 0 {
			resNorm = append(resNorm, rn)
		}
	}
	elapsed = c.AllReduceMax(c.P.Clock())
	out := u.GatherTo(c.NextScope(), 0)
	if c.P.Rank() == 0 {
		flat = out
	}
	return flat, resNorm, elapsed
}

// edge reads the snapshot of u with zero Dirichlet boundary outside the
// interior index range.
func edge(u *darray.Array, i, j, n int) float64 {
	if i < 0 || j < 0 || i >= n || j >= n {
		return 0
	}
	return u.Old2(i, j)
}

// lines are the sections of x and rhs through the calling processor's owned
// indices of one dimension. Lines with the same owner coordinate along that
// dimension share a grid slice, and every processor participates in exactly
// the slices of its own coordinate.
type lines struct{ xs, fs []*darray.Array }

func ownedLines(x, rhs *darray.Array, dim int) (l lines) {
	lo, hi := x.Lower(dim), x.Upper(dim)
	l.xs, l.fs = make([]*darray.Array, 0, hi-lo+1), make([]*darray.Array, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		l.xs = append(l.xs, x.Section(dim, i))
		l.fs = append(l.fs, rhs.Section(dim, i))
	}
	return l
}

// solveLinesPipelined gives each grid slice all of its lines at once via
// the pipelined multi-system solver — the madi upgrade of Listing 8.
func solveLinesPipelined(c *kf.Ctx, l lines, b0, a0, c0 float64) {
	phase := c.NextScope()
	if len(l.xs) == 0 {
		return
	}
	must(tridiag.MTriCOn(c.P, l.xs[0].Grid(), phase, l.xs, l.fs, b0, a0, c0))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func mat(n int) [][]float64 {
	backing := make([]float64, n*n)
	m := make([][]float64, n)
	for i := range m {
		m[i] = backing[i*n : (i+1)*n]
	}
	return m
}

// TestProblem returns a smooth right-hand side for an N x N interior grid.
func TestProblem(n int) [][]float64 {
	f := mat(n)
	h := 1 / float64(n+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := float64(i+1) * h
			y := float64(j+1) * h
			f[i][j] = 2 * math.Pi * math.Pi * math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
		}
	}
	return f
}
