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
//
// Each form is one kf.Steps declaration (adiSteps, madiSteps) — declare;
// fill; Iters × (sweep 1, the x-direction line solves, sweep 2, the
// y-direction line solves, the residual, its all-reduce); the clock's
// all-reduce; the gather — whose step form is ParallelStep. The body,
// ParallelCtx, is the steps' blocking driver: there is no second loop.
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
// Where the machine can, its processors run the iteration's step form
// (ParallelStep), with no stack each.
func Parallel(m *machine.Machine, g *topology.Grid, par Params, f [][]float64, pipelined bool) (Result, error) {
	var res Result
	keep := func(c *kf.Ctx, flat, hist []float64, elapsed float64) {
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
	}
	err := kf.ExecSteps(m, g, func(c *kf.Ctx) error {
		flat, hist, elapsed := ParallelCtx(c, par, f, pipelined)
		keep(c, flat, hist, elapsed)
		return nil
	}, func(c *kf.Ctx, resume bool) (bool, error) {
		flat, hist, elapsed, done := ParallelStep(c, resume, par, f, pipelined)
		if done {
			keep(c, flat, hist, elapsed)
		}
		return done, nil
	})
	res.Stats = m.TotalStats()
	return res, err
}

// state is a processor's state of the iteration, kept on the root context
// across runs (kf.Declared) and rebuilt when N changes: the declaration
// half — the four arrays, every loop header, and the owned lines madi hands
// the pipelined solver per direction — and the run in flight: the
// problem's coefficients, the place in adiSteps or madiSteps, the line
// solve in flight, and the results.
type state struct {
	u, ustar, rhs, fd        *darray.Array
	sweep1, sweep2, residual *kf.Plan2
	solveX, solveY           *kf.Plan1
	linesX, linesY           lines

	n           int
	ax, by, rho float64
	worst       float64
	cont        kf.Cont
	solve       tridiag.Solve
	resNorm     []float64
	elapsed     float64
	flat        []float64
}

// args are a run's arguments: the problem, which every call passes again.
type args struct {
	par Params
	f   [][]float64
}

func (a args) iters() int { return a.par.Iters }

// adiSteps is Listing 7's iteration as a straight line, declared once for
// every processor: the arrays and loop headers on the first run, the fill,
// Iters × (sweep 1's right-hand side, the x-direction line solves, sweep
// 2's, the y-direction line solves, the residual and its all-reduce), the
// iteration loop's elapsed time (the clock's maximum over the grid) and the
// gather of u onto rank 0.
var adiSteps = kf.Steps[state, args]{
	{Do: (*state).declare},
	{Do: (*state).fill},
	{Loop: []func(*state, args, *kf.Ctx, *kf.Cursor) bool{
		(*state).sweepY, (*state).solveLinesX, (*state).sweepX, (*state).solveLinesY,
		(*state).residualMax, (*state).reduceResidual,
	}, Times: args.iters},
	{Do: (*state).reduceClock},
	{Do: (*state).gather},
}

// madiSteps is Listing 8's: adiSteps with each family of line solves
// handed to the pipelined multi-system solver, one solve per grid slice.
var madiSteps = kf.Steps[state, args]{
	{Do: (*state).declare},
	{Do: (*state).fill},
	{Loop: []func(*state, args, *kf.Ctx, *kf.Cursor) bool{
		(*state).sweepY, (*state).pipelineX, (*state).sweepX, (*state).pipelineY,
		(*state).residualMax, (*state).reduceResidual,
	}, Times: args.iters},
	{Do: (*state).reduceClock},
	{Do: (*state).gather},
}

// line returns the form's declaration: madiSteps when pipelined.
func line(pipelined bool) kf.Steps[state, args] {
	if pipelined {
		return madiSteps
	}
	return adiSteps
}

// ParallelCtx is the ADI iteration as a plain parallel subroutine body —
// the declare-once form a core.Program wraps to run the identical
// computation on any system. It returns the flat gathered solution on
// rank 0 (nil elsewhere), the residual history on grid index 0, and the
// iteration loop's elapsed virtual time (identical on every rank). It is
// the blocking driver of adiSteps (madiSteps when pipelined), whose step
// form is ParallelStep.
func ParallelCtx(c *kf.Ctx, par Params, f [][]float64, pipelined bool) (flat, resNorm []float64, elapsed float64) {
	st := stateOf(c, par.N, false)
	line(pipelined).Run(c, st, args{par, f}, &st.cont)
	return st.result()
}

// ParallelStep is ParallelCtx's step form (kf.ExecSteps): the same steps,
// run until they end (done) or a receive would block (not done; call again
// with the same arguments and resume true once woken). resume is false on
// a run's first call.
func ParallelStep(c *kf.Ctx, resume bool, par Params, f [][]float64, pipelined bool) (flat, resNorm []float64, elapsed float64, done bool) {
	st := stateOf(c, par.N, resume)
	if !line(pipelined).Step(c, st, args{par, f}, &st.cont) {
		return nil, nil, 0, false
	}
	flat, resNorm, elapsed = st.result()
	return flat, resNorm, elapsed, true
}

// stateOf returns c's state for problem size n, at the start of the steps
// unless the run in flight resumes: a run that ended early (a deadlock, a
// panic) leaves nothing of its place for the next.
func stateOf(c *kf.Ctx, n int, resume bool) *state {
	st, _ := kf.Declared[state](c, n)
	if !resume {
		st.cont, st.solve, st.resNorm = kf.Cont{}, tridiag.Solve{}, nil
	}
	return st
}

// result ends the run: its results, with the state holding no output past
// it.
func (st *state) result() (flat, resNorm []float64, elapsed float64) {
	flat, resNorm, elapsed = st.flat, st.resNorm, st.elapsed
	st.flat, st.resNorm = nil, nil
	return flat, resNorm, elapsed
}

// declare builds the arrays and loop headers on the state's first run.
func (st *state) declare(a args, c *kf.Ctx, _ *kf.Cursor) bool {
	if st.u == nil {
		st.build(c, a.par.N)
	}
	return true
}

// build declares the arrays and compiles every loop header once, outside
// the iteration loop — the hoisting a KF1 compiler performs: halo
// schedules, owned strips and iteration grids derive here, and the loop
// body only moves data.
func (st *state) build(c *kf.Ctx, n int) {
	spec := darray.Spec{
		Extents: []int{n, n},
		Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
		Halo:    []int{1, 1},
	}
	st.u, st.ustar, st.rhs, st.fd = c.NewArray(spec), c.NewArray(spec), c.NewArray(spec), c.NewArray(spec)
	all := kf.R(0, n-1)
	st.sweep1 = c.Plan2(all, all, kf.OnOwner2(st.rhs), kf.Reads(st.u, 1))
	st.sweep2 = c.Plan2(all, all, kf.OnOwner2(st.rhs), kf.Reads(st.ustar, 0))
	st.residual = c.Plan2(all, all, kf.OnOwner2(st.u), kf.Reads(st.u))
	st.solveX = c.Plan1(all, kf.OnOwnerSection(st.rhs, 1))
	st.solveY = c.Plan1(all, kf.OnOwnerSection(st.rhs, 0))
	st.linesX, st.linesY = ownedLines(st.ustar, st.rhs, 1), ownedLines(st.u, st.rhs, 0)
}

// fill takes the run's coefficients and (re)fills the arrays: u, u* and
// the right-hand side zero, f the problem's.
func (st *state) fill(a args, _ *kf.Ctx, _ *kf.Cursor) bool {
	par := a.par
	h := par.h()
	st.n, st.rho = par.N, par.rho()
	st.ax, st.by = par.A/(h*h), par.B/(h*h)
	st.worst = 0
	st.u.Zero()
	st.ustar.Zero()
	st.rhs.Zero()
	st.fd.Fill(func(idx []int) float64 { return a.f[idx[0]][idx[1]] })
	return true
}

// sweepY is sweep 1's right-hand side: the y-stencil of u.
func (st *state) sweepY(_ args, _ *kf.Ctx, k *kf.Cursor) bool {
	src, rhs, fd, n, rho, coef := st.u, st.rhs, st.fd, st.n, st.rho, st.by
	return st.sweep1.Step(k, func(cc *kf.Ctx, i, j int) {
		up, down := 0.0, 0.0
		if j > 0 {
			up = src.Old2(i, j-1)
		}
		if j < n-1 {
			down = src.Old2(i, j+1)
		}
		rhs.Set2(i, j, (rho-2*coef)*src.Old2(i, j)+coef*(up+down)+fd.At2(i, j))
		cc.P.Compute(6)
	})
}

// sweepX is sweep 2's right-hand side: the x-stencil of u*.
func (st *state) sweepX(_ args, _ *kf.Ctx, k *kf.Cursor) bool {
	src, rhs, fd, n, rho, coef := st.ustar, st.rhs, st.fd, st.n, st.rho, st.ax
	return st.sweep2.Step(k, func(cc *kf.Ctx, i, j int) {
		left, right := 0.0, 0.0
		if i > 0 {
			left = src.Old2(i-1, j)
		}
		if i < n-1 {
			right = src.Old2(i+1, j)
		}
		rhs.Set2(i, j, (rho-2*coef)*src.Old2(i, j)+coef*(left+right)+fd.At2(i, j))
		cc.P.Compute(6)
	})
}

// solveLinesX solves the x-direction lines: column j of u*, each on the
// grid column slice owning it, one line at a time.
func (st *state) solveLinesX(_ args, _ *kf.Ctx, k *kf.Cursor) bool {
	return st.solveX.Step(k, func(cc *kf.Ctx, j int) bool {
		return solved(tridiag.TriCStep(cc, &st.solve, st.ustar.Section(1, j), st.rhs.Section(1, j), -st.ax, st.rho+2*st.ax, -st.ax))
	})
}

// solveLinesY solves the y-direction lines: row i of u on grid row
// slices.
func (st *state) solveLinesY(_ args, _ *kf.Ctx, k *kf.Cursor) bool {
	return st.solveY.Step(k, func(cc *kf.Ctx, i int) bool {
		return solved(tridiag.TriCStep(cc, &st.solve, st.u.Section(0, i), st.rhs.Section(0, i), -st.by, st.rho+2*st.by, -st.by))
	})
}

// pipelineX gives each grid slice all of its x-direction lines at once
// via the pipelined multi-system solver — the madi upgrade of Listing 8.
func (st *state) pipelineX(_ args, c *kf.Ctx, k *kf.Cursor) bool {
	return st.pipeline(c, k, st.linesX, st.ax)
}

// pipelineY is pipelineX in y.
func (st *state) pipelineY(_ args, c *kf.Ctx, k *kf.Cursor) bool {
	return st.pipeline(c, k, st.linesY, st.by)
}

// pipeline solves the lines l with coefficient coef on their grid slice,
// under one scope of c that every processor takes.
func (st *state) pipeline(c *kf.Ctx, k *kf.Cursor, l lines, coef float64) bool {
	sc := k.Scope(c)
	if len(l.xs) == 0 {
		return true
	}
	return solved(tridiag.MTriCStep(c.P, l.xs[0].Grid(), sc, &st.solve, l.xs, l.fs, -coef, st.rho+2*coef, -coef))
}

// residualMax is the residual's local maximum norm, into st.worst.
func (st *state) residualMax(_ args, _ *kf.Ctx, k *kf.Cursor) bool {
	u, fd, n, ax, by := st.u, st.fd, st.n, st.ax, st.by
	return st.residual.Step(k, func(cc *kf.Ctx, i, j int) {
		lap := ax*(edge(u, i-1, j, n)-2*u.Old2(i, j)+edge(u, i+1, j, n)) +
			by*(edge(u, i, j-1, n)-2*u.Old2(i, j)+edge(u, i, j+1, n))
		if r := math.Abs(fd.At2(i, j) + lap); r > st.worst {
			st.worst = r
		}
		cc.P.Compute(8)
	})
}

// reduceResidual all-reduces the residual's maximum into the history.
func (st *state) reduceResidual(_ args, c *kf.Ctx, k *kf.Cursor) bool {
	rn, ok := c.AllReduceMaxStep(k, st.worst)
	if !ok {
		return false
	}
	if c.GridIndex() == 0 {
		st.resNorm = append(st.resNorm, rn)
	}
	st.worst = 0
	return true
}

// reduceClock is the iteration loop's elapsed time: the clock's maximum.
func (st *state) reduceClock(_ args, c *kf.Ctx, k *kf.Cursor) bool {
	v, ok := c.AllReduceMaxStep(k, c.P.Clock())
	st.elapsed = v
	return ok
}

// gather collects u onto rank 0.
func (st *state) gather(_ args, c *kf.Ctx, k *kf.Cursor) bool {
	out, ok := c.GatherToStep(k, st.u, 0)
	if ok && c.P.Rank() == 0 {
		st.flat = out
	}
	return ok
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

// solved reports whether a line solve's step completed, panicking on its
// error: the solves run on the loop headers' own grids, so an error is a
// programming one.
func solved(done bool, err error) bool {
	if err != nil {
		panic(err)
	}
	return done
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
