// Package multigrid implements the paper's Section 5: multigrid solvers for
// Poisson-like equations built from tensor product kernels, per Listings 9
// through 11.
//
//   - MG2 (Listing 11) solves the two-dimensional problem with zebra LINE
//     relaxation (even lines, then odd lines, each line an exact
//     tridiagonal solve) and semicoarsening in y: the coarse grid halves
//     only the y dimension, and restriction/interpolation (Listing 10's
//     two-dimensional analogue) act in y only.
//
//   - MG3 (Listing 9) solves the three-dimensional problem with zebra PLANE
//     relaxation — each plane is "solved" by a call to MG2, so the plane
//     relaxation is itself a tensor product multigrid algorithm — and
//     semicoarsening in z.
//
// The operator is the constant-coefficient
//
//	L u = A·u_xx/hx² + B·u_yy/hy² [+ C·u_zz/hz²] + Sigma·u
//
// on a node-centered grid with homogeneous Dirichlet boundaries (the
// boundary nodes are stored, hold zero and are never updated). Coarse grids
// use the dist.BlockAligned distribution (coarse j lives with fine 2j), so
// all grid-transfer operators touch only local and halo cells no matter the
// processor count — the runtime analogue of the alignment a KF1 compiler
// derives from the dist clauses.
//
// Distribution choice is the paper's C3 experiment: MG3 runs unchanged with
// u dist (*, block, block) on a 2-D grid (planes distributed, lines solved
// sequentially), (*, *, block) on a 1-D grid (only planes distributed, MG2
// runs on single processors) or (block, block, *) on a 2-D grid (every
// plane spread over the whole grid, line solves via the parallel
// tridiagonal solver). The solver inspects its arrays' distributions and
// derives the right communication in every case.
package multigrid

import (
	"fmt"
	"math"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/kf"
	"repro/internal/tridiag"
)

// Params configures the operator and cycle shape.
type Params struct {
	// A, B, C are the diffusion coefficients in x, y, z (C unused in 2-D).
	A, B, C float64
	// Sigma is the zeroth-order coefficient.
	Sigma float64
	// Hx, Hy, Hz are the mesh spacings (Hz unused in 2-D).
	Hx, Hy, Hz float64
	// PlaneCycles is the number of MG2 V-cycles per plane solve in MG3's
	// zebra relaxation (default 1).
	PlaneCycles int
	// CoarsePlaneCycles is the number of MG2 V-cycles per plane solve on
	// MG3's coarsest level, where the single interior plane should be
	// solved accurately (default 4).
	CoarsePlaneCycles int
}

func (p Params) planeCycles() int {
	if p.PlaneCycles <= 0 {
		return 1
	}
	return p.PlaneCycles
}

func (p Params) coarsePlaneCycles() int {
	if p.CoarsePlaneCycles <= 0 {
		return 4
	}
	return p.CoarsePlaneCycles
}

// Default2D returns parameters for the unit-square Poisson problem on an
// (nx+1) x (ny+1) node grid.
func Default2D(nx, ny int) Params {
	return Params{A: 1, B: 1, Hx: 1 / float64(nx), Hy: 1 / float64(ny)}
}

// Default3D returns parameters for the unit-cube Poisson problem.
func Default3D(nx, ny, nz int) Params {
	return Params{A: 1, B: 1, C: 1, Hx: 1 / float64(nx), Hy: 1 / float64(ny), Hz: 1 / float64(nz)}
}

// --- two-dimensional solver (Listing 11) ---

// Cycle2 performs one MG2 V-cycle on u for right-hand side f. Both arrays
// are (nx+1) x (ny+1), dimension 0 either Star or Block distributed,
// dimension 1 Block (or BlockAligned) distributed, with halo 1 on
// distributed dimensions. ny must be a power of two. Every processor of
// c.G participates.
func Cycle2(c *kf.Ctx, u, f *darray.Array, par Params) {
	nx, ny := u.Extent(0)-1, u.Extent(1)-1
	// Zebra relaxation: even interior lines, then odd.
	zebraSweep2(c, u, f, par, 2)
	zebraSweep2(c, u, f, par, 1)
	if ny <= 2 {
		return
	}
	// Coarse grid correction: residual, restrict in y, recurse,
	// interpolate back.
	r := newLike2(c, u, nx, ny)
	residual2Into(c, r, u, f, par)
	nyc := ny / 2
	vc := newCoarse2(c, u, nx, ny, nyc)
	gc := newCoarse2(c, u, nx, ny, nyc)
	restrict2(c, gc, r)
	vc.Zero()
	coarse := par
	coarse.Hy *= 2
	Cycle2(c, vc, gc, coarse)
	interpolate2(c, u, vc)
}

// Solve2 runs cycles V-cycles and returns the max-norm residual after each
// (appended on every processor; all processors see identical values).
func Solve2(c *kf.Ctx, u, f *darray.Array, par Params, cycles int) []float64 {
	var hist []float64
	for k := 0; k < cycles; k++ {
		Cycle2(c, u, f, par)
		hist = append(hist, ResidualNorm2(c, u, f, par))
	}
	return hist
}

// zebraSweep2 solves every interior line j = start, start+2, ... exactly,
// holding the neighboring lines fixed. start=2 is the even half-sweep,
// start=1 the odd one.
func zebraSweep2(c *kf.Ctx, u, f *darray.Array, par Params, start int) {
	ny := u.Extent(1) - 1
	if distributedDim(u, 1) {
		u.ExchangeHalo(c.NextScope(), 1)
	}
	c.Doall1(kf.RStep(start, ny-1, 2), kf.OnOwnerSection(u, 1), nil,
		func(cc *kf.Ctx, j int) {
			lineSolve2(cc, u, f, j, par)
		})
}

// lineSolve2 solves line j of the 2-D problem: a tridiagonal system along x
// with the y-coupling moved to the right-hand side. On a single-processor
// line grid it uses the sequential Thomas algorithm (the paper's seqtri);
// on a distributed line it calls the parallel substructured solver — which
// of the two happens is decided entirely by the array's dist clause, as in
// the paper's discussion of distribution choices.
func lineSolve2(cc *kf.Ctx, u, f *darray.Array, j int, par Params) {
	nx := u.Extent(0) - 1
	ax := par.A / (par.Hx * par.Hx)
	by := par.B / (par.Hy * par.Hy)
	diag := -2*ax - 2*by + par.Sigma
	xsec := u.Section(1, j)
	rhs := darray.New(cc.P, cc.G, darray.Spec{
		Extents: []int{nx + 1},
		Dists:   []dist.Dist{u.Dist(0)},
	})
	for i := rhs.Lower(0); i <= rhs.Upper(0); i++ {
		if i == 0 || i == nx {
			rhs.Set1(i, 0)
			continue
		}
		rhs.Set1(i, f.At2(i, j)-by*(u.At2(i, j-1)+u.At2(i, j+1)))
	}
	cc.P.Compute(3 * rhs.LocalSize(0))
	if cc.G.Size() == 1 {
		solveLineLocal(cc, xsec, rhs, ax, diag, nx)
		return
	}
	if err := tridiag.TriCDirichlet(cc, xsec, rhs, ax, diag, ax); err != nil {
		panic(fmt.Sprintf("multigrid: line solve failed: %v", err))
	}
}

// solveLineLocal is the seqtri path: the whole line lives on one processor.
func solveLineLocal(cc *kf.Ctx, xsec, rhs *darray.Array, off, diag float64, nx int) {
	n := nx + 1
	b := make([]float64, n)
	a := make([]float64, n)
	cv := make([]float64, n)
	fv := make([]float64, n)
	xv := make([]float64, n)
	rhs.CopyOwned1(fv)
	for i := range a {
		b[i], a[i], cv[i] = off, diag, off
	}
	// Identity rows pin the Dirichlet boundary nodes.
	b[0], a[0], cv[0] = 0, 1, 0
	b[n-1], a[n-1], cv[n-1] = 0, 1, 0
	fv[0], fv[n-1] = 0, 0
	kernels.Thomas(cc.P, b, a, cv, fv, xv)
	xsec.SetOwned1(xv)
}

// residual2Into computes r = f - L·u on interior nodes (zero on boundary).
func residual2Into(c *kf.Ctx, r, u, f *darray.Array, par Params) {
	nx, ny := u.Extent(0)-1, u.Extent(1)-1
	ax := par.A / (par.Hx * par.Hx)
	by := par.B / (par.Hy * par.Hy)
	diag := -2*ax - 2*by + par.Sigma
	r.Zero()
	c.Doall2(kf.R(1, nx-1), kf.R(1, ny-1), kf.OnOwner2(r),
		[]kf.LoopOpt{kf.Reads(u)},
		func(cc *kf.Ctx, i, j int) {
			lu := ax*(u.Old2(i-1, j)+u.Old2(i+1, j)) +
				by*(u.Old2(i, j-1)+u.Old2(i, j+1)) +
				diag*u.Old2(i, j)
			r.Set2(i, j, f.At2(i, j)-lu)
			cc.P.Compute(8)
		})
}

// ResidualNorm2 returns ||f - L·u||_inf over interior nodes, identical on
// every processor.
func ResidualNorm2(c *kf.Ctx, u, f *darray.Array, par Params) float64 {
	nx, ny := u.Extent(0)-1, u.Extent(1)-1
	ax := par.A / (par.Hx * par.Hx)
	by := par.B / (par.Hy * par.Hy)
	diag := -2*ax - 2*by + par.Sigma
	worst := 0.0
	c.Doall2(kf.R(1, nx-1), kf.R(1, ny-1), kf.OnOwner2(u),
		[]kf.LoopOpt{kf.Reads(u)},
		func(cc *kf.Ctx, i, j int) {
			lu := ax*(u.Old2(i-1, j)+u.Old2(i+1, j)) +
				by*(u.Old2(i, j-1)+u.Old2(i, j+1)) +
				diag*u.Old2(i, j)
			if d := math.Abs(f.At2(i, j) - lu); d > worst {
				worst = d
			}
			cc.P.Compute(8)
		})
	return c.AllReduceMax(worst)
}

// restrict2 semicoarsens the fine residual r into the coarse right-hand
// side gc by full weighting in y only: gc(i,jc) = (r(i,2jc-1) + 2·r(i,2jc)
// + r(i,2jc+1)) / 4.
func restrict2(c *kf.Ctx, gc, r *darray.Array) {
	nx := r.Extent(0) - 1
	nyc := gc.Extent(1) - 1
	gc.Zero()
	if distributedDim(r, 1) {
		r.ExchangeHalo(c.NextScope(), 1)
	}
	c.Doall2(kf.R(1, nx-1), kf.R(1, nyc-1), kf.OnOwner2(gc), nil,
		func(cc *kf.Ctx, i, jc int) {
			j := 2 * jc
			gc.Set2(i, jc, 0.25*(r.At2(i, j-1)+2*r.At2(i, j)+r.At2(i, j+1)))
			cc.P.Compute(4)
		})
}

// interpolate2 adds the coarse correction vc into the fine solution u by
// linear interpolation in y (Listing 10's formulas, one dimension down):
// even fine lines take the coarse value directly, odd lines the average of
// the two nearest coarse lines.
func interpolate2(c *kf.Ctx, u, vc *darray.Array) {
	nx, ny := u.Extent(0)-1, u.Extent(1)-1
	if distributedDim(vc, 1) {
		vc.ExchangeHalo(c.NextScope(), 1)
	}
	c.Doall2(kf.R(1, nx-1), kf.R(1, ny-1), kf.OnOwner2(u), nil,
		func(cc *kf.Ctx, i, j int) {
			if j%2 == 0 {
				u.Set2(i, j, u.At2(i, j)+vc.At2(i, j/2))
				cc.P.Compute(1)
			} else {
				u.Set2(i, j, u.At2(i, j)+0.5*(vc.At2(i, (j-1)/2)+vc.At2(i, (j+1)/2)))
				cc.P.Compute(3)
			}
		})
}

// newLike2 allocates a work array with u's distribution and halo.
func newLike2(c *kf.Ctx, u *darray.Array, nx, ny int) *darray.Array {
	return darray.New(c.P, u.Grid(), darray.Spec{
		Extents: []int{nx + 1, ny + 1},
		Dists:   []dist.Dist{u.Dist(0), u.Dist(1)},
		Halo:    halosFor(u.Dist(0), u.Dist(1)),
	})
}

// newCoarse2 allocates a y-semicoarsened array aligned with the fine one:
// coarse line jc lives with fine line 2jc (iterated across levels by
// dist.Coarsen).
func newCoarse2(c *kf.Ctx, u *darray.Array, nx, ny, nyc int) *darray.Array {
	dy := dist.Coarsen(u.Dist(1), ny+1)
	return darray.New(c.P, u.Grid(), darray.Spec{
		Extents: []int{nx + 1, nyc + 1},
		Dists:   []dist.Dist{u.Dist(0), dy},
		Halo:    halosFor(u.Dist(0), dy),
	})
}

// halosFor gives halo 1 to every distributed contiguous dimension.
func halosFor(ds ...dist.Dist) []int {
	h := make([]int, len(ds))
	for i, d := range ds {
		if _, isStar := d.(dist.Star); !isStar {
			h[i] = 1
		}
	}
	return h
}
