// Package spline implements natural cubic spline fitting on uniform knots
// — one of the one-dimensional tensor product kernels the paper names in
// Section 3 ("other 'one-dimensional kernels' frequently needed are cubic
// spline fitting routines, Fast Fourier Transforms, and so forth") and one
// of the application areas its introduction motivates ("tensor product
// algorithms are widely used in spline fitting ...").
//
// Fitting reduces to a diagonally dominant tridiagonal solve for the knot
// second derivatives:
//
//	M[i-1] + 4·M[i] + M[i+1] = 6·(y[i-1] - 2·y[i] + y[i+1]) / h²
//
// with M[0] = M[n-1] = 0 (natural boundary conditions) — exactly the kernel
// the parallel substructured solver provides, so the parallel fit is the
// paper's Listing 4 applied to a different science.
package spline

import (
	"fmt"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/kf"
	"repro/internal/tridiag"
)

// Spline is a fitted natural cubic spline on uniform knots.
type Spline struct {
	// X0 is the first knot's abscissa and H the knot spacing.
	X0, H float64
	// Y holds the knot values and M the fitted second derivatives.
	Y, M []float64
}

// Fit fits a natural cubic spline through the values y at knots
// x0, x0+h, ..., sequentially (Thomas algorithm).
func Fit(x0, h float64, y []float64) *Spline {
	n := len(y)
	if n < 3 {
		panic(fmt.Sprintf("spline: need at least 3 knots, got %d", n))
	}
	b := make([]float64, n)
	a := make([]float64, n)
	c := make([]float64, n)
	f := make([]float64, n)
	buildSystem(h, y, b, a, c, f)
	m := make([]float64, n)
	kernels.Thomas(nil, b, a, c, f, m)
	return &Spline{X0: x0, H: h, Y: append([]float64(nil), y...), M: m}
}

// buildSystem fills the tridiagonal fitting system with identity rows at
// the ends (natural boundary conditions M=0).
func buildSystem(h float64, y, b, a, c, f []float64) {
	n := len(y)
	for i := 1; i < n-1; i++ {
		b[i], a[i], c[i] = 1, 4, 1
		f[i] = 6 * (y[i-1] - 2*y[i] + y[i+1]) / (h * h)
	}
	b[0], a[0], c[0], f[0] = 0, 1, 0, 0
	b[n-1], a[n-1], c[n-1], f[n-1] = 0, 1, 0, 0
}

// FitParallel fits the spline with the knot values distributed by blocks
// over the subroutine's grid, using the parallel substructured tridiagonal
// solver for the second-derivative system. Every processor of c.G must
// call it; the fitted spline is gathered to the grid's first processor
// (grid index 0), the only one whose result has M and Y. Every other
// processor gets X0 and H with nil M and Y, which it must not Eval.
func FitParallel(c *kf.Ctx, x0, h float64, y *darray.Array) (*Spline, error) {
	n := y.Extent(0)
	if n < 3 {
		return nil, fmt.Errorf("spline: need at least 3 knots, got %d", n)
	}
	// Right-hand side needs neighbor knot values: one halo exchange.
	y.ExchangeHalo(c.NextScope())
	rhs := c.NewArray(darray.Spec{Extents: []int{n}, Dists: []dist.Dist{dist.Block{}}})
	for i := rhs.Lower(0); i <= rhs.Upper(0); i++ {
		if i == 0 || i == n-1 {
			rhs.Set1(i, 0)
			continue
		}
		rhs.Set1(i, 6*(y.At1(i-1)-2*y.At1(i)+y.At1(i+1))/(h*h))
	}
	c.P.Compute(5 * rhs.LocalSize(0))
	msec := c.NewArray(darray.Spec{Extents: []int{n}, Dists: []dist.Dist{dist.Block{}}})
	if err := tridiag.TriCDirichlet(c, msec, rhs, 1, 4, 1); err != nil {
		return nil, err
	}
	// Assemble the spline on the root (fits are small relative to the
	// solve; a production variant would keep M distributed).
	sc := c.NextScope()
	mFlat := msec.GatherTo(sc, 0)
	yFlat := y.GatherTo(c.NextScope(), 0)
	out := &Spline{X0: x0, H: h}
	if c.GridIndex() == 0 {
		out.M = mFlat
		out.Y = yFlat
	}
	return out, nil
}

// Eval evaluates the spline at x (clamped to the knot range).
func (s *Spline) Eval(x float64) float64 {
	n := len(s.Y)
	t := (x - s.X0) / s.H
	i := int(t)
	if i < 0 {
		i = 0
	}
	if i > n-2 {
		i = n - 2
	}
	// Local coordinate within [x_i, x_i+1].
	u := t - float64(i)
	h2 := s.H * s.H
	// Standard cubic segment in terms of the second derivatives.
	a := s.Y[i]
	b := s.Y[i+1] - s.Y[i] - h2*(2*s.M[i]+s.M[i+1])/6
	cc := h2 * s.M[i] / 2
	d := h2 * (s.M[i+1] - s.M[i]) / 6
	return a + u*(b+u*(cc+u*d))
}

// MaxKnotResidual returns the largest violation of the fitting equations —
// a fit-quality diagnostic used by the tests.
func (s *Spline) MaxKnotResidual() float64 {
	n := len(s.Y)
	worst := 0.0
	for i := 1; i < n-1; i++ {
		lhs := s.M[i-1] + 4*s.M[i] + s.M[i+1]
		rhs := 6 * (s.Y[i-1] - 2*s.Y[i] + s.Y[i+1]) / (s.H * s.H)
		if d := abs(lhs - rhs); d > worst {
			worst = d
		}
	}
	return worst
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
