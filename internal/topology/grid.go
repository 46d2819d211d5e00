// Package topology describes processor arrays — the "real estate agent" of
// the KF1 language. A Grid names a subset of a machine's processors and
// gives it a Cartesian shape; slices of a grid (a row, a column, a plane)
// are themselves grids and can be passed to parallel subroutines, which is
// the mechanism behind the paper's "distributed procedures".
package topology

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// All marks a dimension kept whole when slicing a grid, analogous to the
// "*" in the paper's procs(ip, *) notation.
const All = -1

// Grid is an n-dimensional array of processor ranks. The zero value is not
// useful; construct grids with New or New1D and derive subgrids with Slice.
//
// Grids are immutable; all methods are safe for concurrent use from multiple
// simulated processors.
type Grid struct {
	shape   []int
	strides []int
	base    int   // rank of the grid's origin in the parent machine
	order   []int // dimensions sorted by stride, descending (see CoordInto)

	// through memoizes SliceThrough: one slot per (dimension, coordinate),
	// dimension d's slots starting at the sum of the extents before it.
	// Allocated by the first call and filled slot by slot, both by
	// compare-and-swap, so a lookup that hits takes no lock.
	through atomic.Pointer[[]atomic.Pointer[Grid]]
}

// finish precomputes the stride-descending dimension order used by
// coordinate decomposition, so CoordOf/Index/Contains do not re-sort (or
// allocate the order) per call.
func (g *Grid) finish() *Grid {
	g.order = make([]int, 0, len(g.shape))
	return g.finishInto()
}

// maxDims bounds the grid dimensionality served by the stack-allocated
// coordinate buffers of Index and Contains.
const maxDims = 8

// CoordInto writes the grid coordinate of the given machine rank into
// coord (which must have length Dims()) and reports whether the rank
// belongs to the grid: CoordOf into a caller's slice. It never allocates.
func (g *Grid) CoordInto(rank int, coord []int) bool {
	rem := rank - g.base
	for _, d := range g.order {
		if rem < 0 {
			return false
		}
		c := rem / g.strides[d]
		if c >= g.shape[d] {
			return false
		}
		coord[d] = c
		rem -= c * g.strides[d]
	}
	return rem == 0
}

// New returns a grid of the given shape covering machine ranks
// 0..prod(shape)-1 in row-major order (the last dimension varies fastest).
func New(shape ...int) *Grid {
	if len(shape) == 0 {
		panic("topology: grid needs at least one dimension")
	}
	size := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("topology: invalid grid shape %v", shape))
		}
		size *= s
	}
	g := &Grid{shape: append([]int(nil), shape...), base: 0}
	g.strides = make([]int, len(shape))
	stride := 1
	for d := len(shape) - 1; d >= 0; d-- {
		g.strides[d] = stride
		stride *= shape[d]
	}
	return g.finish()
}

// New1D returns a one-dimensional grid of p processors (ranks 0..p-1).
func New1D(p int) *Grid { return New(p) }

// Dims returns the number of grid dimensions.
func (g *Grid) Dims() int { return len(g.shape) }

// Shape returns a copy of the grid's extents.
func (g *Grid) Shape() []int { return append([]int(nil), g.shape...) }

// Extent returns the length of dimension d.
func (g *Grid) Extent(d int) int { return g.shape[d] }

// Size returns the total number of processors in the grid.
func (g *Grid) Size() int {
	n := 1
	for _, s := range g.shape {
		n *= s
	}
	return n
}

// Rank returns the machine rank of the processor at the given grid
// coordinate.
func (g *Grid) Rank(coord ...int) int {
	if len(coord) != len(g.shape) {
		panic(fmt.Sprintf("topology: coordinate %v does not match grid shape %v", coord, g.shape))
	}
	r := g.base
	for d, c := range coord {
		if c < 0 || c >= g.shape[d] {
			panic(fmt.Sprintf("topology: coordinate %v out of grid shape %v", coord, g.shape))
		}
		r += c * g.strides[d]
	}
	return r
}

// RankAt returns the machine rank of the i-th processor of the grid in
// row-major enumeration order; RankAt(0) is the grid origin.
func (g *Grid) RankAt(i int) int {
	if i < 0 || i >= g.Size() {
		panic(fmt.Sprintf("topology: index %d out of grid of size %d", i, g.Size()))
	}
	r := g.base
	for d := len(g.shape) - 1; d >= 0; d-- {
		r += (i % g.shape[d]) * g.strides[d]
		i /= g.shape[d]
	}
	return r
}

// Ranks returns the machine ranks of all grid members in row-major order.
func (g *Grid) Ranks() []int {
	out := make([]int, g.Size())
	for i := range out {
		out[i] = g.RankAt(i)
	}
	return out
}

// CoordOf returns the grid coordinate of the given machine rank and whether
// the rank belongs to the grid. Coordinate decomposition peels dimensions
// in decreasing-stride order (strides are strictly decreasing products for
// contiguous grids, but sliced grids keep parent strides; the precomputed
// order handles the general case).
func (g *Grid) CoordOf(rank int) ([]int, bool) {
	coord := make([]int, len(g.shape))
	if !g.CoordInto(rank, coord) {
		return nil, false
	}
	return coord, true
}

// Stride returns the machine-rank distance between neighbours along
// dimension d: moving one coordinate along d moves Stride(d) ranks.
func (g *Grid) Stride(d int) int { return g.strides[d] }

// Contains reports whether the machine rank belongs to the grid.
func (g *Grid) Contains(rank int) bool {
	var buf [maxDims]int
	if len(g.shape) > maxDims {
		_, ok := g.CoordOf(rank)
		return ok
	}
	return g.CoordInto(rank, buf[:len(g.shape)])
}

// Index returns the row-major enumeration index of the given machine rank
// within the grid, and whether the rank belongs to the grid. It is the
// inverse of RankAt and never allocates.
func (g *Grid) Index(rank int) (int, bool) {
	var buf [maxDims]int
	var coord []int
	if len(g.shape) > maxDims {
		coord = make([]int, len(g.shape))
	} else {
		coord = buf[:len(g.shape)]
	}
	if !g.CoordInto(rank, coord) {
		return 0, false
	}
	idx := 0
	for d, c := range coord {
		idx = idx*g.shape[d] + c
	}
	return idx, true
}

// Slice returns the subgrid obtained by fixing some dimensions. The spec
// must have one entry per dimension: All (-1) keeps a dimension, a
// non-negative index fixes (and removes) it. For example, for a 2-D grid g,
// g.Slice(i, All) is the i-th row — the paper's procs(i, *).
//
// The result shares rank arithmetic with the parent, so a slice of a slice
// behaves correctly.
func (g *Grid) Slice(spec ...int) *Grid {
	if len(spec) != len(g.shape) {
		panic(fmt.Sprintf("topology: slice spec %v does not match grid shape %v", spec, g.shape))
	}
	keep := 0
	for d, s := range spec {
		switch {
		case s == All:
			keep++
		case s >= 0 && s < g.shape[d]:
		default:
			panic(fmt.Sprintf("topology: slice index %d out of dimension %d (extent %d)", s, d, g.shape[d]))
		}
	}
	sub := &Grid{base: g.base}
	if keep == 0 {
		// Fully fixed: a single-processor grid, kept one-dimensional so
		// it can still host undistributed work.
		keep = 1
	}
	// One backing array for shape, strides and the decomposition order:
	// grids are built per section view, so construction stays cheap.
	backing := make([]int, 3*keep)
	sub.shape = backing[:0:keep]
	sub.strides = backing[keep : keep : 2*keep]
	for d, s := range spec {
		if s == All {
			sub.shape = append(sub.shape, g.shape[d])
			sub.strides = append(sub.strides, g.strides[d])
		} else {
			sub.base += s * g.strides[d]
		}
	}
	if len(sub.shape) == 0 {
		sub.shape = append(sub.shape, 1)
		sub.strides = append(sub.strides, 1)
	}
	sub.order = backing[2*keep : 2*keep : 3*keep]
	return sub.finishInto()
}

// SliceThrough returns the subgrid through coordinate c of dimension d,
// every other dimension kept — g.Slice with d fixed at c and All elsewhere,
// the paper's procs(c, *) for d = 0 — memoized on g: every caller, on any
// processor, gets the one object per (d, c), so the ranks of a row or
// column hold one slice between them, and a repeated call allocates
// nothing.
func (g *Grid) SliceThrough(d, c int) *Grid {
	if d < 0 || d >= len(g.shape) || c < 0 || c >= g.shape[d] {
		panic(fmt.Sprintf("topology: slice through coordinate %d of dimension %d of grid shape %v", c, d, g.shape))
	}
	memo := g.through.Load()
	if memo == nil {
		total := 0
		for _, s := range g.shape {
			total += s
		}
		fresh := make([]atomic.Pointer[Grid], total)
		if !g.through.CompareAndSwap(nil, &fresh) {
			memo = g.through.Load()
		} else {
			memo = &fresh
		}
	}
	off := c
	for _, s := range g.shape[:d] {
		off += s
	}
	slot := &(*memo)[off]
	if sl := slot.Load(); sl != nil {
		return sl
	}
	var specBuf [maxDims]int
	spec := specBuf[:0]
	if len(g.shape) > maxDims {
		spec = make([]int, 0, len(g.shape))
	}
	for k := range g.shape {
		if k == d {
			spec = append(spec, c)
		} else {
			spec = append(spec, All)
		}
	}
	slot.CompareAndSwap(nil, g.Slice(spec...)) // a racing caller's slice may win
	return slot.Load()
}

// finishInto is finish for grids whose order slice is already allocated.
func (g *Grid) finishInto() *Grid {
	for i := range g.shape {
		g.order = append(g.order, i)
	}
	for i := 1; i < len(g.order); i++ {
		for j := i; j > 0 && g.strides[g.order[j-1]] < g.strides[g.order[j]]; j-- {
			g.order[j-1], g.order[j] = g.order[j], g.order[j-1]
		}
	}
	return g
}

// Row returns the i-th row of a 2-D grid: Slice(i, All).
func (g *Grid) Row(i int) *Grid {
	if g.Dims() != 2 {
		panic("topology: Row requires a 2-D grid")
	}
	return g.Slice(i, All)
}

// Col returns the j-th column of a 2-D grid: Slice(All, j).
func (g *Grid) Col(j int) *Grid {
	if g.Dims() != 2 {
		panic("topology: Col requires a 2-D grid")
	}
	return g.Slice(All, j)
}

// String renders the grid shape and origin, for diagnostics.
func (g *Grid) String() string {
	parts := make([]string, len(g.shape))
	for i, s := range g.shape {
		parts[i] = fmt.Sprint(s)
	}
	return fmt.Sprintf("grid(%s)@%d", strings.Join(parts, "x"), g.base)
}
