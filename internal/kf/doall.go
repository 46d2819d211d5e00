package kf

import (
	"repro/internal/darray"
	"repro/internal/topology"
)

// Range is a Fortran-style inclusive loop range with a stride. The zero
// Step means 1.
type Range struct {
	Lo, Hi, Step int
}

// R returns the inclusive range [lo, hi] with stride 1.
func R(lo, hi int) Range { return Range{Lo: lo, Hi: hi, Step: 1} }

// RStep returns the inclusive range [lo, hi] with the given stride, the
// analogue of "do k = 2, nz-2, 2".
func RStep(lo, hi, step int) Range { return Range{Lo: lo, Hi: hi, Step: step} }

// Each calls f for every index of the range in order.
func (r Range) Each(f func(i int)) {
	step := r.Step
	if step == 0 {
		step = 1
	}
	if step > 0 {
		for i := r.Lo; i <= r.Hi; i += step {
			f(i)
		}
	} else {
		for i := r.Lo; i >= r.Hi; i += step {
			f(i)
		}
	}
}

// On1 is a one-dimensional on-clause: it decides which processors execute
// iteration i and which grid the iteration's body is bound to.
type On1 interface {
	// Owns reports whether the calling processor executes iteration i.
	Owns(c *Ctx, i int) bool
	// IterGrid returns the processor grid iteration i runs on (the
	// single owner for owner-computes clauses, a grid slice for section
	// clauses).
	IterGrid(c *Ctx, i int) *topology.Grid
}

// On2 is a two-dimensional on-clause.
type On2 interface {
	Owns(c *Ctx, i, j int) bool
	IterGrid(c *Ctx, i, j int) *topology.Grid
}

// strip1 is the strip-mining fast path of a one-dimensional on-clause: an
// owner-computes clause over a contiguously distributed dimension exposes
// the calling processor's owned subrange directly, and every owned
// iteration runs on the same grid (IterGrid at any owned index: the slice
// through the calling processor), so the doall can iterate owned indices
// instead of scanning the whole range with per-iteration ownership tests
// and grid-slice lookups.
type strip1 interface {
	// ownedStrip returns the inclusive owned index range. ok reports
	// whether the fast path applies at all (false falls back to the
	// generic ownership scan); an empty span (lo > hi) with ok true means
	// this processor runs no iterations.
	ownedStrip(c *Ctx) (lo, hi int, ok bool)
}

// onOwner1 implements "on owner(A(i))".
type onOwner1 struct{ a *darray.Array }

// OnOwner1 returns the on-clause "on owner(a(i))": iteration i executes on
// the processor owning element i of the one-dimensional array a.
func OnOwner1(a *darray.Array) On1 { return onOwner1{a: a} }

func (o onOwner1) Owns(c *Ctx, i int) bool {
	return o.a.Participates() && o.a.Owns(i)
}

func (o onOwner1) IterGrid(c *Ctx, i int) *topology.Grid {
	// OwnerGrid, not Section(...).Grid(): an on-clause never builds (let
	// alone retains) a section view.
	return o.a.OwnerGrid(i)
}

func (o onOwner1) ownedStrip(c *Ctx) (int, int, bool) {
	if o.a.Dims() != 1 {
		return 0, 0, false // let the generic path diagnose the misuse
	}
	return o.a.OwnedSpan(0)
}

// onOwnerSection implements "on owner(A(i, *))" and friends: iteration i is
// executed by every processor holding part of the section of a with
// dimension dim fixed at i.
type onOwnerSection struct {
	a   *darray.Array
	dim int
}

// OnOwnerSection returns the on-clause "on owner(a(..., i, ...))" where i
// fixes dimension dim: iteration i executes on all processors owning part
// of that section, and the body's context is bound to the section's grid
// slice. This is the clause behind the paper's ADI loops
// ("doall 100 i = 1, nx on owner(r(i, *))").
func OnOwnerSection(a *darray.Array, dim int) On1 { return onOwnerSection{a: a, dim: dim} }

func (o onOwnerSection) Owns(c *Ctx, i int) bool {
	if i < 0 || i >= o.a.Extent(o.dim) {
		return false // out-of-extent iterations have no owner
	}
	return o.a.SectionParticipates(o.dim, i)
}

func (o onOwnerSection) IterGrid(c *Ctx, i int) *topology.Grid {
	return o.a.SectionGrid(o.dim, i)
}

func (o onOwnerSection) ownedStrip(c *Ctx) (int, int, bool) {
	// A processor participates in the section at i exactly when it owns
	// i along dim's axis (Star dims make everyone participate), so the
	// section clause strips the same way the element clause does.
	return o.a.OwnedSpan(o.dim)
}

// onGridIndex implements "on procs(ip)".
type onGridIndex struct{}

// OnProcs returns the on-clause "on procs(ip)": iteration ip executes on
// the processor with row-major index ip in the subroutine's grid (zero
// based).
func OnProcs() On1 { return onGridIndex{} }

func (onGridIndex) Owns(c *Ctx, i int) bool { return c.GridIndex() == i }

func (onGridIndex) IterGrid(c *Ctx, i int) *topology.Grid {
	return singleton(c.G, i)
}

func singleton(g *topology.Grid, idx int) *topology.Grid {
	// Fix every dimension of g at the coordinate of member idx.
	coord := make([]int, g.Dims())
	rem := idx
	for d := g.Dims() - 1; d >= 0; d-- {
		coord[d] = rem % g.Extent(d)
		rem /= g.Extent(d)
	}
	return g.Slice(coord...)
}

// onOwner2 implements "on owner(A(i, j))" for two-dimensional arrays.
type onOwner2 struct{ a *darray.Array }

// OnOwner2 returns the on-clause "on owner(a(i, j))".
func OnOwner2(a *darray.Array) On2 { return onOwner2{a: a} }

func (o onOwner2) Owns(c *Ctx, i, j int) bool {
	return o.a.Participates() && o.a.Owns(i, j)
}

func (o onOwner2) IterGrid(c *Ctx, i, j int) *topology.Grid {
	return o.a.OwnerGrid(i, j)
}

// span is an inclusive owned index range of one loop dimension.
type span struct{ lo, hi int }

func (s span) empty() bool { return s.lo > s.hi }

// strip2 is strip1 for two-dimensional on-clauses.
type strip2 interface {
	ownedStrip2(c *Ctx) (s [2]span, ok bool)
}

func (o onOwner2) ownedStrip2(c *Ctx) ([2]span, bool) {
	var s [2]span
	if o.a.Dims() != 2 {
		return s, false
	}
	ilo, ihi, iok := o.a.OwnedSpan(0)
	jlo, jhi, jok := o.a.OwnedSpan(1)
	s[0], s[1] = span{ilo, ihi}, span{jlo, jhi}
	return s, iok && jok
}

// eachOwned calls f for every index of r that falls inside the owned span,
// in r's order, preserving r's stride phase: exactly the indices the
// generic ownership scan would have executed.
func eachOwned(r Range, s span, f func(i int)) {
	start, end, step := ownedBounds(r, s)
	if step > 0 {
		for i := start; i <= end; i += step {
			f(i)
		}
	} else {
		for i := start; i >= end; i += step {
			f(i)
		}
	}
}

// ownedBounds returns eachOwned's indices as a loop: the first, the bound
// and the stride.
func ownedBounds(r Range, s span) (start, end, step int) {
	step = r.Step
	if step == 0 {
		step = 1
	}
	if step > 0 {
		start, end = r.Lo, min(s.hi, r.Hi)
		if s.lo > start {
			start += ((s.lo - start + step - 1) / step) * step
		}
	} else {
		start, end = r.Lo, max(s.lo, r.Hi)
		if s.hi < start {
			start -= ((start - s.hi - step - 1) / -step) * -step
		}
	}
	return start, end, step
}

// within reports whether a loop going by step from below end (above, for a
// negative step) has not yet passed it at i.
func within(i, end, step int) bool { return step > 0 && i <= end || step < 0 && i >= end }

// LoopOpt prepares distributed data for a doall loop, implementing the
// communication and copy-in/copy-out transformations the KF1 compiler would
// derive from the loop body.
type LoopOpt interface {
	// step advances the option's preparation from ph, the way a step
	// does (see Steps): false while its exchange's receive would block,
	// with the returned phase holding its place.
	step(c *Ctx, ph phase) (phase, bool)
	finish(c *Ctx)
}

// reads performs a halo exchange followed by a copy-in snapshot.
type reads struct {
	a        *darray.Array
	exchange bool
	live     bool // the body reads a's live data: no snapshot (see Plan2.Stencil)
	dims     []int
}

// Reads declares that the loop body reads array a with a nearest-neighbor
// stencil: the runtime exchanges a's halos (in the given dimensions, or all
// haloed dimensions when none are named) and snapshots it so the body can
// read pre-loop values through a.Old — the copy-in half of the doall
// semantics. Every processor of the loop's grid must participate.
func Reads(a *darray.Array, dims ...int) LoopOpt {
	return &reads{a: a, exchange: true, dims: dims}
}

// ReadsNoHalo declares that the loop body reads only owned elements of a:
// the runtime snapshots a without communication.
func ReadsNoHalo(a *darray.Array) LoopOpt {
	return &reads{a: a}
}

func (r *reads) step(c *Ctx, ph phase) (phase, bool) {
	// Take the scope unconditionally so phase numbering stays aligned
	// across processors even when some do not hold a piece of a.
	sc := ph.scope(c)
	if !r.a.Participates() {
		return ph, true
	}
	if r.exchange && !r.a.ExchangeHaloStep(sc, &ph.halo, r.dims...) {
		return ph, false
	}
	if !r.live {
		r.a.Snapshot()
	}
	return ph, true
}

func (r *reads) finish(c *Ctx) {
	if !r.live && r.a.Participates() {
		r.a.ReleaseSnapshot()
	}
}

// reuseChild returns a child context that the doall loops mutate and reuse
// across iterations instead of allocating one per iteration. The body sees
// the same semantics — grid, scope and phase numbering are reset before
// every call — but the loop performs no per-iteration heap allocation.
// Bodies must not retain the context beyond the iteration (they never do:
// a KF1 iteration's context is lexically scoped to the iteration).
func (c *Ctx) reuseChild() *Ctx { return &Ctx{P: c.P} }

// bindIter points the reusable child context at one iteration.
func (cc *Ctx) bindIter(c *Ctx, g *topology.Grid, phase, disc int) {
	cc.G = g
	cc.scope = c.scope.Child(phase, disc)
	cc.seq = 0
}

// Doall1 executes a one-dimensional doall loop: for each index of r, the
// processors selected by the on-clause run body with a child context bound
// to the iteration's grid. Non-selected processors skip the iteration
// without synchronizing — exactly the strip-mining a KF1 compiler performs.
// The opts run first (on every processor of c.G), deriving the loop's
// communication.
//
// Owner-computes clauses over contiguously distributed dimensions are
// strip-mined: the processor iterates its owned subrange directly with a
// cached iteration grid, instead of testing ownership (and re-deriving the
// section grid) for every index of the range. The loop is the Run of a
// header compiled for this one pass (plan.go); an iterative loop declares
// its Plan1 instead, so its communication structure is derived once.
func (c *Ctx) Doall1(r Range, on On1, opts []LoopOpt, body func(cc *Ctx, i int)) {
	c.Plan1(r, on, opts...).Run(body)
}

// Doall2 executes a two-dimensional doall loop over the product of ranges
// ri and rj — the paper's "doall (i, j) = [1, n] * [1, n]" headers. Like
// Doall1, owner-computes clauses over contiguous distributions are
// strip-mined to the owned subrectangle, and the header is compiled for
// this one pass (see Plan2).
func (c *Ctx) Doall2(ri, rj Range, on On2, opts []LoopOpt, body func(cc *Ctx, i, j int)) {
	c.Plan2(ri, rj, on, opts...).Run(body)
}

// On3 is a three-dimensional on-clause.
type On3 interface {
	Owns(c *Ctx, i, j, k int) bool
	IterGrid(c *Ctx, i, j, k int) *topology.Grid
}

// onOwner3 implements "on owner(A(i, j, k))" for three-dimensional arrays.
type onOwner3 struct{ a *darray.Array }

// OnOwner3 returns the on-clause "on owner(a(i, j, k))".
func OnOwner3(a *darray.Array) On3 { return onOwner3{a: a} }

func (o onOwner3) Owns(c *Ctx, i, j, k int) bool {
	return o.a.Participates() && o.a.Owns(i, j, k)
}

func (o onOwner3) IterGrid(c *Ctx, i, j, k int) *topology.Grid {
	return o.a.OwnerGrid(i, j, k)
}

// strip3 is strip1 for three-dimensional on-clauses.
type strip3 interface {
	ownedStrip3(c *Ctx) (s [3]span, ok bool)
}

func (o onOwner3) ownedStrip3(c *Ctx) ([3]span, bool) {
	var s [3]span
	if o.a.Dims() != 3 {
		return s, false
	}
	for d := 0; d < 3; d++ {
		lo, hi, ok := o.a.OwnedSpan(d)
		if !ok {
			return s, false
		}
		s[d] = span{lo, hi}
	}
	return s, true
}

// Doall3 executes a three-dimensional doall loop over the product of three
// ranges — the shape of the paper's Section 5 volume sweeps. Owner-computes
// clauses over contiguous distributions are strip-mined to the owned
// subvolume, and the header is compiled for this one pass (see Plan3).
func (c *Ctx) Doall3(ri, rj, rk Range, on On3, opts []LoopOpt, body func(cc *Ctx, i, j, k int)) {
	c.Plan3(ri, rj, rk, on, opts...).Run(body)
}
