package tridiag

import (
	"repro/internal/darray"
	"repro/internal/kernels"
	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/topology"
)

// job is one call of the substructured solver as every front end below
// states it: the systems — solution xs[j], right-hand side fs[j] and either
// coefficient arrays or one constant row — and how they are run. All arrays
// are one-dimensional and block-distributed over the solver grid.
type job struct {
	xs, fs     []*darray.Array
	bs, as, cs []*darray.Array // nil: every row is (b0, a0, c0), the paper's tric
	b0, a0, c0 float64
	// dirichlet replaces the first and last global rows by identity rows
	// with zero right-hand side.
	dirichlet bool
	// marks emits step marks into the machine's trace sink; freeCopyOut
	// leaves the solution's copy-out uncharged (TriTraced, whose timeline
	// is the solver's steps alone).
	marks, freeCopyOut bool
	mapping            Mapping
}

// on runs the job on the subroutine's own grid, under its next scope.
func (jb job) on(c *kf.Ctx) error { return jb.run(c.P, c.G, c.NextScope()) }

// stepOn is on as a step: the job's step on the subroutine's own grid,
// under the scope its first call takes.
func (jb job) stepOn(c *kf.Ctx, s *Solve) (bool, error) {
	if !s.begun {
		s.sc = c.NextScope()
	}
	return jb.step(c.P, c.G, s)
}

// run is the job's blocking driver: its step, waiting wherever a receive
// would block. Every processor of g must call it.
func (jb job) run(p *machine.Proc, g *topology.Grid, sc machine.Scope) error {
	s := Solve{sc: sc}
	for {
		if done, err := jb.step(p, g, &s); done {
			return err
		}
		p.Wait()
	}
}

// step is the one implementation of the solver, as a step: on its first
// call it copies each system's owned rows into the processor's pooled
// scratch (begin), then pipelines the systems through the tree on grid g
// under scope s.sc, and once every system is solved copies the solutions
// out, returns the scratch and reports true with s reset. False where a
// receive would block: the next call with the same job resumes at that
// receive. Every processor of g must step the same job under the same
// scope.
func (jb job) step(p *machine.Proc, g *topology.Grid, s *Solve) (bool, error) {
	if !s.begun {
		if err := jb.begin(p, g, s); err != nil {
			s.release(p)
			return true, err
		}
	}
	if !s.pipeline(p) {
		return false, nil
	}
	for j, x := range jb.xs {
		x.SetOwned1(s.systems[j].x)
		if !jb.freeCopyOut {
			p.Compute(len(s.systems[j].x))
		}
	}
	s.release(p)
	return true, nil
}

// buildLocal copies the owned rows of system j into a localSystem. The
// first and last global rows get zeroed outer couplings. The five slices
// come from the processor's pooled solver scratch; releaseSystems returns
// them once the solution has been copied out.
func (jb job) buildLocal(p *machine.Proc, j int) localSystem {
	f := jb.fs[j]
	n := f.Extent(0)
	ln := f.LocalSize(0)
	scr := scratchOf(p)
	sys := localSystem{
		b: scr.take(ln),
		a: scr.take(ln),
		c: scr.take(ln),
		f: scr.take(ln),
		x: scr.take(ln),
	}
	f.CopyOwned1(sys.f)
	if jb.bs != nil {
		jb.bs[j].CopyOwned1(sys.b)
		jb.as[j].CopyOwned1(sys.a)
		jb.cs[j].CopyOwned1(sys.c)
	} else {
		for i := range sys.b {
			sys.b[i], sys.a[i], sys.c[i] = jb.b0, jb.a0, jb.c0
		}
	}
	if ln > 0 && f.Lower(0) == 0 {
		sys.b[0] = 0
		if jb.dirichlet {
			sys.a[0], sys.c[0], sys.f[0] = 1, 0, 0
		}
	}
	if ln > 0 && f.Upper(0) == n-1 {
		sys.c[ln-1] = 0
		if jb.dirichlet {
			sys.b[ln-1], sys.a[ln-1], sys.f[ln-1] = 0, 1, 0
		}
	}
	p.Compute(2 * ln) // copy-in traffic
	return sys
}

func one(a *darray.Array) []*darray.Array { return []*darray.Array{a} }

// Tri solves the tridiagonal system with coefficient arrays b (lower
// diagonal), a (diagonal), cc (upper diagonal) and right-hand side f,
// writing the solution into x. All five arrays must be one-dimensional,
// block-distributed over the subroutine's grid — the paper's Listing 4
//
//	parsub tri( X, f, b, a, c, n; procs )
//
// Every processor of c.G must call Tri; the grid size must be a power of
// two with at least two rows per processor (otherwise use SolveGather).
func Tri(c *kf.Ctx, x, f, b, a, cc *darray.Array) error {
	return job{xs: one(x), fs: one(f), bs: one(b), as: one(a), cs: one(cc)}.on(c)
}

// TriTraced is Tri with step marks emitted into the machine's trace sink,
// used by the Figure 3 and Figure 5 generators.
func TriTraced(c *kf.Ctx, x, f, b, a, cc *darray.Array) error {
	return job{xs: one(x), fs: one(f), bs: one(b), as: one(a), cs: one(cc), marks: true, freeCopyOut: true}.on(c)
}

// TriC is the constant-coefficient variant of Tri (the paper's tric, used
// by the ADI driver): every row is (b0, a0, c0).
func TriC(c *kf.Ctx, x, f *darray.Array, b0, a0, c0 float64) error {
	return job{xs: one(x), fs: one(f), b0: b0, a0: a0, c0: c0}.on(c)
}

// TriCStep is TriC as a step (see kf.Steps): the same solve, advanced
// from s until it completes (true, with s reset, and the solve's error) or
// a receive would block (false; call again with the same arguments once
// woken). s starts at its zero value; its first call takes the solve's
// scope from c.
func TriCStep(c *kf.Ctx, s *Solve, x, f *darray.Array, b0, a0, c0 float64) (bool, error) {
	return job{xs: one(x), fs: one(f), b0: b0, a0: a0, c0: c0}.stepOn(c, s)
}

// TriCDirichlet is TriC with the first and last rows replaced by identity
// rows with zero right-hand side — the form the multigrid and spline line
// solves use to pin Dirichlet boundary nodes.
func TriCDirichlet(c *kf.Ctx, x, f *darray.Array, b0, a0, c0 float64) error {
	return job{xs: one(x), fs: one(f), b0: b0, a0: a0, c0: c0, dirichlet: true}.on(c)
}

// MTriC solves m constant-coefficient tridiagonal systems through the
// pipelined schedule of Listing 6: xs[j] and fs[j] are the solution and
// right-hand side of system j, each a one-dimensional block-distributed
// array (or section) on the subroutine's grid. The systems flow through the
// processor groups of the shuffle/unshuffle mapping, keeping all groups
// busy once the pipeline fills.
func MTriC(c *kf.Ctx, xs, fs []*darray.Array, b0, a0, c0 float64) error {
	return job{xs: xs, fs: fs, b0: b0, a0: a0, c0: c0}.on(c)
}

// MTriCTraced is MTriC with optional step marks for the trace analyzers.
func MTriCTraced(c *kf.Ctx, xs, fs []*darray.Array, b0, a0, c0 float64, marks bool) error {
	return job{xs: xs, fs: fs, b0: b0, a0: a0, c0: c0, marks: marks}.on(c)
}

// MTriCMapped is MTriC with an explicit dataflow-to-processor mapping, used
// by the mapping ablation experiment: ShuffleMapping (the paper's Figure 5
// choice) pipelines without contention; PackedMapping makes low-numbered
// processors serve every tree level and stalls the pipeline.
func MTriCMapped(c *kf.Ctx, xs, fs []*darray.Array, b0, a0, c0 float64, mapping Mapping) error {
	return job{xs: xs, fs: fs, b0: b0, a0: a0, c0: c0, mapping: mapping}.on(c)
}

// MTriCStep is MTriC as a step (see kf.Steps) on an explicit solver grid
// and message scope, for a caller whose context spans a larger grid than
// the solve: madi steps one solve per grid slice, concurrently, all under
// one scope (safe because the slices are disjoint). s holds the solve in
// flight: zero to begin, and reset when the step reports true, with the
// solve's error. False where a receive would block; call again with the
// same arguments once woken.
func MTriCStep(p *machine.Proc, g *topology.Grid, sc machine.Scope, s *Solve, xs, fs []*darray.Array, b0, a0, c0 float64) (bool, error) {
	s.sc = sc
	return job{xs: xs, fs: fs, b0: b0, a0: a0, c0: c0}.step(p, g, s)
}

// MTri is the variable-coefficient pipelined solver: system j has
// coefficient arrays bs[j], as[j], cs[j].
func MTri(c *kf.Ctx, xs, fs, bs, as, cs []*darray.Array) error {
	return job{xs: xs, fs: fs, bs: bs, as: as, cs: cs}.on(c)
}

// SolveGather is the naive baseline: gather the whole system onto the
// grid's first processor, solve it there with the Thomas algorithm, and
// scatter the solution. It works for any grid size and block shape, and its
// serial bottleneck is what the substructured algorithm exists to avoid.
func SolveGather(c *kf.Ctx, x, f, b, a, cc *darray.Array) error {
	sc := c.NextScope()
	fb := f.GatherTo(sc.Child(0, 0), 0)
	bb := b.GatherTo(sc.Child(1, 0), 0)
	ab := a.GatherTo(sc.Child(2, 0), 0)
	cb := cc.GatherTo(sc.Child(3, 0), 0)
	n := f.Extent(0)
	var xs []float64
	if c.GridIndex() == 0 {
		xs = make([]float64, n)
		kernels.Thomas(c.P, bb, ab, cb, fb, xs)
	}
	// Scatter: processor 0 sends each owner its block.
	sc2 := c.NextScope()
	if c.GridIndex() == 0 {
		for q := 0; q < c.G.Size(); q++ {
			lo, hi := ownerRange(x, q)
			if hi < lo {
				continue
			}
			if q == 0 {
				x.SetOwned1(xs[lo : hi+1])
				continue
			}
			c.P.Send(c.G.RankAt(q), sc2.Tag(uint16(q)), xs[lo:hi+1])
		}
	} else if x.LocalSize(0) > 0 {
		buf := c.P.Recv(c.G.RankAt(0), sc2.Tag(uint16(c.GridIndex())))
		x.SetOwned1(buf)
	}
	return nil
}

// ownerRange returns the inclusive global range of dimension 0 owned by
// grid member q of array a (assuming a block distribution).
func ownerRange(a *darray.Array, q int) (lo, hi int) {
	n := a.Extent(0)
	p := a.Grid().Size()
	return q * n / p, (q+1)*n/p - 1
}

// SolveSeq is the sequential reference: the Thomas algorithm on plain
// slices (the paper's Listing 1 equivalent for tridiagonal systems).
func SolveSeq(b, a, c, f []float64) []float64 {
	x := make([]float64, len(a))
	kernels.Thomas(nil, b, a, c, f, x)
	return x
}
