// Package kf is the runtime embedding of the KF1 language constructs from
// Mehrotra & Van Rosendale, "Parallel Language Constructs for Tensor Product
// Computations on Loosely Coupled Architectures" (ICASE 89-41): processor
// arrays, parallel subroutines over grid slices, distributed arrays with
// per-dimension distribution clauses, and doall loops with on-clauses whose
// communication is derived by the runtime rather than written by the
// programmer.
//
// A KF1 parallel subroutine
//
//	parsub jacobi(X, f, np; procs)
//	processors procs(p, p)
//	real X(0:np, 0:np) dist (block, block)
//	...
//	doall 100 (i, j) = [1,n]*[1,n] on owner(X(i,j))
//	   X(i,j) = 0.25*(X(i+1,j) + X(i-1,j) + X(i,j+1) + X(i,j-1)) - f(i,j)
//
// becomes
//
//	kf.Exec(m, procs, func(c *kf.Ctx) error {
//	    X := c.NewArray(spec...)
//	    ...
//	    c.Doall2(kf.R(1, n), kf.R(1, n), kf.OnOwner2(X),
//	        []kf.LoopOpt{kf.Reads(X), kf.ReadsNoHalo(f)},
//	        func(cc *kf.Ctx, i, j int) {
//	            X.Set2(i, j, 0.25*(X.Old2(i+1,j)+X.Old2(i-1,j)+X.Old2(i,j+1)+X.Old2(i,j-1)) - f.Old2(i,j))
//	        })
//	    return nil
//	})
//
// The Reads option performs the halo exchange a KF1 compiler would have
// generated and takes the copy-in snapshot that gives doall loops their
// copy-in/copy-out semantics; the body reads old values via Old and writes
// new values via Set, with no temporary array, exactly as in the paper's
// Listing 3. A body that is one such assignment can instead be declared as
// a stencil statement (Assign over Param reads, bound by Plan2.Stencil;
// stencil.go), which runs whole owned rows with no closure call per cell.
//
// SPMD discipline: a Ctx's methods must be called unconditionally by every
// processor of its grid, in the same order (the usual single-program rule).
// Doall iterations and Call invocations receive child contexts whose message
// scopes are derived from structural positions (phase ordinal and iteration
// index), so concurrent work on disjoint grid slices — the nested
// distributed procedures of the paper's multigrid example — cannot confuse
// each other's messages even when different processors execute different
// numbers of nested collectives.
//
// Declare once: Declared(c, sig) is the state a subroutine body keeps between
// runs on the root context Exec hands it — one per (processor, grid) for the
// life of the machine; a child context's slots die with the child. sig must
// cover everything the build reads besides the context (extents,
// distributions, halo widths, loop ranges) and nothing a run refills. Building
// declares arrays and compiles plans but takes no message scope, so a run
// that builds and a run that reuses are bit-identical.
package kf

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/darray"
	"repro/internal/machine"
	"repro/internal/topology"
)

// Ctx is the per-processor execution context of a parallel subroutine: the
// calling processor, the processor grid the subroutine runs on, and a
// message scope that isolates this subroutine's communication.
type Ctx struct {
	// P is the calling (simulated) processor.
	P *machine.Proc
	// G is the processor grid of the current parallel subroutine.
	G *topology.Grid

	scope machine.Scope
	seq   int

	// decls holds what the subroutine declared on this context, one slot
	// per state type — see Declared.
	decls []any
}

// rootCtxKey identifies a processor's cached root context in Proc.Scratch:
// one per grid the processor has executed subroutines on.
type rootCtxKey struct{ g *topology.Grid }

// Exec runs body as a parallel subroutine on grid g of machine m: one
// invocation per member processor, each with its own Ctx. Processors outside
// g idle. It returns the first error from any invocation (including
// converted panics and deadlocks).
//
// The root context is cached per (processor, grid) across Exec calls: its
// message scope and phase counter restart at the root every run (so scope
// streams are identical whether the context is fresh or reused), while the
// declaration slots (Declared) persist — a driver re-running the same
// subroutine declares its arrays and compiles its plans once per System,
// not once per run.
func Exec(m *machine.Machine, g *topology.Grid, body func(c *Ctx) error) error {
	return ExecSteps(m, g, body, nil)
}

// rootCtx returns p's root context on grid g, made on p's first
// subroutine there.
func rootCtx(p *machine.Proc, g *topology.Grid) *Ctx {
	return p.Scratch(rootCtxKey{g}, func() any { return &Ctx{P: p, G: g} }).(*Ctx)
}

// declared is one declaration slot: the state and the signature it was
// built for.
type declared[T any, S comparable] struct {
	sig S
	st  T
}

// Declared returns the calling subroutine's declaration state of type T on
// context c — its distributed arrays, compiled plans, section lists — and
// whether the caller has to build it: fresh is true the first time, and
// again whenever sig differs from the signature the kept state was built
// for, in which case the old state is dropped and a zero T takes its place.
// A context keeps one state per type (a type is declared under one signature
// type), so a pooled System serving one program at varying sizes retains one
// set of declarations, the latest. The package comment states the contract.
func Declared[T any, S comparable](c *Ctx, sig S) (st *T, fresh bool) {
	// A context holds a slot per program family it has run — one or two —
	// so the slots are a slice searched by type; a hit allocates nothing.
	for i, e := range c.decls {
		if d, ok := e.(*declared[T, S]); ok {
			if d.sig == sig {
				return &d.st, false
			}
			d = &declared[T, S]{sig: sig}
			c.decls[i] = d
			return &d.st, true
		}
	}
	d := &declared[T, S]{sig: sig}
	c.decls = append(c.decls, d)
	return &d.st, true
}

// NextScope returns a fresh message scope for the next communication phase.
// Every processor of the grid must call it the same number of times in the
// same order (SPMD discipline); the returned scopes then agree across the
// grid.
func (c *Ctx) NextScope() machine.Scope {
	s := c.scope.Child(c.seq, -1)
	c.seq++
	return s
}

// child returns a Ctx for a nested construct at iteration discriminator
// disc of the current phase.
func (c *Ctx) child(sub *topology.Grid, phase, disc int) *Ctx {
	return &Ctx{P: c.P, G: sub, scope: c.scope.Child(phase, disc)}
}

// Call invokes body as a nested parallel subroutine on the grid slice sub —
// the paper's "distributed procedure" call, e.g. passing procs(ip, *) to a
// tridiagonal solver. Every processor of c.G must call Call (with the same
// sub); only members of sub execute body, with a child context bound to
// sub. Call returns body's error on members and nil on non-members.
func (c *Ctx) Call(sub *topology.Grid, body func(c *Ctx) error) error {
	phase := c.seq
	c.seq++
	if !sub.Contains(c.P.Rank()) {
		return nil
	}
	return body(c.child(sub, phase, -1))
}

// NewArray declares a distributed array on the subroutine's grid — the
// analogue of a dist-clause declaration (or a dynamic array, when called
// mid-routine).
func (c *Ctx) NewArray(spec darray.Spec) *darray.Array {
	return darray.New(c.P, c.G, spec)
}

// Barrier synchronizes all processors of the subroutine's grid.
func (c *Ctx) Barrier() {
	coll.Barrier(c.P, c.G, c.NextScope())
}

// AllReduceSum returns the sum of v over the subroutine's grid, on every
// processor.
func (c *Ctx) AllReduceSum(v float64) float64 {
	return coll.Sum(c.P, c.G, c.NextScope(), v)
}

// AllReduceMax returns the maximum of v over the subroutine's grid, on
// every processor.
func (c *Ctx) AllReduceMax(v float64) float64 {
	return coll.Max(c.P, c.G, c.NextScope(), v)
}

// Broadcast distributes v from the grid's first processor to all members.
func (c *Ctx) Broadcast(v float64) float64 {
	return coll.Broadcast(c.P, c.G, c.NextScope(), v)
}

// GridIndex returns the calling processor's row-major index within the
// subroutine's grid — the ip of "doall ip = 1, p on procs(ip)" (zero
// based).
func (c *Ctx) GridIndex() int {
	idx, ok := c.G.Index(c.P.Rank())
	if !ok {
		panic(fmt.Sprintf("kf: processor %d executing a subroutine outside its grid", c.P.Rank()))
	}
	return idx
}

// Coord returns the calling processor's coordinate in the subroutine's
// grid.
func (c *Ctx) Coord() []int {
	coord, ok := c.G.CoordOf(c.P.Rank())
	if !ok {
		panic(fmt.Sprintf("kf: processor %d executing a subroutine outside its grid", c.P.Rank()))
	}
	return coord
}
