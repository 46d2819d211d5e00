package kf

import "repro/internal/topology"

// This file is the loop-inspector half of the doall runtime: a Plan is a
// doall header whose communication derivation — halo schedules, copy-in
// snapshots, owned strips and iteration grids — has been hoisted out of the
// loop, exactly the transformation the paper assigns to the KF1 compiler
// ("the compiler would hoist that derivation out of iterative loops so only
// the data motion repeats"). Construct a plan once, before an iterative
// loop, and Run it every pass:
//
//	plan := c.Plan2(kf.R(1, n-2), kf.R(1, n-2), kf.OnOwner2(x),
//	    kf.Reads(x), kf.ReadsNoHalo(f))
//	for it := 0; it < niter; it++ {
//	    plan.Run(func(cc *kf.Ctx, i, j int) { ... })
//	}
//
// A warmed Run performs the same messages, in the same order, with the same
// virtual-time costs as the equivalent Doall call — and no heap allocation.
// The Doall1/2/3 entry points are this Run too, on a header compiled for
// the one pass and then dropped; a loop that repeats declares its plan on
// the root context (Declared), so its header outlives the run.

// planCore holds what every arity's plan shares: the owning context, the
// loop's read-set options, the reusable child context bound to each
// iteration (see child), whether the loop runs strip-mined over the owned
// span, and then the iteration grid every owned iteration binds, taken
// from the on-clause by the first iteration that runs a body (a stencil
// statement's row path never does).
type planCore struct {
	c     *Ctx
	opts  []LoopOpt
	cc    *Ctx
	strip bool
	g     *topology.Grid
}

// fast reports whether the loop runs strip-mined over the owned span.
func (pl *planCore) fast() bool { return pl.strip }

// child returns the reusable child context bound to each iteration, made
// by the first Run that calls a body: a stencil statement's row path never
// does.
func (pl *planCore) child() *Ctx {
	if pl.cc == nil {
		pl.cc = pl.c.reuseChild()
	}
	return pl.cc
}

// prepare runs the loop options (halo exchanges and snapshots) and claims
// the loop's phase ordinal: prepareStep driven to the end, waiting wherever
// a receive would block.
func (pl *planCore) prepare() int {
	var k Cursor
	for !pl.prepareStep(&k) {
		pl.c.P.Wait()
	}
	return pl.claim()
}

// prepareStep runs the loop options from k, in order, the way a step does:
// false while an option's exchange would block.
func (pl *planCore) prepareStep(k *Cursor) bool {
	for ; k.opt < len(pl.opts); k.opt++ {
		ph, done := pl.opts[k.opt].step(pl.c, k.ph)
		if !done {
			k.ph = ph
			return false
		}
		k.ph = phase{}
	}
	return true
}

// claim takes the loop's phase ordinal, once its options are prepared.
func (pl *planCore) claim() int {
	phase := pl.c.seq
	pl.c.seq++
	return phase
}

func (pl *planCore) finish() {
	for _, o := range pl.opts {
		o.finish(pl.c)
	}
}

// Plan1 is a compiled one-dimensional doall header.
type Plan1 struct {
	planCore
	r  Range
	on On1
	sp span
}

// Plan1 compiles the header of Doall1(r, on, opts, ...): the on-clause's
// owned strip and iteration grid are derived now, so Run only moves data
// and executes the body.
func (c *Ctx) Plan1(r Range, on On1, opts ...LoopOpt) *Plan1 {
	pl := &Plan1{planCore: planCore{c: c, opts: opts}, r: r, on: on}
	if s, ok := on.(strip1); ok {
		if lo, hi, fast := s.ownedStrip(c); fast {
			pl.sp, pl.strip = span{lo, hi}, true
		}
	}
	return pl
}

// Run executes one pass of the compiled loop. It is semantically identical
// to the Doall1 call the plan was compiled from (same phase accounting,
// same communication, same iteration order); every processor of the plan's
// grid must Run it in the same program order. It is Step driven to the
// end, waiting wherever a receive would block.
func (pl *Plan1) Run(body func(cc *Ctx, i int)) {
	var k Cursor
	for !pl.Step(&k, func(cc *Ctx, i int) bool { body(cc, i); return true }) {
		pl.c.P.Wait()
	}
}

// Step advances one pass of the compiled loop from k, the way a step does
// (see Steps): the loop options, then every owned iteration in order, then
// the options' finish. body is an iteration as a step of its own — a line
// solve, say: false where its receive would block, and called again for
// the same iteration on the same bound context by the next Step, which
// resumes there. False while an option or an iteration would block.
func (pl *Plan1) Step(k *Cursor, body func(cc *Ctx, i int) bool) bool {
	c, it := pl.c, &k.it
	start, end, step := pl.bounds()
	if !it.claimed {
		if !pl.prepareStep(k) {
			return false
		}
		it.claimed, it.ord, it.i = true, pl.claim(), start
	}
	cc := pl.child()
	for ; within(it.i, end, step); it.i += step {
		if !it.bound {
			g := pl.iterGrid(it.i)
			if g == nil {
				continue
			}
			cc.bindIter(c, g, it.ord, it.i)
			it.bound = true
		}
		if !body(cc, it.i) {
			return false
		}
		it.bound = false
	}
	pl.finish()
	return true
}

// bounds returns the indices a pass visits, as a loop: the owned strip's,
// or the whole range's for the ownership scan.
func (pl *Plan1) bounds() (start, end, step int) {
	if pl.fast() {
		return ownedBounds(pl.r, pl.sp)
	}
	step = pl.r.Step
	if step == 0 {
		step = 1
	}
	return pl.r.Lo, pl.r.Hi, step
}

// iterGrid returns the grid iteration i binds, nil when the calling
// processor does not own i.
func (pl *Plan1) iterGrid(i int) *topology.Grid {
	if !pl.fast() {
		if !pl.on.Owns(pl.c, i) {
			return nil
		}
		return pl.on.IterGrid(pl.c, i)
	}
	if pl.g == nil {
		pl.g = pl.on.IterGrid(pl.c, pl.sp.lo)
	}
	return pl.g
}

// Plan2 is a compiled two-dimensional doall header.
type Plan2 struct {
	planCore
	ri, rj Range
	on     On2
	sp     [2]span
}

// Plan2 compiles the header of Doall2(ri, rj, on, opts, ...).
func (c *Ctx) Plan2(ri, rj Range, on On2, opts ...LoopOpt) *Plan2 {
	pl := &Plan2{planCore: planCore{c: c, opts: opts}, ri: ri, rj: rj, on: on}
	if s, ok := on.(strip2); ok {
		if sp, fast := s.ownedStrip2(c); fast {
			pl.sp, pl.strip = sp, true
		}
	}
	return pl
}

// Run executes one pass of the compiled loop; see Plan1.Run. It is Step
// driven to the end, waiting wherever a receive would block.
func (pl *Plan2) Run(body func(cc *Ctx, i, j int)) {
	var k Cursor
	for !pl.Step(&k, body) {
		pl.c.P.Wait()
	}
}

// Step advances one pass of the compiled loop from k, the way a step does
// (see Steps): the loop options, then — once they are prepared — every
// owned cell and the options' finish, which need no message. False while
// an option's exchange would block; the next call with the same k resumes
// it. The body is a closure over one cell and never communicates.
func (pl *Plan2) Step(k *Cursor, body func(cc *Ctx, i, j int)) bool {
	if !pl.prepareStep(k) {
		return false
	}
	pl.each(pl.claim(), body)
	pl.finish()
	return true
}

// each runs body over the loop's owned cells, in the loop's order, as
// iterations of the given phase.
func (pl *Plan2) each(phase int, body func(cc *Ctx, i, j int)) {
	c := pl.c
	cc := pl.child()
	if pl.fast() {
		if !pl.sp[0].empty() && !pl.sp[1].empty() {
			if pl.g == nil {
				pl.g = pl.on.IterGrid(c, pl.sp[0].lo, pl.sp[1].lo)
			}
			eachOwned(pl.ri, pl.sp[0], func(i int) {
				eachOwned(pl.rj, pl.sp[1], func(j int) {
					cc.bindIter(c, pl.g, phase, i*(pl.rj.Hi+1)+j)
					body(cc, i, j)
				})
			})
		}
	} else {
		pl.ri.Each(func(i int) {
			pl.rj.Each(func(j int) {
				if pl.on.Owns(c, i, j) {
					cc.bindIter(c, pl.on.IterGrid(c, i, j), phase, i*(pl.rj.Hi+1)+j)
					body(cc, i, j)
				}
			})
		})
	}
}

// Plan3 is a compiled three-dimensional doall header.
type Plan3 struct {
	planCore
	ri, rj, rk Range
	on         On3
	sp         [3]span
}

// Plan3 compiles the header of Doall3(ri, rj, rk, on, opts, ...).
func (c *Ctx) Plan3(ri, rj, rk Range, on On3, opts ...LoopOpt) *Plan3 {
	pl := &Plan3{planCore: planCore{c: c, opts: opts}, ri: ri, rj: rj, rk: rk, on: on}
	if s, ok := on.(strip3); ok {
		if sp, fast := s.ownedStrip3(c); fast {
			pl.sp, pl.strip = sp, true
		}
	}
	return pl
}

// Run executes one pass of the compiled loop; see Plan1.Run.
func (pl *Plan3) Run(body func(cc *Ctx, i, j, k int)) {
	c := pl.c
	phase := pl.prepare()
	cc := pl.child()
	if pl.fast() {
		if !pl.sp[0].empty() && !pl.sp[1].empty() && !pl.sp[2].empty() {
			if pl.g == nil {
				pl.g = pl.on.IterGrid(c, pl.sp[0].lo, pl.sp[1].lo, pl.sp[2].lo)
			}
			eachOwned(pl.ri, pl.sp[0], func(i int) {
				eachOwned(pl.rj, pl.sp[1], func(j int) {
					eachOwned(pl.rk, pl.sp[2], func(k int) {
						cc.bindIter(c, pl.g, phase, (i*(pl.rj.Hi+1)+j)*(pl.rk.Hi+1)+k)
						body(cc, i, j, k)
					})
				})
			})
		}
	} else {
		pl.ri.Each(func(i int) {
			pl.rj.Each(func(j int) {
				pl.rk.Each(func(k int) {
					if pl.on.Owns(c, i, j, k) {
						cc.bindIter(c, pl.on.IterGrid(c, i, j, k), phase, (i*(pl.rj.Hi+1)+j)*(pl.rk.Hi+1)+k)
						body(cc, i, j, k)
					}
				})
			})
		})
	}
	pl.finish()
}
