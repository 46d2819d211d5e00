package kf

import (
	"repro/internal/darray"
	"repro/internal/topology"
)

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
// The Doall1/2/3 entry points are this Run too: they consult a per-Ctx plan
// cache keyed by (ranges, on-clause, read-set), so existing callers get the
// hoisting transparently, and compile a header they cannot key for the one
// pass; plans are never invalidated because arrays are immutable views
// (redistributing produces a new array, hence a new cache key).

// planCore holds what every arity's plan shares: the owning context, the
// loop's read-set options, the reusable child context bound to each
// iteration (see child), and the cached iteration grid of the strip-mined
// fast path (nil when the loop takes the generic path).
type planCore struct {
	c    *Ctx
	opts []LoopOpt
	cc   *Ctx
	g    *topology.Grid
}

// fast reports whether the loop runs strip-mined over the owned span.
func (pl *planCore) fast() bool { return pl.g != nil }

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
		if lo, hi, g, fast := s.ownedStrip(c); fast {
			pl.sp, pl.g = span{lo, hi}, g
		}
	}
	return pl
}

// Run executes one pass of the compiled loop. It is semantically identical
// to the Doall1 call the plan was compiled from (same phase accounting,
// same communication, same iteration order); every processor of the plan's
// grid must Run it in the same program order.
func (pl *Plan1) Run(body func(cc *Ctx, i int)) {
	c := pl.c
	phase := pl.prepare()
	cc := pl.child()
	if pl.fast() {
		if pl.sp.lo <= pl.sp.hi {
			eachOwned(pl.r, pl.sp, func(i int) {
				cc.bindIter(c, pl.g, phase, i)
				body(cc, i)
			})
		}
	} else {
		pl.r.Each(func(i int) {
			if pl.on.Owns(c, i) {
				cc.bindIter(c, pl.on.IterGrid(c, i), phase, i)
				body(cc, i)
			}
		})
	}
	pl.finish()
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
		if sp, g, fast := s.ownedStrip2(c); fast {
			pl.sp, pl.g = sp, g
		}
	}
	return pl
}

// Run executes one pass of the compiled loop; see Plan1.Run.
func (pl *Plan2) Run(body func(cc *Ctx, i, j int)) {
	phase := pl.prepare()
	pl.each(phase, body)
	pl.finish()
}

// each runs body over the loop's owned cells, in the loop's order, as
// iterations of the given phase.
func (pl *Plan2) each(phase int, body func(cc *Ctx, i, j int)) {
	c := pl.c
	cc := pl.child()
	if pl.fast() {
		if !pl.sp[0].empty() && !pl.sp[1].empty() {
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
		if sp, g, fast := s.ownedStrip3(c); fast {
			pl.sp, pl.g = sp, g
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

// --- Transparent plan caching for the Doall entry points -----------------

// maxKeyOpts bounds how many loop options a cacheable doall may carry;
// loops with more (none exist today) compile their header every pass.
const maxKeyOpts = 3

// optKey canonicalizes one Reads/ReadsNoHalo option for cache keying: the
// array view identity, whether halos are exchanged, and which dimensions.
type optKey struct {
	arr      *darray.Array
	exchange bool
	ndims    int8
	dims     [3]int8
}

// planKey identifies a doall header: loop ranges, the on-clause (kind +
// array view + dimension), and the canonicalized options. Array views are
// immutable, so a key's meaning never changes.
type planKey struct {
	arity      int8
	onKind     int8
	onDim      int8
	nopts      int8
	onArr      *darray.Array
	ri, rj, rk Range
	opts       [maxKeyOpts]optKey
}

// On-clause kinds representable in a planKey.
const (
	okOwner1 int8 = iota + 1
	okOwnerSection
	okOwner2
	okOwner3
)

// optsKey canonicalizes a doall's options; ok is false when some option is
// not a Reads/ReadsNoHalo (an unknown LoopOpt implementation cannot be
// compared for cache identity, so such headers are not kept).
func optsKey(opts []LoopOpt) (k [maxKeyOpts]optKey, n int8, ok bool) {
	if len(opts) > maxKeyOpts {
		return k, 0, false
	}
	for i, o := range opts {
		r, isReads := o.(*reads)
		if !isReads || len(r.dims) > 3 {
			return k, 0, false
		}
		ek := optKey{arr: r.a, exchange: r.exchange, ndims: int8(len(r.dims))}
		for j, d := range r.dims {
			if d < 0 || d > 63 {
				return k, 0, false
			}
			ek.dims[j] = int8(d)
		}
		k[i] = ek
	}
	return k, int8(len(opts)), true
}

// maxCachedPlans bounds the per-context plan cache: programs that
// construct unbounded streams of distinct arrays (and doall over each
// once) must not retain every header — and every keyed array view —
// forever. At the cap the cache is emptied and refilled, so a persistent
// context (the root contexts Exec reuses across runs) keeps caching its
// current working set instead of pinning the first 256 headers it ever saw.
const maxCachedPlans = 256

// cachePlan stores a compiled plan, emptying the cache first when it is at
// capacity (see maxCachedPlans).
func (c *Ctx) cachePlan(key planKey, pl any) {
	if c.plans == nil {
		c.plans = make(map[planKey]any)
	}
	if len(c.plans) >= maxCachedPlans {
		clear(c.plans)
	}
	c.plans[key] = pl
}

// plan1For returns the compiled header of a Doall1 call: the context's
// memoized plan when the header can be keyed (a bundled on-clause, at most
// maxKeyOpts Reads/ReadsNoHalo options), a plan compiled for this one pass
// otherwise. plan2For and plan3For are the same for their arities.
func (c *Ctx) plan1For(r Range, on On1, opts []LoopOpt) *Plan1 {
	keyOpts, n, keyed := optsKey(opts)
	key := planKey{arity: 1, ri: r, opts: keyOpts, nopts: n}
	switch o := on.(type) {
	case onOwner1:
		key.onKind, key.onArr = okOwner1, o.a
	case onOwnerSection:
		if o.dim <= 63 {
			key.onKind, key.onArr, key.onDim = okOwnerSection, o.a, int8(o.dim)
		}
	}
	if !keyed || key.onKind == 0 {
		return c.Plan1(r, on, opts...)
	}
	if v, hit := c.plans[key]; hit {
		return v.(*Plan1)
	}
	pl := c.Plan1(r, on, opts...)
	c.cachePlan(key, pl)
	return pl
}

func (c *Ctx) plan2For(ri, rj Range, on On2, opts []LoopOpt) *Plan2 {
	o, isOwner := on.(onOwner2)
	keyOpts, n, keyed := optsKey(opts)
	if !isOwner || !keyed {
		return c.Plan2(ri, rj, on, opts...)
	}
	key := planKey{arity: 2, onKind: okOwner2, onArr: o.a, ri: ri, rj: rj, opts: keyOpts, nopts: n}
	if v, hit := c.plans[key]; hit {
		return v.(*Plan2)
	}
	pl := c.Plan2(ri, rj, on, opts...)
	c.cachePlan(key, pl)
	return pl
}

func (c *Ctx) plan3For(ri, rj, rk Range, on On3, opts []LoopOpt) *Plan3 {
	o, isOwner := on.(onOwner3)
	keyOpts, n, keyed := optsKey(opts)
	if !isOwner || !keyed {
		return c.Plan3(ri, rj, rk, on, opts...)
	}
	key := planKey{arity: 3, onKind: okOwner3, onArr: o.a, ri: ri, rj: rj, rk: rk, opts: keyOpts, nopts: n}
	if v, hit := c.plans[key]; hit {
		return v.(*Plan3)
	}
	pl := c.Plan3(ri, rj, rk, on, opts...)
	c.cachePlan(key, pl)
	return pl
}
