package kf

import (
	"repro/internal/coll"
	"repro/internal/darray"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/topology"
)

// This file is the step form of a parallel subroutine body: the body as a
// straight line of declared steps over the rank's declared state, which
// the engine resumes by a call instead of keeping a stack per processor
// (machine.StepFunc). Jacobi's KF1Ctx, say, is
//
//	declare (first run only); fill; niter × the stencil sweep;
//	all-reduce the clock's maximum; gather to rank 0
//
// and is declared once, for every processor, as
//
//	var kf1Steps = kf.Steps[kf1State, kf1Args]{
//	    {Do: (*kf1State).declare},
//	    {Do: (*kf1State).fill},
//	    {Do: (*kf1State).step, Times: kf1Args.iters},
//	    {Do: (*kf1State).reduceClock},
//	    {Do: (*kf1State).gather},
//	}
//
// where each Do runs its part of the body on the rank's state and the
// run's arguments (the problem and the iteration count, which every call
// passes again) and reports whether it completed. A Do that communicates
// does so through the step forms of the runtime's loops and collectives —
// Stencil.Step, Plan1.Step (whose per-iteration body is itself a step, a
// line solve say), Plan2.Step (a closure over cells), AllReduceMaxStep,
// GatherToStep — which report false where a receive would block, keeping
// their place in the Cursor they are handed. A loop of several steps, such
// as ADI's iteration (two sweeps, two families of line solves, a residual
// and its all-reduce), is one Step with a Loop body. The rank's
// continuation is a Cont: the step, the iteration of a repeated step, the
// step within a loop body and that cursor, a few words in the rank's
// state. Steps.Step runs the line from there until it ends or a receive
// would block; Steps.Run is its blocking driver, the body form of the same
// steps. Both forms send the same messages in the same order and block at
// the same receives. The blocking loops and collectives (Plan1.Run,
// Plan2.Run, Stencil.Run, AllReduceMax) are these step forms driven to the
// end in the same way.

// Steps is a parallel subroutine body declared as a straight line of steps
// over the rank's state S and the run's arguments A; see the file comment.
// It is declared once and shared by every processor: what differs per rank
// is S.
type Steps[S, A any] []Step[S, A]

// Step is one step of a Steps program. Do runs the step on the rank's
// state and reports whether it completed; false means a receive would
// block, and Do is called again with the same Cursor once the rank is
// woken. Loop, in place of Do, is a loop body of several such steps, run
// in order. Times, when set, is how many times the step (or the loop body)
// runs in a row (the Cursor starts afresh for each Do); nil is once.
type Step[S, A any] struct {
	Do    func(s *S, a A, c *Ctx, k *Cursor) bool
	Loop  []func(s *S, a A, c *Ctx, k *Cursor) bool
	Times func(a A) int
}

// Cont is a rank's place in a Steps program: the step, the iteration of a
// repeated step, the step of a loop body and the cursor of the step in
// flight. The zero value is the program's start.
type Cont struct {
	pc, iter, sub int32
	k             Cursor
}

// Cursor is where a step stands in its communication: the phase in
// flight, the loop options a pass has prepared, the iteration a Plan1 pass
// has reached, and the place of the collective under way. The zero value
// is a step not yet begun.
type Cursor struct {
	ph     phase
	opt    int
	it     iterCursor
	tree   coll.Cursor
	gather darray.GatherCursor
}

// iterCursor is a Plan1 pass's place among its iterations: whether it has
// claimed its phase ordinal (and which), the iteration in flight, and
// whether that iteration's context is bound.
type iterCursor struct {
	claimed, bound bool
	ord, i         int
}

// Scope returns the step's message scope: taken from c on the step's first
// call, and the same one on every call after.
func (k *Cursor) Scope(c *Ctx) machine.Scope { return k.ph.scope(c) }

// phase is one communication phase in flight: its message scope, its halo
// replay's place, and whether it has taken the scope.
type phase struct {
	sc    machine.Scope
	halo  sched.Cursor
	begun bool
}

// scope returns the phase's message scope, taken from c the first time.
func (ph *phase) scope(c *Ctx) machine.Scope {
	if !ph.begun {
		ph.sc, ph.begun = c.NextScope(), true
	}
	return ph.sc
}

// Step runs the program on c, s and a from t until it ends (true, with t
// at the end: reset it to start over) or a receive would block (false, with
// t holding the continuation to call Step with again).
func (ss Steps[S, A]) Step(c *Ctx, s *S, a A, t *Cont) bool {
	for ; int(t.pc) < len(ss); t.pc++ {
		st := &ss[t.pc]
		n := 1
		if st.Times != nil {
			n = st.Times(a)
		}
		for ; int(t.iter) < n; t.iter++ {
			if st.Loop == nil {
				if !st.Do(s, a, c, &t.k) {
					return false
				}
				t.k = Cursor{}
				continue
			}
			for ; int(t.sub) < len(st.Loop); t.sub++ {
				if !st.Loop[t.sub](s, a, c, &t.k) {
					return false
				}
				t.k = Cursor{}
			}
			t.sub = 0
		}
		t.iter = 0
	}
	return true
}

// Run is the blocking driver of the program: Step from t to the end,
// waiting wherever a receive would block.
func (ss Steps[S, A]) Run(c *Ctx, s *S, a A, t *Cont) {
	for !ss.Step(c, s, a, t) {
		c.P.Wait()
	}
}

// AllReduceMaxStep is AllReduceMax as a step: the maximum of v over the
// subroutine's grid and true once this processor has it, false while a
// receive would block. v is read on the first call only.
func (c *Ctx) AllReduceMaxStep(k *Cursor, v float64) (float64, bool) {
	return coll.MaxStep(c.P, c.G, k.ph.scope(c), v, &k.tree)
}

// GatherToStep is a.GatherTo(c.NextScope(), rootIdx) as a step: the
// gathered array on the root (nil elsewhere) and true once this
// processor's part is done, false while a receive would block.
func (c *Ctx) GatherToStep(k *Cursor, a *darray.Array, rootIdx int) ([]float64, bool) {
	return a.GatherToStep(k.ph.scope(c), rootIdx, &k.gather)
}

// ExecSteps is Exec for a subroutine that offers a step form beside its
// body: where the machine can run it (machine.RunSteps; and not on a
// SetDirect machine, whose derivations have no step form), every member
// processor runs step — called with resume false to start, and again with
// resume true each time it reported done false and was woken — and body
// otherwise. Both get the processor's root context, reset at the start of
// the run only. A nil step is Exec.
func ExecSteps(m *machine.Machine, g *topology.Grid, body func(c *Ctx) error, step func(c *Ctx, resume bool) (done bool, err error)) error {
	var stepFn machine.StepFunc
	if step != nil && !m.Direct() {
		stepFn = func(p *machine.Proc, resume bool) (bool, error) {
			// A processor outside g is done at its first call.
			if !resume && !g.Contains(p.Rank()) {
				return true, nil
			}
			c := rootCtx(p, g)
			if !resume {
				c.scope = machine.RootScope()
				c.seq = 0
			}
			return step(c, resume)
		}
	}
	return m.RunSteps(func(p *machine.Proc) error {
		if !g.Contains(p.Rank()) {
			return nil
		}
		c := rootCtx(p, g)
		c.scope = machine.RootScope()
		c.seq = 0
		return body(c)
	}, stepFn)
}
