package kf

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/darray"
	"repro/internal/machine"
)

// This file is the stencil statement: a two-dimensional doall body that is
// one assignment of an arithmetic expression over constant-offset reads,
// declared as data instead of written as a closure, so the runtime can
// lower it the way a KF1 compiler would — to index arithmetic over the
// owned block. The paper's Listing 3 statement
//
//	X(i, j) = 0.25*(X(i+1, j) + X(i-1, j) + X(i, j+1) + X(i, j-1)) - f(i, j)
//
// is declared once, for every processor, over array parameters:
//
//	x, f := kf.Param(0), kf.Param(1)
//	sweepStmt := kf.Assign(x, kf.Sub(kf.Scale(0.25, kf.Sum(x.Old(1, 0),
//	    x.Old(-1, 0), x.Old(0, 1), x.Old(0, -1))), f.Old(0, 0)))
//
// and each processor binds it to its own arrays as the body of a doall
// header, once:
//
//	sweep := c.Plan2(kf.R(1, n-2), kf.R(1, n-2), kf.OnOwner2(X),
//	    kf.Reads(X), kf.ReadsNoHalo(F)).Stencil(sweepStmt, X, F)
//
// Every pass is then sweep.Run(), which is the plan's Run with the body
//
//	func(cc *kf.Ctx, i, j int) {
//	    X.Set2(i, j, <rhs read through Old2/At2>)
//	    cc.P.Compute(<arithmetic operations in rhs>)
//	}
//
// — the same messages, values, virtual times and panics — but when the plan
// is strip-mined it runs no closure, binds no iteration context and tests no
// window per cell, and it copies into a snapshot only what a read could see
// change: Old reads of an array the statement does not assign read its live
// data. Assign compiles the
// right-hand side once into operations over row registers, shared by every
// processor; a plan's Stencil binds them, per position class, into one
// compiled loop the machine shares (stencilClass). Binding checks the owned
// index box, shifted by each read's offset, against that array's read
// window (and the box against the destination's write window) once; a pass
// then walks whole owned rows, every operation one tight loop over a row of
// storage. What the box check cannot prove — a cyclic dimension, a read
// outside its window, a non-unit or reversed stride along the rows, a read
// of the destination's current values at a non-zero offset (which sees
// cells the statement has already written), a statement too large for the
// row registers — runs cell by cell through the accessors instead, so it
// behaves, and panics, exactly as the closure would.
//
// Every operation rounds on its own, in the tree's order: products are
// converted explicitly, so Go never fuses one into a multiply-add. On amd64,
// where Go fuses nothing, a statement and the closure it replaces agree bit
// for bit. Where Go may fuse the closure's a*b + c (arm64, ppc64le, s390x),
// the statement still rounds the product first, so its values can differ
// from that closure's in the last bit.

// Param is a statement's array parameter: Param(k) stands for the k-th
// array a plan's Stencil binds the statement to.
type Param int

// Old reads the parameter's copy-in snapshot at the iteration index plus
// (di, dj): Old2(i+di, j+dj). The loop must snapshot the array (Reads or
// ReadsNoHalo); where the pass cannot change what the read sees, the
// statement reads the live data instead and the option copies nothing.
func (p Param) Old(di, dj int) *Expr { return read(exOld, p, di, dj) }

// At reads the parameter's current value at the iteration index plus
// (di, dj): At2(i+di, j+dj). Reading the destination this way at a non-zero
// offset sees the cells the statement has already written, as the doall
// body would; such a statement runs cell by cell.
func (p Param) At(di, dj int) *Expr { return read(exAt, p, di, dj) }

func read(op exprOp, p Param, di, dj int) *Expr {
	if p < 0 {
		panic(fmt.Sprintf("kf: stencil read of parameter %d", p))
	}
	return &Expr{op: op, arg: int(p), off: [2]int{di, dj}}
}

// Expr is the right-hand side of a stencil statement: an arithmetic
// expression over constant-offset reads of array parameters, built with
// Param.Old, Param.At, Sum, Sub and Scale. The tree fixes the evaluation
// order: Sum(a, b, c) is (a+b)+c, which is what Go makes of a + b + c.
type Expr struct {
	op   exprOp
	a, b *Expr
	c    float64 // Scale's constant
	arg  int     // a read's parameter
	off  [2]int  // a read's offset
}

type exprOp uint8

const (
	exOld exprOp = iota
	exAt
	exAdd
	exSub
	exScale
)

// Sum is the left-to-right sum of its terms: ((t₀ + t₁) + t₂) + ….
func Sum(terms ...*Expr) *Expr {
	if len(terms) == 0 {
		panic("kf: Sum of no terms")
	}
	e := terms[0]
	for _, t := range terms[1:] {
		e = &Expr{op: exAdd, a: e, b: t}
	}
	return e
}

// Sub is a - b.
func Sub(a, b *Expr) *Expr { return &Expr{op: exSub, a: a, b: b} }

// Scale is c * e.
func Scale(c float64, e *Expr) *Expr { return &Expr{op: exScale, a: e, c: c} }

// isRead reports whether e is an array read.
func (e *Expr) isRead() bool { return e.op == exOld || e.op == exAt }

// visit calls f for every read of e, in evaluation order, and returns the
// number of arithmetic operations in e.
func (e *Expr) visit(f func(r *Expr)) int {
	switch {
	case e.isRead():
		f(e)
		return 0
	case e.op == exScale:
		return 1 + e.a.visit(f)
	}
	return 1 + e.a.visit(f) + e.b.visit(f)
}

// eval is e at iteration (i, j) over arrs through the accessors — the
// closure body's arithmetic, in its order — with the Old reads of the
// parameters live marks reading the live data.
func (e *Expr) eval(arrs []*darray.Array, live uint64, i, j int) float64 {
	switch e.op {
	case exOld:
		if e.arg < 64 && live&(1<<e.arg) != 0 {
			return arrs[e.arg].At2(i+e.off[0], j+e.off[1])
		}
		return arrs[e.arg].Old2(i+e.off[0], j+e.off[1])
	case exAt:
		return arrs[e.arg].At2(i+e.off[0], j+e.off[1])
	case exAdd:
		return e.a.eval(arrs, live, i, j) + e.b.eval(arrs, live, i, j)
	case exSub:
		return e.a.eval(arrs, live, i, j) - e.b.eval(arrs, live, i, j)
	}
	return float64(e.c * e.a.eval(arrs, live, i, j))
}

// Statement is a stencil statement, "dst(i, j) = rhs", declared once for
// every processor: its arrays are parameters, which a plan's Stencil binds
// to the calling processor's arrays. Assign compiles the row program here,
// so processors share it; a Statement is never modified afterwards.
type Statement struct {
	id    uint64 // the statement's number, which keys its compiled loops
	dst   int
	rhs   *Expr
	nargs int
	flops int

	// The row program: reads[k] fills register k, the destination is
	// register len(reads), ntemp temporaries follow. ops is nil when the
	// statement cannot run by rows on any processor.
	reads []rowRead
	ops   []rowOp
	ntemp int
}

// rowRead is one read of the row program.
type rowRead struct {
	arg int
	off [2]int
	old bool
}

// rowOp is one operation of the row program, cell by cell: the
// left-to-right linear combination ((c₀·r₀ + c₁·r₁) + c₂·r₂) + c₃·r₃ of
// n ≤ 4 registers. A chain of Sum, Sub and Scale nodes becomes one
// combination exactly: 1·x is x, and a - b is a + (-1)·b, bit for bit.
type rowOp struct {
	n    uint8
	dst  uint8
	args [maxTerms]uint8
	c    [maxTerms]float64
}

// maxRegs bounds the row registers (reads, destination, temporaries),
// which live on the running goroutine's stack; a larger statement runs
// cell by cell. maxTerms is the most terms one combination takes; a longer
// chain continues in the next operation from the partial sum.
const (
	maxRegs  = 16
	maxTerms = 4
)

// statements numbers the statements Assign declares.
var statements atomic.Uint64

// Assign declares the statement "dst = rhs".
func Assign(dst Param, rhs *Expr) *Statement {
	if dst < 0 {
		panic(fmt.Sprintf("kf: stencil statement assigns parameter %d", dst))
	}
	st := &Statement{id: statements.Add(1), dst: int(dst), rhs: rhs, nargs: int(dst) + 1}
	st.flops = rhs.visit(func(r *Expr) { st.nargs = max(st.nargs, r.arg+1) })
	st.compile()
	return st
}

// compile builds the row program, leaving ops nil when the statement must
// run cell by cell everywhere.
func (st *Statement) compile() {
	nreads := 0
	st.rhs.visit(func(*Expr) { nreads++ })
	if nreads+1 > maxRegs {
		return
	}
	rc := rowCompiler{st: st, nref: nreads + 1}
	st.reads = make([]rowRead, 0, nreads)
	root, ok := rc.emit(st.rhs)
	if !ok {
		st.reads = nil
		return
	}
	// The root's operation writes the destination row directly; a bare
	// read is copied (1·x).
	out := uint8(nreads)
	if n := len(rc.ops); n > 0 && int(rc.ops[n-1].dst) == root {
		rc.ops[n-1].dst = out
	} else {
		rc.ops = append(rc.ops, rowOp{n: 1, dst: out, args: [maxTerms]uint8{uint8(root)}, c: [maxTerms]float64{1}})
	}
	st.ops, st.ntemp = rc.ops, rc.ntemp
}

// term is one summand of a combination: c times the value of x.
type term struct {
	c float64
	x *Expr
}

// chain appends the terms of e read as a left-deep chain of additions and
// subtractions, each summand folding at most one Scale into its
// coefficient (c·(d·x) is two roundings, so only the outer scale folds).
func chain(e *Expr, ts []term) []term {
	switch e.op {
	case exAdd:
		return summand(e.b, 1, chain(e.a, ts))
	case exSub:
		return summand(e.b, -1, chain(e.a, ts))
	}
	return summand(e, 1, ts)
}

func summand(e *Expr, sign float64, ts []term) []term {
	if e.op == exScale {
		return append(ts, term{sign * e.c, e.a})
	}
	return append(ts, term{sign, e})
}

// rowCompiler is the register allocation of one compile: reads take
// registers 0..nref-2 in evaluation order, the destination nref-1,
// temporaries the registers after.
type rowCompiler struct {
	st    *Statement
	nref  int
	ntemp int
	free  []int
	ops   []rowOp
}

// emit appends the row operations computing e and returns the register
// holding it.
func (rc *rowCompiler) emit(e *Expr) (int, bool) {
	st := rc.st
	if e.isRead() {
		if e.op == exAt && e.arg == st.dst && e.off != [2]int{} {
			return 0, false // sees cells this pass writes: cell by cell
		}
		st.reads = append(st.reads, rowRead{arg: e.arg, off: e.off, old: e.op == exOld})
		return len(st.reads) - 1, true
	}
	ts := chain(e, nil)
	acc := -1 // the partial sum of the terms emitted so far
	for len(ts) > 0 {
		op := rowOp{}
		if acc >= 0 {
			op.n, op.args[0], op.c[0] = 1, uint8(acc), 1
		}
		for ; op.n < maxTerms && len(ts) > 0; ts = ts[1:] {
			x, ok := rc.emit(ts[0].x)
			if !ok {
				return 0, false
			}
			op.args[op.n], op.c[op.n] = uint8(x), ts[0].c
			op.n++
		}
		var ok bool
		if acc, ok = rc.op(op); !ok {
			return 0, false
		}
	}
	return acc, true
}

// op appends o with its destination allocated: an operand temporary when
// it has one (operations go cell by cell, so the result may overwrite an
// operand), freeing the others, or a fresh one.
func (rc *rowCompiler) op(o rowOp) (int, bool) {
	d := -1
	for _, a := range o.args[:o.n] {
		switch {
		case int(a) < rc.nref:
		case d < 0:
			d = int(a)
		case int(a) != d:
			rc.free = append(rc.free, int(a))
		}
	}
	switch {
	case d >= 0:
	case len(rc.free) > 0:
		d = rc.free[len(rc.free)-1]
		rc.free = rc.free[:len(rc.free)-1]
	default:
		d = rc.nref + rc.ntemp
		rc.ntemp++
	}
	if d >= maxRegs {
		return 0, false
	}
	o.dst = uint8(d)
	rc.ops = append(rc.ops, o)
	return d, true
}

// Stencil is a stencil statement bound to the calling processor's arrays
// as the body of a two-dimensional doall header. Run it every pass, in the
// same program order on every processor, like the plan.
//
// On the row path a Stencil is a class part and a binding: the compiled
// loop — the statement, the loop options by parameter, the owned index box
// and the row program placed on the block — is a stencilClass every
// processor of one position class shares (machine.Intern), and the
// processor keeps only its context and its arrays. The per-cell path keeps
// the plan it was bound from.
type Stencil struct {
	cls  *stencilClass
	c    *Ctx
	arrs []*darray.Array // Param(k) is arrs[k]
	cell *cellPath       // nil on the row path
}

// cellPath is the per-cell path: the plan's loop, with the statement
// interpreted over the arrays as its body.
type cellPath struct {
	pl   *Plan2
	body func(cc *Ctx, i, j int)
}

// stencilClass is the compiled loop of a statement on the processors of
// one position class. On the row path it places the statement on a
// processor's owned block in local terms: count[0] rows of count[1] cells,
// and per register of the statement's reads and destination, where in its
// array's storage (or snapshot, for Old) the first row starts and how far
// apart rows are. It holds no global index and no array, so every
// processor whose blocks, windows and clipped index box have the same
// shape shares it; it is keyed by exactly what it holds (see bind) and
// interned per machine. The per-cell path's is the processor's own, with
// no row program.
type stencilClass struct {
	st *Statement
	// live has bit k set when Param(k)'s Old reads the array's live data,
	// which no cell the pass writes can change before it is read (see
	// liveness).
	live uint64

	opts  []stencilOpt // the loop options by parameter (row path)
	count [2]int
	refs  []rowRef
}

// stencilOpt is a loop option of the row path by parameter: Reads or
// ReadsNoHalo of Param(arg).
type stencilOpt struct {
	arg      int
	exchange bool
	live     bool // no snapshot
	dims     []int
}

// rowRef places one register: row c of the box starts at element
// pre + c*stride.
type rowRef struct {
	pre, stride int
}

// loopBuilds counts the compiled loops built (interned or a processor's
// own), for the census tests.
var loopBuilds atomic.Int64

// Stencil binds st to arrays — st's Param(k) is arrays[k] — as the body of
// the loop pl heads. Its Run replaces pl.Run(body); see the file comment.
// Where the statement's Old reads can read the live data (see liveness),
// the loop's Reads of those arrays exchange their halos but take no
// snapshot.
func (pl *Plan2) Stencil(st *Statement, arrays ...*darray.Array) *Stencil {
	if len(arrays) < st.nargs {
		panic(fmt.Sprintf("kf: stencil statement over %d arrays bound to %d", st.nargs, len(arrays)))
	}
	s := &Stencil{c: pl.c, arrs: append([]*darray.Array(nil), arrays...)}
	live, snap := s.liveness(st, pl.opts)
	if pl.fast() {
		s.cls = s.bind(st, pl, live, snap)
	}
	if s.cls == nil {
		loopBuilds.Add(1)
		s.cls = &stencilClass{st: st, live: live}
		cp := *pl
		cp.opts = make([]LoopOpt, len(pl.opts))
		for i, o := range pl.opts {
			cp.opts[i] = o
			if r, ok := o.(*reads); ok && i < 64 && snap&(1<<i) == 0 {
				cp.opts[i] = &reads{a: r.a, exchange: r.exchange, live: true, dims: r.dims}
			}
		}
		s.cell = &cellPath{pl: &cp, body: s.cellBody}
	}
	return s
}

// liveness returns which parameters' Old reads read live data, and which of
// the plan's options still take their snapshot (bit i for opts[i]; an
// option past the 64th always does). A parameter reads live when a loop
// option would have snapshotted that very view (so where the closure's Old
// would have read the snapshot, the statement reads the same values) and
// its array shares no storage with the destination, so nothing the pass
// writes can reach what it reads. An option drops its snapshot when no
// parameter that still reads a snapshot shares its array's storage.
func (s *Stencil) liveness(st *Statement, opts []LoopOpt) (live, snap uint64) {
	dst := s.arrs[st.dst]
	var old uint64
	st.rhs.visit(func(r *Expr) {
		if r.op == exOld && r.arg < 64 {
			old |= 1 << r.arg
		}
	})
	for k, a := range s.arrs {
		if k >= 64 || a.SharesStorage(dst) {
			continue
		}
		for _, o := range opts {
			if r, ok := o.(*reads); ok && r.a == a {
				live |= 1 << k
			}
		}
	}
	for i, o := range opts {
		r, ok := o.(*reads)
		if !ok || i >= 64 {
			continue
		}
		for k, a := range s.arrs {
			if (k >= 64 || old&^live&(1<<k) != 0) && r.a.SharesStorage(a) {
				snap |= 1 << i
			}
		}
	}
	return live, snap
}

// bind places the row program on this processor's strip-mined loop and
// returns the machine's compiled loop with that content, or nil, leaving
// the statement to the per-cell path, when the box check cannot prove
// every access inside its window, an option names an array the statement
// is not bound to, or there is nothing to run. The key is computed before
// the lookup, from every value the class holds, so only the first
// processor of a class builds it; the builder places the registers again
// rather than keeping them on this frame, which stays small enough for a
// fresh goroutine's stack.
func (s *Stencil) bind(st *Statement, pl *Plan2, live, snap uint64) *stencilClass {
	if st.ops == nil || len(pl.opts) > 64 {
		return nil
	}
	var buf [128]byte
	key := binary.AppendUvarint(append(buf[:0], 'K'), st.id)
	key = binary.AppendUvarint(key, live)
	key = binary.AppendUvarint(key, uint64(len(pl.opts)))
	for i, o := range pl.opts {
		r, ok := o.(*reads)
		if !ok {
			return nil
		}
		arg := slices.Index(s.arrs, r.a)
		if arg < 0 {
			return nil
		}
		key = binary.AppendUvarint(key, uint64(arg))
		key = append(key, b2u(r.exchange), b2u(snap&(1<<i) == 0))
		key = binary.AppendUvarint(key, uint64(len(r.dims)))
		for _, d := range r.dims {
			key = binary.AppendVarint(key, int64(d))
		}
	}
	var first, step, count [2]int
	for d, r := range [2]Range{pl.ri, pl.rj} {
		step[d] = r.Step
		if step[d] == 0 {
			step[d] = 1
		}
		if step[d] < 0 || d == 1 && step[d] != 1 {
			return nil
		}
		// eachOwned's clipping: the range's indices inside the owned span.
		sp := pl.sp[d]
		first[d] = r.Lo
		end := min(sp.hi, r.Hi)
		if sp.lo > first[d] {
			first[d] += (sp.lo - first[d] + step[d] - 1) / step[d] * step[d]
		}
		if first[d] > end {
			return nil // no cells: the per-cell path runs none
		}
		count[d] = (end-first[d])/step[d] + 1
	}
	key = binary.AppendUvarint(key, uint64(count[0]))
	key = binary.AppendUvarint(key, uint64(count[1]))
	for k := 0; k <= len(st.reads); k++ {
		r, ok := s.place(st, k, first, count, step[0])
		if !ok {
			return nil
		}
		key = binary.AppendVarint(key, int64(r.pre))
		key = binary.AppendVarint(key, int64(r.stride))
	}
	return machine.Intern(s.c.P.Machine(), key, func() *stencilClass {
		loopBuilds.Add(1)
		cls := &stencilClass{st: st, live: live, count: count, refs: make([]rowRef, len(st.reads)+1)}
		for k := range cls.refs {
			cls.refs[k], _ = s.place(st, k, first, count, step[0])
		}
		for i, o := range pl.opts {
			r := o.(*reads)
			cls.opts = append(cls.opts, stencilOpt{arg: slices.Index(s.arrs, r.a), exchange: r.exchange, live: snap&(1<<i) == 0, dims: slices.Clone(r.dims)})
		}
		return cls
	})
}

// place places row register k of st bound to s's arrays — a read, or
// for the last register the destination — on the index box: count cells
// from first, rows step0 apart.
func (s *Stencil) place(st *Statement, k int, first, count [2]int, step0 int) (rowRef, bool) {
	dst := s.arrs[st.dst]
	if k == len(st.reads) {
		return placeRef(dst, first, count, step0, [2]int{}, true)
	}
	rd := st.reads[k]
	a := s.arrs[rd.arg]
	if !rd.old && rd.arg != st.dst && a.SharesStorage(dst) {
		return rowRef{}, false // another view of the destination's storage
	}
	return placeRef(a, first, count, step0, rd.off, false)
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// placeRef places one access of the row path: a's addressing, with the
// whole index box — count cells from first, rows step0 apart — shifted by
// off inside a's read window (write window for the destination) and unit
// stride along the rows.
func placeRef(a *darray.Array, first, count [2]int, step0 int, off [2]int, write bool) (rowRef, bool) {
	st, ok := a.Strided()
	if !ok || a.Dims() != 2 || st.Stride[1] != 1 {
		return rowRef{}, false
	}
	step := [2]int{step0, 1}
	for d := 0; d < 2; d++ {
		lo := first[d] + off[d]
		hi := lo + (count[d]-1)*step[d]
		wlo, whi := st.ReadLo[d], st.ReadHi[d]
		if write {
			wlo, whi = st.WriteLo[d], st.WriteHi[d]
		}
		if lo < wlo || hi > whi {
			return rowRef{}, false
		}
	}
	pre := st.Origin + (first[0]+off[0])*st.Stride[0] + first[1] + off[1]
	return rowRef{pre: pre, stride: step0 * st.Stride[0]}, true
}

// Run executes one pass of the statement: the loop options, then every
// owned cell, then the options' finish — the plan's Run with the statement
// as its body. It is Step driven to the end, waiting wherever a receive
// would block.
func (s *Stencil) Run() {
	var k Cursor
	for !s.Step(&k) {
		s.c.P.Wait()
	}
}

// Step advances one pass of the statement from k, the way a step does (see
// Steps): the loop options — a snapshot each, and a halo exchange for
// Reads — then, once they are prepared, every owned cell and the options'
// finish, which need no message. False while an exchange's receive would
// block; the next call with the same k resumes it.
func (s *Stencil) Step(k *Cursor) bool {
	if cp := s.cell; cp != nil {
		return cp.pl.Step(k, cp.body)
	}
	cls, c := s.cls, s.c
	for ; k.opt < len(cls.opts); k.opt++ {
		o := &cls.opts[k.opt]
		r := reads{a: s.arrs[o.arg], exchange: o.exchange, live: o.live, dims: o.dims}
		ph, done := r.step(c, k.ph)
		if !done {
			k.ph = ph
			return false
		}
		k.ph = phase{}
	}
	c.seq++ // the loop's phase ordinal, which the row path binds to no iteration
	s.sweep()
	c.P.ComputeEach(cls.st.flops, cls.count[0]*cls.count[1])
	for i := range cls.opts {
		o := &cls.opts[i]
		r := reads{a: s.arrs[o.arg], live: o.live}
		r.finish(c)
	}
	return true
}

// cellBody is the statement at one iteration, as the closure body writes
// it.
func (s *Stencil) cellBody(cc *Ctx, i, j int) {
	st := s.cls.st
	s.arrs[st.dst].Set2(i, j, st.rhs.eval(s.arrs, s.cls.live, i, j))
	cc.P.Compute(st.flops)
}

// arg returns the array behind row register k: a read's array, or for the
// last register the destination.
func (s *Stencil) arg(k int) *darray.Array {
	if st := s.cls.st; k < len(st.reads) {
		return s.arrs[st.reads[k].arg]
	}
	return s.arrs[s.cls.st.dst]
}

// sweep runs the row operations over every owned row, in the loop's order.
// The registers live on this frame and the temporaries in one pooled
// buffer, so a statement keeps no per-pass state between passes.
func (s *Stencil) sweep() {
	cls := s.cls
	st := cls.st
	var bufs [maxRegs][]float64
	var offs [maxRegs]int
	for k := range cls.refs {
		a := s.arg(k)
		data, shadow := a.Storage()
		bufs[k] = data
		if k < len(st.reads) && st.reads[k].old && cls.live&(1<<st.reads[k].arg) == 0 {
			if shadow == nil {
				a.Old2(0, 0) // panics as the cell's read would
			}
			bufs[k] = shadow
		}
	}
	if st.ntemp > 0 {
		n, p := cls.count[1], s.c.P
		tmp := p.AcquireBuf(st.ntemp * n)
		defer p.ReleaseBuf(tmp)
		for t, k := 0, len(cls.refs); t < st.ntemp; t, k = t+1, k+1 {
			bufs[k], offs[k] = tmp, t*n
		}
	}
	for c := 0; c < cls.count[0]; c++ {
		s.row(&bufs, &offs, c)
	}
}

// row evaluates the statement on the box's row c: register k is
// bufs[k][offs[k]:][:n].
func (s *Stencil) row(bufs *[maxRegs][]float64, offs *[maxRegs]int, c int) {
	cls := s.cls
	n := cls.count[1]
	for k := range cls.refs {
		r := &cls.refs[k]
		offs[k] = r.pre + c*r.stride
	}
	for k := range cls.st.ops {
		op := &cls.st.ops[k]
		d := bufs[op.dst][offs[op.dst]:][:n]
		a := bufs[op.args[0]][offs[op.args[0]]:][:n]
		c0, c1, c2, c3 := op.c[0], op.c[1], op.c[2], op.c[3]
		switch op.n {
		case 1:
			for x := range d {
				d[x] = c0 * a[x]
			}
		case 2:
			b := bufs[op.args[1]][offs[op.args[1]]:][:n]
			for x := range d {
				d[x] = float64(c0*a[x]) + float64(c1*b[x])
			}
		case 3:
			b := bufs[op.args[1]][offs[op.args[1]]:][:n]
			e := bufs[op.args[2]][offs[op.args[2]]:][:n]
			for x := range d {
				d[x] = float64(c0*a[x]) + float64(c1*b[x]) + float64(c2*e[x])
			}
		default:
			b := bufs[op.args[1]][offs[op.args[1]]:][:n]
			e := bufs[op.args[2]][offs[op.args[2]]:][:n]
			f := bufs[op.args[3]][offs[op.args[3]]:][:n]
			for x := range d {
				d[x] = float64(c0*a[x]) + float64(c1*b[x]) + float64(c2*e[x]) + float64(c3*f[x])
			}
		}
	}
}
