package kf

import (
	"encoding/binary"
	"fmt"

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
// window per cell. Assign compiles the right-hand side once into operations
// over row registers, shared by every processor. Binding checks the owned
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
// ReadsNoHalo).
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
// closure body's arithmetic, in its order.
func (e *Expr) eval(arrs []*darray.Array, i, j int) float64 {
	switch e.op {
	case exOld:
		return arrs[e.arg].Old2(i+e.off[0], j+e.off[1])
	case exAt:
		return arrs[e.arg].At2(i+e.off[0], j+e.off[1])
	case exAdd:
		return e.a.eval(arrs, i, j) + e.b.eval(arrs, i, j)
	case exSub:
		return e.a.eval(arrs, i, j) - e.b.eval(arrs, i, j)
	}
	return float64(e.c * e.a.eval(arrs, i, j))
}

// Statement is a stencil statement, "dst(i, j) = rhs", declared once for
// every processor: its arrays are parameters, which a plan's Stencil binds
// to the calling processor's arrays. Assign compiles the row program here,
// so processors share it; a Statement is never modified afterwards.
type Statement struct {
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

// Assign declares the statement "dst = rhs".
func Assign(dst Param, rhs *Expr) *Statement {
	if dst < 0 {
		panic(fmt.Sprintf("kf: stencil statement assigns parameter %d", dst))
	}
	st := &Statement{dst: int(dst), rhs: rhs, nargs: int(dst) + 1}
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
type Stencil struct {
	pl   *Plan2
	st   *Statement
	arrs []*darray.Array // Param(k) is arrs[k]

	// rows is the row path; nil runs the per-cell path, the plan's loop
	// with body interpreting the statement over arrs.
	rows *rowProgram
	body func(cc *Ctx, i, j int)
}

// rowProgram places the row path on a processor's owned block in local
// terms: count[0] rows of count[1] cells, and per register of the
// statement's reads and destination, where in its array's storage (or
// snapshot, for Old) the first row starts and how far apart rows are. It
// holds no global index and no array, so it is the same on every
// processor whose blocks, windows and clipped index box have the same
// shape — one per position class — and the machine interns it
// (machine.Intern).
type rowProgram struct {
	count [2]int
	refs  []rowRef
}

// rowRef places one register: row c of the box starts at element
// pre + c*stride.
type rowRef struct {
	pre, stride int
}

// Stencil binds st to arrays — st's Param(k) is arrays[k] — as the body of
// the loop pl heads. Its Run replaces pl.Run(body); see the file comment.
func (pl *Plan2) Stencil(st *Statement, arrays ...*darray.Array) *Stencil {
	if len(arrays) < st.nargs {
		panic(fmt.Sprintf("kf: stencil statement over %d arrays bound to %d", st.nargs, len(arrays)))
	}
	s := &Stencil{pl: pl, st: st, arrs: append([]*darray.Array(nil), arrays...)}
	if pl.fast() {
		s.rows = s.compile()
	}
	if s.rows == nil {
		s.body = s.cell
	}
	return s
}

// Run executes one pass of the statement: the loop options, then every
// owned cell, then the options' finish — the plan's Run with the statement
// as its body. It is Step driven to the end, waiting wherever a receive
// would block.
func (s *Stencil) Run() {
	var k Cursor
	for !s.Step(&k) {
		s.pl.c.P.Wait()
	}
}

// Step advances one pass of the statement from k, the way a step does (see
// Steps): the loop options — a snapshot each, and a halo exchange for
// Reads — then, once they are prepared, every owned cell and the options'
// finish, which need no message. False while an exchange's receive would
// block; the next call with the same k resumes it.
func (s *Stencil) Step(k *Cursor) bool {
	pl := s.pl
	if !pl.prepareStep(k) {
		return false
	}
	phase := pl.claim()
	if s.rows == nil {
		pl.each(phase, s.body)
	} else {
		s.sweep()
		pl.c.P.ComputeEach(s.st.flops, s.rows.count[0]*s.rows.count[1])
	}
	pl.finish()
	return true
}

// cell is the statement at one iteration, as the closure body writes it.
func (s *Stencil) cell(cc *Ctx, i, j int) {
	st := s.st
	s.arrs[st.dst].Set2(i, j, st.rhs.eval(s.arrs, i, j))
	cc.P.Compute(st.flops)
}

// arg returns the array behind row register k: a read's array, or for the
// last register the destination.
func (s *Stencil) arg(k int) *darray.Array {
	if k < len(s.st.reads) {
		return s.arrs[s.st.reads[k].arg]
	}
	return s.arrs[s.st.dst]
}

// compile places the row program over arrs on this processor's strip-mined
// loop, the machine's interned copy. It returns nil, leaving the statement
// to the per-cell path, when the box check cannot prove every access
// inside its window, or there is nothing to run.
func (s *Stencil) compile() *rowProgram {
	st := s.st
	if st.ops == nil {
		return nil
	}
	var first, step [2]int
	rp := &rowProgram{}
	for d, r := range [2]Range{s.pl.ri, s.pl.rj} {
		step[d] = r.Step
		if step[d] == 0 {
			step[d] = 1
		}
		if step[d] < 0 || d == 1 && step[d] != 1 {
			return nil
		}
		// eachOwned's clipping: the range's indices inside the owned span.
		sp := s.pl.sp[d]
		first[d] = r.Lo
		end := min(sp.hi, r.Hi)
		if sp.lo > first[d] {
			first[d] += (sp.lo - first[d] + step[d] - 1) / step[d] * step[d]
		}
		if first[d] > end {
			return nil // no cells: the per-cell path runs none
		}
		rp.count[d] = (end-first[d])/step[d] + 1
	}
	dst := s.arrs[st.dst]
	rp.refs = make([]rowRef, len(st.reads)+1)
	for k, rd := range st.reads {
		a := s.arrs[rd.arg]
		if !rd.old && rd.arg != st.dst && a.SharesStorage(dst) {
			return nil // another view of the destination's storage
		}
		var ok bool
		if rp.refs[k], ok = rp.ref(a, first, step[0], rd.off, false); !ok {
			return nil
		}
	}
	var ok bool
	if rp.refs[len(st.reads)], ok = rp.ref(dst, first, step[0], [2]int{}, true); !ok {
		return nil
	}
	var buf [256]byte
	key := binary.AppendUvarint(append(buf[:0], 'K'), uint64(rp.count[0]))
	key = binary.AppendUvarint(key, uint64(rp.count[1]))
	for _, r := range rp.refs {
		key = binary.AppendVarint(key, int64(r.pre))
		key = binary.AppendVarint(key, int64(r.stride))
	}
	return machine.Intern(s.pl.c.P.Machine(), key, func() *rowProgram { return rp })
}

// ref places one access of the row path: a's addressing, with the whole
// index box — count cells from first, rows step0 apart — shifted by off
// inside a's read window (write window for the destination) and unit
// stride along the rows.
func (rp *rowProgram) ref(a *darray.Array, first [2]int, step0 int, off [2]int, write bool) (rowRef, bool) {
	st, ok := a.Strided()
	if !ok || a.Dims() != 2 || st.Stride[1] != 1 {
		return rowRef{}, false
	}
	step := [2]int{step0, 1}
	for d := 0; d < 2; d++ {
		lo := first[d] + off[d]
		hi := lo + (rp.count[d]-1)*step[d]
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

// sweep runs the row operations over every owned row, in the loop's order.
// The registers live on this frame and the temporaries in one pooled
// buffer, so a statement keeps no per-pass state between passes.
func (s *Stencil) sweep() {
	st, rp := s.st, s.rows
	var bufs [maxRegs][]float64
	var offs [maxRegs]int
	for k := range rp.refs {
		a := s.arg(k)
		data, shadow := a.Storage()
		bufs[k] = data
		if k < len(st.reads) && st.reads[k].old {
			if shadow == nil {
				a.Old2(0, 0) // panics as the cell's read would
			}
			bufs[k] = shadow
		}
	}
	n := rp.count[1]
	if st.ntemp > 0 {
		p := s.pl.c.P
		tmp := p.AcquireBuf(st.ntemp * n)
		defer p.ReleaseBuf(tmp)
		for t, k := 0, len(rp.refs); t < st.ntemp; t, k = t+1, k+1 {
			bufs[k], offs[k] = tmp, t*n
		}
	}
	for c := 0; c < rp.count[0]; c++ {
		s.row(&bufs, &offs, c)
	}
}

// row evaluates the statement on the box's row c: register k is
// bufs[k][offs[k]:][:n].
func (s *Stencil) row(bufs *[maxRegs][]float64, offs *[maxRegs]int, c int) {
	rp := s.rows
	n := rp.count[1]
	for k := range rp.refs {
		r := &rp.refs[k]
		offs[k] = r.pre + c*r.stride
	}
	for k := range s.st.ops {
		op := &s.st.ops[k]
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
