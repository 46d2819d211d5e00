package darray

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/sched"
)

// ghostRun is one contiguous run of ghost indices along a dimension,
// together with the grid coordinate (along that dimension's axis) of the
// processor that owns it.
type ghostRun struct {
	ownerCoord int
	lo, hi     int // global index range, inclusive
}

// ghostRuns returns the contiguous per-owner runs covering the global index
// range [lo, hi] of store dim sd (clipped to the extent). For Contiguous
// distributions the runs are derived from the owners' block bounds in
// O(owners) instead of probing Owner per index. The runs are appended to
// runs[:0], a caller's scratch.
func (a *Array) ghostRuns(sd, lo, hi int, runs []ghostRun) []ghostRun {
	st := a.st
	n := a.extents[sd]
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	runs = runs[:0]
	P := st.rootGrid().Extent(a.axisOf[sd])
	if b, ok := a.dists[sd].(dist.Contiguous); ok {
		q := 0
		if lo <= hi {
			q = a.dists[sd].Owner(lo, n, P)
		}
		for i := lo; i <= hi; {
			for b.Upper(q, n, P) < i {
				q++ // skip owners with empty blocks
			}
			end := b.Upper(q, n, P)
			if end > hi {
				end = hi
			}
			runs = append(runs, ghostRun{ownerCoord: q, lo: i, hi: end})
			i = end + 1
			q++
		}
	} else {
		for i := lo; i <= hi; {
			q := a.dists[sd].Owner(i, n, P)
			j := i
			for j+1 <= hi && a.dists[sd].Owner(j+1, n, P) == q {
				j++
			}
			runs = append(runs, ghostRun{ownerCoord: q, lo: i, hi: j})
			i = j + 1
		}
	}
	return runs
}

// rankAlongAxis returns the machine rank of the processor at the calling
// processor's root coordinate with the coordinate along root axis ax
// replaced by q.
func (st *store) rankAlongAxis(ax, q int) int { return st.p.Rank() + st.offsetAlongAxis(ax, q) }

// offsetAlongAxis is rankAlongAxis as an offset from the calling
// processor's rank: what a compiled schedule names a peer by.
func (st *store) offsetAlongAxis(ax, q int) int {
	return (q - st.coord(ax)) * st.rootGrid().Stride(ax)
}

// eachPlaneRun calls visit with the storage offset and length of every
// innermost run of the hyperplane at halo-relative local position l of
// store dim sd — fixed dims pinned, free dims over owned cells — in
// row-major order, and not at all when some dimension is empty. The
// innermost store dimension is stride-1, so a run is one copy: the
// packed-buffer staging a message-passing compiler would generate, rather
// than a call per cell.
func (a *Array) eachPlaneRun(sd, l int, visit func(off, n int)) {
	st := a.st
	nd := len(a.extents)
	var buf [3 * maxInlineDims]int
	scratch := buf[:]
	if 3*nd > len(scratch) {
		scratch = make([]int, 3*nd)
	}
	lo, hi, idx := scratch[:nd], scratch[nd:2*nd], scratch[2*nd:3*nd]
	base := 0
	for d := range a.extents {
		switch {
		case d == sd:
			lo[d], hi[d] = l, l
		case a.pfix[d] >= 0:
			lo[d] = st.localPos(d, a.pfix[d])
			hi[d] = lo[d]
		default:
			lo[d] = a.halo[d]
			hi[d] = a.halo[d] + a.lsize[d] - 1
		}
		if hi[d] < lo[d] {
			return
		}
		idx[d] = lo[d]
		base += lo[d] * a.stride[d]
	}
	runLen := hi[nd-1] - lo[nd-1] + 1 // stride[nd-1] == 1
	for {
		visit(base, runLen)
		d := nd - 2
		for d >= 0 {
			idx[d]++
			base += a.stride[d]
			if idx[d] <= hi[d] {
				break
			}
			base -= (idx[d] - lo[d]) * a.stride[d]
			idx[d] = lo[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

// packPlane copies the cells of the hyperplane at halo-relative position l
// of store dim sd into dst in row-major order, returning the number of
// values written.
func (a *Array) packPlane(sd, l int, dst []float64) int {
	data, k := a.st.data, 0
	a.eachPlaneRun(sd, l, func(off, n int) {
		k += copy(dst[k:k+n], data[off:off+n])
	})
	return k
}

// unpackPlane is the inverse of packPlane: it scatters src into the
// hyperplane's cells, returning the number of values consumed.
func (a *Array) unpackPlane(sd, l int, src []float64) int {
	data, k := a.st.data, 0
	a.eachPlaneRun(sd, l, func(off, n int) {
		k += copy(data[off:off+n], src[k:k+n])
	})
	return k
}

// localPos returns the halo-relative local position of global index g in
// store dim d on the calling processor (which must hold it).
func (st *store) localPos(d, g int) int {
	lay := st.root.layout
	if lay.axisOf[d] < 0 {
		return g + lay.halo[d]
	}
	q := st.coord(lay.axisOf[d])
	P := st.rootGrid().Extent(lay.axisOf[d])
	if b, ok := lay.dists[d].(dist.Contiguous); ok {
		return g - b.Lower(q, lay.extents[d], P) + lay.halo[d]
	}
	return lay.dists[d].ToLocal(g, lay.extents[d], P) + lay.halo[d]
}

// planeSize returns the number of cells in one hyperplane of the section
// perpendicular to store dim sd (owned cells of free dims, single cells of
// fixed dims).
func (a *Array) planeSize(sd int) int {
	n := 1
	for d := range a.extents {
		if d == sd || a.pfix[d] >= 0 {
			continue
		}
		n *= a.lsize[d]
	}
	return n
}

// ExchangeHalo updates the ghost cells of the given free dimensions (all
// block-distributed dimensions with nonzero halo when none are specified)
// by exchanging boundary hyperplanes with the owning processors. Every
// participant of the array (or section) must call it with the same scope;
// non-participants must not call it.
//
// Corner ghost cells (diagonal neighbors) are not exchanged; the tensor
// product algorithms in this repository use axis-aligned stencils only.
//
// A steady-state exchange allocates nothing and derives nothing: the first
// exchange of a view compiles the complete pack/unpack layout into a cached
// schedule (the inspector), and every call replays it (the executor) —
// hyperplanes are packed into pooled message buffers with contiguous copies
// and unpacked the same way on the receiver, which releases the buffers
// back to its pool.
func (a *Array) ExchangeHalo(sc machine.Scope, dims ...int) {
	var cur sched.Cursor
	for !a.ExchangeHaloStep(sc, &cur, dims...) {
		a.st.p.Wait()
	}
}

// ExchangeHaloStep is ExchangeHalo without parking: the compiled schedule's
// Step from cur, false while a receive would block (call again with the
// same arguments). The direct derivation has no step form: on a SetDirect
// machine it exchanges in one call, parking where it waits, so only a rank
// that may park can call it there.
func (a *Array) ExchangeHaloStep(sc machine.Scope, cur *sched.Cursor, dims ...int) bool {
	a.mustParticipate()
	if a.st.p.Direct() {
		a.exchangeHaloDirect(sc, dims...)
		return true
	}
	return a.haloSchedule(dims).Step(a.st.p, sc, a.st.data, a.st.data, cur)
}

// exchangeHaloDirect is the uncompiled reference path: it re-derives owner
// windows and hyperplane runs on every call. The compiled schedule must
// replay bit-identical traffic; the equivalence suite holds it to that.
func (a *Array) exchangeHaloDirect(sc machine.Scope, dims ...int) {
	// Post every dimension's sends before any receive, so one round of
	// latency covers the whole exchange — the batching a compiler would
	// generate (and what the hand message-passing baselines do).
	if len(dims) == 0 {
		for k := range a.acc {
			sd := int(a.acc[k].sd)
			if a.halo[sd] > 0 && a.axisOf[sd] >= 0 {
				a.sendHalo(sc, sd)
			}
		}
		for k := range a.acc {
			sd := int(a.acc[k].sd)
			if a.halo[sd] > 0 && a.axisOf[sd] >= 0 {
				a.recvHalo(sc, sd)
			}
		}
		return
	}
	for _, d := range dims {
		sd := a.storeDim(d)
		if a.halo[sd] == 0 {
			panic(fmt.Sprintf("darray: ExchangeHalo on dim %d with zero halo", d))
		}
		a.sendHalo(sc, sd)
	}
	for _, d := range dims {
		a.recvHalo(sc, a.storeDim(d))
	}
}

// sendHalo posts the outgoing boundary hyperplanes along store dim sd: for
// every other processor along the axis, the ghost indices it needs that
// fall in this processor's owned range, packed into one pooled buffer per
// (peer, side).
func (a *Array) sendHalo(sc machine.Scope, sd int) {
	st := a.st
	ax := a.axisOf[sd]
	n := a.extents[sd]
	P := st.rootGrid().Extent(ax)
	q := st.coord(ax)
	h := a.halo[sd]
	myLo, myHi := st.lower(sd), st.lower(sd)+a.lsize[sd]-1
	plane := a.planeSize(sd)
	if plane == 0 || a.lsize[sd] == 0 {
		return // an empty dimension: peers mirror this skip
	}
	b := a.dists[sd].(dist.Contiguous)
	for qq := 0; qq < P; qq++ {
		if qq == q {
			continue
		}
		// Processors with empty blocks (deep multigrid coarse levels)
		// still receive ghosts: their degenerate windows
		// [lo'-h, lo'-1] and [lo', lo'+h-1] are exactly the
		// surrounding values interpolation needs.
		qlo, qhi := b.Lower(qq, n, P), b.Upper(qq, n, P)
		// Low-side window of qq.
		if lo, hi := maxI(qlo-h, myLo), minI(qlo-1, myHi); lo <= hi {
			a.sendRun(sc, sd, uint16(sd<<2|0), ax, qq, lo, hi, plane)
		}
		// High-side window of qq.
		if lo, hi := maxI(qhi+1, myLo), minI(qhi+h, myHi); lo <= hi {
			a.sendRun(sc, sd, uint16(sd<<2|1), ax, qq, lo, hi, plane)
		}
	}
}

// sendRun packs the hyperplanes of global indices [lo, hi] of store dim sd
// into a pooled buffer and sends it to the processor at coordinate qq.
func (a *Array) sendRun(sc machine.Scope, sd int, part uint16, ax, qq, lo, hi, plane int) {
	st := a.st
	buf := st.p.AcquireBuf((hi - lo + 1) * plane)
	k := 0
	for g := lo; g <= hi; g++ {
		k += a.packPlane(sd, g-st.lower(sd)+a.halo[sd], buf[k:])
	}
	st.p.SendOwned(st.rankAlongAxis(ax, qq), sc.Tag(part), buf)
}

// recvHalo completes the exchange along store dim sd: receive this
// processor's ghost windows, grouped by owner, and release each message
// buffer back to the pool after unpacking.
func (a *Array) recvHalo(sc machine.Scope, sd int) {
	st := a.st
	ax := a.axisOf[sd]
	h := a.halo[sd]
	// For an empty block (lower == upper+1 == L) the two windows
	// degenerate to [L-h, L-1] and [L, L+h-1]: the values surrounding the
	// block's position, which grid-transfer operators on deep multigrid
	// levels still need.
	myLo, myHi := st.lower(sd), st.lower(sd)+a.lsize[sd]-1
	plane := a.planeSize(sd)
	if plane == 0 {
		return // some other dimension is empty here: no cells at all
	}
	a.recvSide(sc, sd, ax, 0, myLo-h, myLo-1, plane, h)
	a.recvSide(sc, sd, ax, 1, myHi+1, myHi+h, plane, h)
}

func (a *Array) recvSide(sc machine.Scope, sd, ax, side, lo, hi, plane, h int) {
	st := a.st
	var runs [4]ghostRun
	for _, run := range a.ghostRuns(sd, lo, hi, runs[:0]) {
		src := st.rankAlongAxis(ax, run.ownerCoord)
		buf := st.p.Recv(src, sc.Tag(uint16(sd<<2|side)))
		want := (run.hi - run.lo + 1) * plane
		if len(buf) != want {
			panic(fmt.Sprintf("darray: halo exchange dim %d: got %d values, want %d", sd, len(buf), want))
		}
		k := 0
		for g := run.lo; g <= run.hi; g++ {
			k += a.unpackPlane(sd, g-st.lower(sd)+h, buf[k:])
		}
		st.p.ReleaseBuf(buf)
	}
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
