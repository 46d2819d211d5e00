package darray

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/topology"
)

// ownedWalk visits every owned element of the view in row-major global
// order, passing the global index of the free dimensions (a reused slice)
// and the element's position in the flat local storage. It is the engine
// under OwnedEach, Fill, FillOwned, OwnedRuns, CopyOwned1 and SetOwned1:
// indices and offsets advance incrementally from the cached per-dimension
// access data, so one visit costs O(1) and a steady-state walk allocates
// nothing.
func (a *Array) ownedWalk(visit func(idx []int, off int)) {
	acc := a.acc // the class part: held in a local across the visits
	nfree := len(acc)
	if nfree == 0 {
		visit(nil, a.fixedOff) // fully fixed section: a single owned cell
		return
	}
	lsize := a.lsize
	for k := range acc {
		if lsize[acc[k].sd] == 0 {
			return // empty local block: nothing owned
		}
	}
	idx, mine := a.walkIdx(nfree)
	if mine {
		defer a.walkDone()
	}
	var locBuf [maxInlineDims]int
	loc := locBuf[:]
	if nfree > maxInlineDims {
		loc = make([]int, nfree)
	}
	off := a.fixedOff
	for k := range acc {
		ax := &acc[k]
		loc[k] = 0
		idx[k] = a.globalOf(k, 0)
		off += a.halo[ax.sd] * ax.stride
	}
	for {
		visit(idx, off)
		k := nfree - 1
		for k >= 0 {
			ax := &acc[k]
			loc[k]++
			off += ax.stride
			if loc[k] < lsize[ax.sd] {
				if ax.kind == axGeneral {
					idx[k] = a.globalOf(k, loc[k])
				} else {
					idx[k]++
				}
				break
			}
			off -= lsize[ax.sd] * ax.stride
			loc[k] = 0
			idx[k] = a.globalOf(k, 0)
			k--
		}
		if k < 0 {
			return
		}
	}
}

// walkIdx returns an owned walk's index scratch for nfree free dimensions
// and whether it is the store's, which walkDone then releases: a visitor
// that starts another walk over a view of the same array, or a view of
// more than maxInlineDims free dimensions, gets a fresh slice.
func (a *Array) walkIdx(nfree int) ([]int, bool) {
	st := a.st
	if nfree > maxInlineDims || st.root.walking {
		return make([]int, nfree), false
	}
	st.root.walking = true
	return st.walk[:nfree], true
}

// walkDone releases the store's walk scratch.
func (a *Array) walkDone() { a.st.root.walking = false }

// OwnedEach visits every element of the array (or section) owned by the
// calling processor, in row-major global order, passing the global index of
// the free dimensions. The index slice is reused between calls.
func (a *Array) OwnedEach(visit func(idx []int)) {
	a.mustParticipate()
	a.ownedWalk(func(idx []int, off int) { visit(idx) })
}

// OwnedRuns visits the calling processor's owned elements as contiguous
// storage runs, in row-major global order: vals is the backing storage of
// one run, whose first element has global index idx (of the free
// dimensions; the slice is reused between visits), and vals[k] is the
// element with global index idx[last]+k along the last free dimension.
// Writes through vals update the array directly, so initialization from a
// dense source is one copy per run instead of one variadic Set per element.
// Runs span the last free dimension when it is stride-1 in storage and
// contiguously owned; otherwise (a section fixing the innermost storage
// dimension, or a cyclic innermost dimension) runs degenerate to single
// elements.
func (a *Array) OwnedRuns(visit func(idx []int, vals []float64)) {
	a.mustParticipate()
	st, acc := a.st, a.acc
	nfree := len(acc)
	if nfree == 0 {
		visit(nil, st.data[a.fixedOff:a.fixedOff+1:a.fixedOff+1])
		return
	}
	inner := &acc[nfree-1]
	if inner.stride != 1 || inner.kind == axGeneral {
		a.ownedWalk(func(idx []int, off int) { visit(idx, st.data[off:off+1:off+1]) })
		return
	}
	lsize := a.lsize
	for k := range acc {
		if lsize[acc[k].sd] == 0 {
			return
		}
	}
	idx, mine := a.walkIdx(nfree)
	if mine {
		defer a.walkDone()
	}
	var locBuf [maxInlineDims]int
	loc := locBuf[:]
	if nfree > maxInlineDims {
		loc = make([]int, nfree)
	}
	off := a.fixedOff
	for k := range acc {
		ax := &acc[k]
		loc[k] = 0
		idx[k] = a.globalOf(k, 0)
		off += a.halo[ax.sd] * ax.stride
	}
	n := lsize[inner.sd]
	for {
		visit(idx, st.data[off:off+n:off+n])
		k := nfree - 2
		for k >= 0 {
			ax := &acc[k]
			loc[k]++
			off += ax.stride
			if loc[k] < lsize[ax.sd] {
				if ax.kind == axGeneral {
					idx[k] = a.globalOf(k, loc[k])
				} else {
					idx[k]++
				}
				break
			}
			off -= lsize[ax.sd] * ax.stride
			loc[k] = 0
			idx[k] = a.globalOf(k, 0)
			k--
		}
		if k < 0 {
			return
		}
	}
}

// Fill sets every owned element to f(idx). No communication is performed;
// for replicated (Star) dimensions every holder computes its own copy, so f
// must be deterministic in idx. Fill is FillOwned under its original name.
func (a *Array) Fill(f func(idx []int) float64) { a.FillOwned(f) }

// FillOwned sets every owned element to f(idx) with direct run-based
// storage writes: the walk advances indices and offsets incrementally, so
// initialization costs O(1) per element instead of a variadic Set (with its
// per-element ownership scan and offset derivation) per element.
func (a *Array) FillOwned(f func(idx []int) float64) {
	a.mustParticipate()
	data := a.st.data
	a.ownedWalk(func(idx []int, off int) { data[off] = f(idx) })
}

// Zero sets every owned element (and the halo cells) to zero.
func (a *Array) Zero() {
	a.mustParticipate()
	if a.isRoot() {
		for i := range a.st.data {
			a.st.data[i] = 0
		}
		return
	}
	a.OwnedEach(func(idx []int) { a.Set(0, idx...) })
}

func (a *Array) isRoot() bool {
	for _, f := range a.pfix {
		if f >= 0 {
			return false
		}
	}
	return true
}

// Snapshot copies the processor's local block (including halo cells) into a
// shadow buffer readable through Old. It implements the copy-in half of the
// doall loop's copy-in/copy-out semantics: reads during the loop see the
// values from before the loop. Snapshots are local and cost no messages.
//
// Snapshot affects the whole underlying array, so a snapshot taken through a
// section is visible through the parent and vice versa. The array's first
// snapshot moves its local block next to the snapshot buffer: storage
// obtained before it (OwnedRuns' runs, Storage) no longer aliases the array.
func (a *Array) Snapshot() {
	a.mustParticipate()
	st := a.st
	if n := len(st.data); cap(st.data) != 2*n {
		// The first snapshot moves the block into an allocation with room
		// for the snapshot behind it.
		buf := make([]float64, 2*n)
		copy(buf, st.data)
		st.data = buf[:n]
	}
	copy(st.old(), st.data)
	st.root.snapOn = true
}

// Old returns the snapshotted value at the given global index; it panics if
// no snapshot is active.
func (a *Array) Old(idx ...int) float64 {
	a.mustParticipate()
	if !a.st.root.snapOn {
		panic("darray: Old without an active Snapshot")
	}
	return a.st.old()[a.offset(idx)]
}

// Old1, Old2, Old3 are the arity-specific forms of Old: At1/At2/At3 reading
// the snapshot.
func (a *Array) Old1(i int) float64 {
	if vc, st := a.viewClass, a.st; len(vc.acc) == 1 && st.root.snapOn {
		x := &vc.acc[0]
		if l := i - a.lo[0]; uint(l-x.rlo) < uint(x.rspan) {
			return st.old()[vc.fixedOff+(l+x.base)*x.stride]
		}
		return st.old()[vc.fixedOff+a.roff(0, i)]
	}
	return a.Old(i)
}

func (a *Array) Old2(i, j int) float64 {
	if vc, st := a.viewClass, a.st; len(vc.acc) == 2 && st.root.snapOn {
		x, y, lo := &vc.acc[0], &vc.acc[1], &a.lo
		li, lj := i-lo[0], j-lo[1]
		if uint(li-x.rlo) < uint(x.rspan) && uint(lj-y.rlo) < uint(y.rspan) {
			return st.old()[vc.fixedOff+(li+x.base)*x.stride+(lj+y.base)*y.stride]
		}
		return st.old()[vc.fixedOff+a.roff(0, i)+a.roff(1, j)]
	}
	return a.Old(i, j)
}

func (a *Array) Old3(i, j, k int) float64 {
	if vc, st := a.viewClass, a.st; len(vc.acc) == 3 && st.root.snapOn {
		x, y, z, lo := &vc.acc[0], &vc.acc[1], &vc.acc[2], &a.lo
		li, lj, lk := i-lo[0], j-lo[1], k-lo[2]
		if uint(li-x.rlo) < uint(x.rspan) && uint(lj-y.rlo) < uint(y.rspan) && uint(lk-z.rlo) < uint(z.rspan) {
			return st.old()[vc.fixedOff+(li+x.base)*x.stride+(lj+y.base)*y.stride+(lk+z.base)*z.stride]
		}
		return st.old()[vc.fixedOff+a.roff(0, i)+a.roff(1, j)+a.roff(2, k)]
	}
	return a.Old(i, j, k)
}

// OwnedSpan returns the inclusive global index range of free dimension d
// owned by the calling processor, and reports whether ownership of that
// dimension forms a single contiguous range (true for Star and Contiguous
// distributions, false for Cyclic). Non-participants and empty local
// blocks get an empty span (lo > hi). It is the query the strip-mined
// doall loops use to iterate owned indices directly instead of scanning
// the whole range with ownership tests.
func (a *Array) OwnedSpan(d int) (lo, hi int, contiguous bool) {
	if !a.participates {
		return 0, -1, true
	}
	st := a.st
	sd := a.storeDim(d)
	if a.axisOf[sd] < 0 {
		return 0, a.extents[sd] - 1, true
	}
	if _, ok := a.dists[sd].(dist.Contiguous); !ok {
		return 0, -1, false
	}
	return st.lower(sd), st.lower(sd) + a.lsize[sd] - 1, true
}

// ReleaseSnapshot deactivates the snapshot. The shadow buffer is kept for
// the next Snapshot, so iterative loops snapshot without reallocating.
func (a *Array) ReleaseSnapshot() { a.st.root.snapOn = false }

// CopyOwned1 copies the calling processor's owned elements of a
// one-dimensional array (or section) into dst, in ascending global order,
// and returns the number of elements copied. It is how kernel routines
// obtain a contiguous working vector from a possibly strided section.
func (a *Array) CopyOwned1(dst []float64) int {
	if a.Dims() != 1 {
		panic("darray: CopyOwned1 requires a 1-D array or section")
	}
	n, owned := 0, 0
	a.OwnedRuns(func(idx []int, vals []float64) {
		owned += len(vals)
		n += copy(dst[n:], vals)
	})
	if n != owned {
		panic(fmt.Sprintf("darray: CopyOwned1 dst holds %d of %d owned elements", len(dst), owned))
	}
	return n
}

// SetOwned1 stores src into the calling processor's owned elements of a
// one-dimensional array (or section), in ascending global order.
func (a *Array) SetOwned1(src []float64) {
	if a.Dims() != 1 {
		panic("darray: SetOwned1 requires a 1-D array or section")
	}
	n, owned := 0, 0
	a.OwnedRuns(func(idx []int, vals []float64) {
		owned += len(vals)
		n += copy(vals, src[n:])
	})
	if n != len(src) || n != owned {
		panic(fmt.Sprintf("darray: SetOwned1 wrote %d of %d values over %d owned elements", n, len(src), owned))
	}
}

// IndexRuns1 compiles a list of owned global indices of a one-dimensional
// array (or section) into contiguous storage runs, merging adjacent
// offsets: a sorted index list over a contiguously owned stride-1
// dimension collapses into O(gaps) runs, while strided layouts (a cyclic
// dimension, a section with a fixed innermost dimension) degenerate to
// per-index runs. It is the inspector half behind run-coalesced irregular
// serves: compile once, then PackRuns per pass. Every index must be owned
// by the calling processor.
func (a *Array) IndexRuns1(indices []int) []sched.Run {
	a.mustParticipate()
	if a.Dims() != 1 {
		panic("darray: IndexRuns1 requires a 1-D array or section")
	}
	if len(indices) == 0 {
		return nil
	}
	runs := make([]sched.Run, 0, 8)
	for _, i := range indices {
		runs = appendRun(runs, a.fixedOff+a.woff(0, i))
	}
	return runs
}

// PackRuns copies the values of the given storage runs into dst in run
// order — the executor half of a compiled irregular serve — and returns
// the number of values copied. dst must hold them all.
func (a *Array) PackRuns(runs []sched.Run, dst []float64) int {
	a.mustParticipate()
	data := a.st.data
	k := 0
	for _, r := range runs {
		k += copy(dst[k:], data[r.Off:r.Off+r.Len])
	}
	return k
}

// GatherTo assembles the full array (or section) on the processor at
// row-major index rootIdx of the array's grid, returning a dense row-major
// slice of the free dimensions there and nil on all other processors. Every
// participant must call it with the same scope. Replicated (Star)
// dimensions are taken from each holder; holders must agree.
//
// The pack and unpack layouts are compiled once per (view, root) into a
// cached gather plan; each call replays the plan, so iterative collection
// performs no per-call derivation (the dense result on the root is the only
// steady-state allocation).
func (a *Array) GatherTo(sc machine.Scope, rootIdx int) []float64 {
	var cur GatherCursor
	for {
		if out, ok := a.GatherToStep(sc, rootIdx, &cur); ok {
			return out
		}
		a.st.p.Wait()
	}
}

// GatherCursor is a gather in progress on its root: the members unpacked so
// far and the result they are unpacked into. The zero value is a gather not
// yet begun.
type GatherCursor struct {
	next int
	out  []float64
}

// GatherToStep is GatherTo without parking: the compiled gather from cur,
// false while the root's next receive would block (call again with the
// same arguments). The direct derivation has no step form: on a SetDirect
// machine it gathers in one call, parking where it waits, so only a rank
// that may park can call it there.
func (a *Array) GatherToStep(sc machine.Scope, rootIdx int, cur *GatherCursor) ([]float64, bool) {
	a.mustParticipate()
	if a.st.p.Direct() {
		return a.gatherToDirect(sc, rootIdx), true
	}
	return a.gatherToScheduled(sc, rootIdx, cur)
}

// gatherToDirect is the uncompiled reference path: it interleaves layout
// derivation with the data motion on every call. The scheduled path must
// produce bit-identical traffic; the equivalence suite holds it to that.
func (a *Array) gatherToDirect(sc machine.Scope, rootIdx int) []float64 {
	st := a.st
	g := a.grid
	me, ok := g.Index(st.p.Rank())
	if !ok {
		panic("darray: GatherTo caller not in the array's grid")
	}
	rootRank := g.RankAt(rootIdx)

	// Pack owned values in OwnedEach order.
	var buf []float64
	a.OwnedEach(func(idx []int) {
		buf = append(buf, a.At(idx...))
	})
	if me != rootIdx {
		st.p.Send(rootRank, sc.Tag(uint16(me)), buf)
		return nil
	}

	// Root: allocate the dense result and scatter every member's pack.
	nd := a.Dims()
	ext := make([]int, nd)
	size := 1
	for d := 0; d < nd; d++ {
		ext[d] = a.Extent(d)
		size *= ext[d]
	}
	out := make([]float64, size)
	var walk []int
	for m := 0; m < g.Size(); m++ {
		var pack []float64
		if m == me {
			pack = buf
		} else {
			pack = st.p.Recv(g.RankAt(m), sc.Tag(uint16(m)))
		}
		k := 0
		walk = a.memberOwnedEach(m, walk, func(idx []int) {
			off := 0
			for d := 0; d < nd; d++ {
				off = off*ext[d] + idx[d]
			}
			out[off] = pack[k]
			k++
		})
		if k != len(pack) {
			panic(fmt.Sprintf("darray: GatherTo: member %d sent %d values, want %d", m, len(pack), k))
		}
	}
	return out
}

// memberOwnedEach visits the global indices (free dims) owned by the grid
// member with row-major index m, in the same order that member's OwnedEach
// would visit them. walk is the walk's scratch, the member's root grid
// coordinate and four ints per free dimension: a caller visiting many
// members passes back what the previous call returned (nil the first
// time), so one scratch serves them all.
func (a *Array) memberOwnedEach(m int, walk []int, visit func(idx []int)) []int {
	st := a.st
	nd := 0
	for _, f := range a.pfix {
		if f < 0 {
			nd++
		}
	}
	ng := st.rootGrid().Dims()
	// One backing array for the coordinate and the walk's four
	// per-dimension slices.
	if cap(walk) < ng+4*nd {
		walk = make([]int, ng+4*nd)
	}
	walk = walk[:ng+4*nd]
	coord := walk[:ng]
	if !st.rootGrid().CoordInto(a.grid.RankAt(m), coord) {
		panic("darray: grid member outside root grid")
	}
	if nd == 0 {
		return walk
	}
	free := walk[ng+0*nd : ng+1*nd]
	sizes := walk[ng+1*nd : ng+2*nd]
	locals := walk[ng+2*nd : ng+3*nd] // zero: a walk ends with every one rolled over
	idx := walk[ng+3*nd : ng+4*nd]
	k := 0
	for sd, f := range a.pfix {
		if f < 0 {
			free[k] = sd
			k++
		}
	}
	for k, sd := range free {
		if a.axisOf[sd] < 0 {
			sizes[k] = a.extents[sd]
		} else {
			q := coord[a.axisOf[sd]]
			P := st.rootGrid().Extent(a.axisOf[sd])
			sizes[k] = a.dists[sd].Size(q, a.extents[sd], P)
		}
		if sizes[k] == 0 {
			return walk
		}
	}
	for {
		for k, sd := range free {
			if a.axisOf[sd] < 0 {
				idx[k] = locals[k]
			} else {
				q := coord[a.axisOf[sd]]
				P := st.rootGrid().Extent(a.axisOf[sd])
				idx[k] = a.dists[sd].ToGlobal(locals[k], q, a.extents[sd], P)
			}
		}
		visit(idx)
		d := nd - 1
		for d >= 0 {
			locals[d]++
			if locals[d] < sizes[d] {
				break
			}
			locals[d] = 0
			d--
		}
		if d < 0 {
			return walk
		}
	}
}

// Redistribute copies the array's contents into a new array with the given
// grid and spec, moving every element from its current owner to its new
// owner(s) by message passing. Every processor that participates in either
// the source or the destination must call Redistribute with the same
// arguments and scope; the new array is returned on all callers.
//
// This is the mechanism behind the paper's claim C3: changing a dist clause
// is a one-line change, and the "compiler" (here, this routine) re-derives
// all communication.
//
// The move schedule is compiled once per (source layout, destination
// layout) pair and cached on the processor, so repeated ping-pong
// redistribution between two layouts (an out-of-place FFT transpose, say)
// replays the compiled data motion instead of re-deriving it per call.
func (a *Array) Redistribute(sc machine.Scope, g *topology.Grid, spec Spec) *Array {
	b := NewOn(a.st.p, g, spec)
	moveContents(sc, a, b)
	return b
}

func moveContents(sc machine.Scope, src, dst *Array) {
	if src.Dims() != dst.Dims() {
		panic("darray: redistribute dimensionality mismatch")
	}
	for d := 0; d < src.Dims(); d++ {
		if src.Extent(d) != dst.Extent(d) {
			panic(fmt.Sprintf("darray: redistribute extent mismatch in dim %d: %d vs %d", d, src.Extent(d), dst.Extent(d)))
		}
	}
	if src.st.p.Direct() {
		moveContentsDirect(sc, src, dst)
		return
	}
	s := moveScheduleFor(src, dst)
	var srcData, dstData []float64
	if src.st.root.participates {
		srcData = src.st.data
	}
	if dst.st.root.participates {
		dstData = dst.st.data
	}
	s.Execute(src.st.p, sc, srcData, dstData)
}

// moveContentsDirect is the uncompiled reference path for Redistribute.
func moveContentsDirect(sc machine.Scope, src, dst *Array) {
	p := src.st.p

	// Sender side: enumerate cells this processor canonically owns in
	// src, group by destination rank in dst's layout. Cells staying on
	// this processor move by local copy, not by message — a compiler
	// would never ship local data through the network.
	outgoing := make(map[int][]float64)
	if src.Participates() && src.isCanonicalOwner() {
		src.OwnedEach(func(idx []int) {
			v := src.At(idx...)
			for _, r := range dst.holderRanks(idx) {
				outgoing[r] = append(outgoing[r], v)
			}
		})
	}
	// Deterministic send order: ascending destination rank.
	self := p.Rank()
	for r := 0; r < p.Size(); r++ {
		if buf, ok := outgoing[r]; ok && r != self {
			p.Send(r, sc.Tag(uint16(0)), buf)
		}
	}

	// Receiver side: enumerate cells this processor holds in dst, find
	// each cell's canonical source rank, and unpack per-source buffers in
	// the sender's iteration order.
	if !dst.Participates() {
		return
	}
	type cellRef struct {
		off int
	}
	incomingOrder := make(map[int][]cellRef)
	var srcOrder []int
	dst.OwnedEach(func(idx []int) {
		r := src.canonicalRank(idx)
		if _, seen := incomingOrder[r]; !seen {
			srcOrder = append(srcOrder, r)
		}
		incomingOrder[r] = append(incomingOrder[r], cellRef{off: dst.offset(idx)})
	})
	// Receives may be completed in any order; use ascending source rank
	// for determinism of the virtual-time trace.
	sortInts(srcOrder)
	for _, r := range srcOrder {
		var buf []float64
		if r == p.Rank() {
			buf = outgoing[r] // local copy, no message
		} else {
			buf = p.Recv(r, sc.Tag(uint16(0)))
		}
		cells := incomingOrder[r]
		if len(buf) != len(cells) {
			panic(fmt.Sprintf("darray: redistribute: got %d values from rank %d, want %d", len(buf), r, len(cells)))
		}
		for i, c := range cells {
			dst.st.data[c.off] = buf[i]
		}
	}
}

// isCanonicalOwner reports whether the calling processor is the canonical
// owner of its owned cells: for arrays with at least one distributed
// dimension this is every participant; for fully replicated arrays it is
// the grid origin only.
func (a *Array) isCanonicalOwner() bool {
	for sd := range a.extents {
		if a.axisOf[sd] >= 0 {
			return true
		}
	}
	return a.grid.RankAt(0) == a.st.p.Rank()
}

// canonicalRank returns the machine rank of the canonical owner of the cell
// at global index idx (free dims).
func (a *Array) canonicalRank(idx []int) int {
	st := a.st
	coord := make([]int, st.rootGrid().Dims())
	k := 0
	for sd, f := range a.pfix {
		g := f
		if f < 0 {
			g = idx[k]
			k++
		}
		if a.axisOf[sd] >= 0 {
			coord[a.axisOf[sd]] = a.dists[sd].Owner(g, a.extents[sd], st.rootGrid().Extent(a.axisOf[sd]))
		}
	}
	return st.rootGrid().Rank(coord...)
}

// holderRanks returns the machine ranks of every processor holding the cell
// at global index idx: one rank per cell for fully distributed arrays, all
// grid members for replicated dimensions' fan-out.
func (a *Array) holderRanks(idx []int) []int {
	st := a.st
	// Determine which axes are pinned by ownership and which are free
	// (replicated): axes not used by any dim are free.
	used := make([]bool, st.rootGrid().Dims())
	coord := make([]int, st.rootGrid().Dims())
	k := 0
	for sd, f := range a.pfix {
		g := f
		if f < 0 {
			g = idx[k]
			k++
		}
		if a.axisOf[sd] >= 0 {
			used[a.axisOf[sd]] = true
			coord[a.axisOf[sd]] = a.dists[sd].Owner(g, a.extents[sd], st.rootGrid().Extent(a.axisOf[sd]))
		}
	}
	ranks := []int{}
	var expand func(ax int)
	expand = func(ax int) {
		if ax == st.rootGrid().Dims() {
			ranks = append(ranks, st.rootGrid().Rank(coord...))
			return
		}
		if used[ax] {
			expand(ax + 1)
			return
		}
		for q := 0; q < st.rootGrid().Extent(ax); q++ {
			coord[ax] = q
			expand(ax + 1)
		}
		coord[ax] = 0
	}
	expand(0)
	return ranks
}

// NewOn is New with an explicit grid; it exists so Redistribute can build
// the target array. (New already takes a grid; NewOn is an alias kept for
// call-site clarity.)
func NewOn(p *machine.Proc, g *topology.Grid, spec Spec) *Array { return New(p, g, spec) }

// ReplicatedSpec returns a Spec for a fully replicated array of the given
// extents (every dimension Star), the analogue of an undecorated KF1 array.
func ReplicatedSpec(extents ...int) Spec {
	ds := make([]dist.Dist, len(extents))
	for i := range ds {
		ds[i] = dist.Star{}
	}
	return Spec{Extents: extents, Dists: ds}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}
