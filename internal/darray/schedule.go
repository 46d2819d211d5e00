package darray

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/sched"
)

// appendRun extends runs with storage offset off, merging with the last run
// when adjacent — the generic run-coalescing step every inspector uses.
func appendRun(runs []sched.Run, off int) []sched.Run {
	if k := len(runs); k > 0 {
		if last := &runs[k-1]; last.Off+last.Len == off {
			last.Len++
			return runs
		}
	}
	return append(runs, sched.Run{Off: off, Len: 1})
}

// --- Halo exchange -------------------------------------------------------

// haloSchedule returns the compiled halo-exchange schedule for the given
// free dimensions (all haloed dimensions when empty), compiling it on first
// use and keeping it on the view. The schedule depends only on the view's
// immutable layout (extents, distributions, halo widths, grid, fixed
// indices), so a kept schedule is never invalidated; arrays with new
// layouts are new views. It is the machine's interned copy: every rank
// whose exchange has the same runs, parts and relative peers holds the
// same one.
func (a *Array) haloSchedule(dims []int) *sched.Schedule {
	key := -1
	if len(dims) > 0 {
		key = 0
		for _, d := range dims {
			key = key*(maxInlineDims*4) + a.storeDim(d) + 1
		}
	}
	for i := range a.plans {
		if pl := &a.plans[i]; pl.halo != nil && pl.key == key {
			return pl.halo
		}
	}
	s := a.compileHalo(dims).Intern(a.st.p.Machine())
	a.plans = append(a.plans, viewPlan{key: key, halo: s})
	return s
}

// compileHalo is the halo-exchange inspector: it walks the same owner
// windows and hyperplanes as the direct path (sendHalo/recvHalo) and
// records, instead of performing, every pack and unpack.
func (a *Array) compileHalo(dims []int) *sched.Schedule {
	s := &sched.Schedule{
		Sends: make([]sched.Msg, 0, 4),
		Recvs: make([]sched.Msg, 0, 4),
	}
	var sdsBuf [maxInlineDims]int
	sds := sdsBuf[:0]
	if len(dims) == 0 {
		for k := range a.acc {
			sd := int(a.acc[k].sd)
			if a.halo[sd] > 0 && a.axisOf[sd] >= 0 {
				sds = append(sds, sd)
			}
		}
	} else {
		for _, d := range dims {
			sd := a.storeDim(d)
			if a.halo[sd] == 0 {
				panic(fmt.Sprintf("darray: ExchangeHalo on dim %d with zero halo", d))
			}
			sds = append(sds, sd)
		}
	}
	for _, sd := range sds {
		a.compileHaloSends(s, sd)
	}
	for _, sd := range sds {
		a.compileHaloRecvs(s, sd)
	}
	return s
}

// compileHaloSends mirrors sendHalo: for every other processor along the
// dimension's axis, the ghost windows falling in this processor's owned
// range become one send message of pack runs per (peer, side).
func (a *Array) compileHaloSends(s *sched.Schedule, sd int) {
	st := a.st
	ax := a.axisOf[sd]
	n := a.extents[sd]
	P := st.rootGrid().Extent(ax)
	q := st.coord(ax)
	h := a.halo[sd]
	myLo, myHi := st.lower(sd), st.lower(sd)+a.lsize[sd]-1
	if a.planeSize(sd) == 0 || a.lsize[sd] == 0 {
		return // an empty dimension: peers mirror this skip
	}
	b := a.dists[sd].(dist.Contiguous)
	for qq := 0; qq < P; qq++ {
		if qq == q {
			continue
		}
		qlo, qhi := b.Lower(qq, n, P), b.Upper(qq, n, P)
		if lo, hi := maxI(qlo-h, myLo), minI(qlo-1, myHi); lo <= hi {
			a.compileSendRun(s, sd, uint16(sd<<2|0), ax, qq, lo, hi)
		}
		if lo, hi := maxI(qhi+1, myLo), minI(qhi+h, myHi); lo <= hi {
			a.compileSendRun(s, sd, uint16(sd<<2|1), ax, qq, lo, hi)
		}
	}
}

func (a *Array) compileSendRun(s *sched.Schedule, sd int, part uint16, ax, qq, lo, hi int) {
	st := a.st
	s.BeginSend(st.offsetAlongAxis(ax, qq), part)
	for g := lo; g <= hi; g++ {
		a.appendPlaneRuns(s, sd, g-st.lower(sd)+a.halo[sd], true)
	}
}

// compileHaloRecvs mirrors recvHalo/recvSide: this processor's ghost
// windows, grouped into one receive message of unpack runs per owner run.
func (a *Array) compileHaloRecvs(s *sched.Schedule, sd int) {
	st := a.st
	ax := a.axisOf[sd]
	h := a.halo[sd]
	myLo, myHi := st.lower(sd), st.lower(sd)+a.lsize[sd]-1
	if a.planeSize(sd) == 0 {
		return // some other dimension is empty here: no cells at all
	}
	a.compileRecvSide(s, sd, ax, 0, myLo-h, myLo-1)
	a.compileRecvSide(s, sd, ax, 1, myHi+1, myHi+h)
}

func (a *Array) compileRecvSide(s *sched.Schedule, sd, ax, side, lo, hi int) {
	st := a.st
	var runs [4]ghostRun
	for _, run := range a.ghostRuns(sd, lo, hi, runs[:0]) {
		s.BeginRecv(st.offsetAlongAxis(ax, run.ownerCoord), uint16(sd<<2|side))
		for g := run.lo; g <= run.hi; g++ {
			a.appendPlaneRuns(s, sd, g-st.lower(sd)+a.halo[sd], false)
		}
	}
}

// appendPlaneRuns records the storage runs of the hyperplane at
// halo-relative position l of store dim sd, in the exact order
// packPlane/unpackPlane move them, onto the schedule's current send or
// receive message.
func (a *Array) appendPlaneRuns(s *sched.Schedule, sd, l int, send bool) {
	a.eachPlaneRun(sd, l, func(off, n int) {
		if send {
			s.AddSendRun(off, n)
		} else {
			s.AddRecvRun(off, n)
		}
	})
}

// --- GatherTo ------------------------------------------------------------

// gatherPlan is a compiled GatherTo for one root (the view keeps it under
// the root's index): the root's machine rank and the pack's storage runs,
// the cells the member owns in OwnedEach order, which are interned — every
// member with the same local layout holds one run list — and so is a
// member's whole plan: the members that send the same runs to the same
// root hold one. The root's plan is its own, with gatherRoot holding what
// only the root needs.
type gatherPlan struct {
	peer int // the root's machine rank
	pack []sched.Run
	root *gatherRoot // nil except on the root
}

// gatherRoot is the root's half of a gather plan: one message per grid
// member, in rank order, whose runs are the cells of the dense result that
// member's pack fills (peers as offsets from the root), and the dense
// result's length.
type gatherRoot struct {
	sched.Schedule     // Recvs only; replayed by gatherToScheduled, never Executed
	size           int // dense result length
}

// gatherPlanFor compiles (or returns the kept) gather plan of this view for
// the given root index.
func (a *Array) gatherPlanFor(me, rootIdx int) *gatherPlan {
	for i := range a.plans {
		if pl := &a.plans[i]; pl.gather != nil && pl.key == rootIdx {
			return pl.gather
		}
	}
	g := a.grid
	m := a.st.p.Machine()
	self := a.st.p.Rank()
	runs := make([]sched.Run, 0, 8)
	a.ownedWalk(func(idx []int, off int) { runs = appendRun(runs, off) })
	peer, pack := g.RankAt(rootIdx), sched.InternRuns(m, runs)
	if me != rootIdx {
		var buf [128]byte
		key := binary.AppendUvarint(append(buf[:0], 'G'), uint64(peer))
		key = binary.AppendUvarint(key, uint64(len(pack)))
		for _, r := range pack {
			key = binary.AppendUvarint(key, uint64(r.Off))
			key = binary.AppendUvarint(key, uint64(r.Len))
		}
		pl := machine.Intern(m, key, func() *gatherPlan { return &gatherPlan{peer: peer, pack: pack} })
		a.plans = append(a.plans, viewPlan{key: rootIdx, gather: pl})
		return pl
	}
	nd := a.Dims()
	ext := make([]int, nd)
	rt := &gatherRoot{size: 1}
	rt.Recvs = make([]sched.Msg, g.Size())
	for d := 0; d < nd; d++ {
		ext[d] = a.Extent(d)
		rt.size *= ext[d]
	}
	for k := range rt.Recvs {
		mu := &rt.Recvs[k]
		mu.Peer, mu.Part, mu.Runs = g.RankAt(k)-self, uint16(k), make([]sched.Run, 0, 8)
		a.memberOwnedEach(k, func(idx []int) {
			off := 0
			for d := 0; d < nd; d++ {
				off = off*ext[d] + idx[d]
			}
			mu.Runs = appendRun(mu.Runs, off)
			mu.N++
		})
	}
	rt.Compact()
	pl := &gatherPlan{peer: peer, pack: pack, root: rt}
	a.plans = append(a.plans, viewPlan{key: rootIdx, gather: pl})
	return pl
}

// gatherToScheduled replays the compiled gather plan from cur: members
// pack owned runs into a pooled buffer and ship it; the root unpacks every
// member's message (and its own staged pack) into the dense result via the
// compiled runs, in member order, and reports false where the next
// member's message has not arrived (p.TryRecv). Traffic is bit-identical
// to gatherToDirect.
func (a *Array) gatherToScheduled(sc machine.Scope, rootIdx int, cur *GatherCursor) ([]float64, bool) {
	st := a.st
	p := st.p
	me, ok := a.grid.Index(p.Rank())
	if !ok {
		panic("darray: GatherTo caller not in the array's grid")
	}
	pl := a.gatherPlanFor(me, rootIdx)
	pack := func() []float64 {
		n := 0
		for _, r := range pl.pack {
			n += r.Len
		}
		buf := p.AcquireBuf(n)
		k := 0
		for _, r := range pl.pack {
			k += copy(buf[k:], st.data[r.Off:r.Off+r.Len])
		}
		return buf
	}
	if me != rootIdx {
		p.SendOwned(pl.peer, sc.Tag(uint16(me)), pack())
		return nil, true
	}
	if cur.out == nil {
		cur.out = make([]float64, pl.root.size)
	}
	for ; cur.next < len(pl.root.Recvs); cur.next++ {
		m := cur.next
		mu := &pl.root.Recvs[m]
		var buf []float64
		if m == me {
			buf = pack()
		} else if buf, ok = p.TryRecv(p.Rank()+mu.Peer, sc.Tag(mu.Part)); !ok {
			return nil, false
		}
		if len(buf) != mu.N {
			panic(fmt.Sprintf("darray: GatherTo: member %d sent %d values, want %d", m, len(buf), mu.N))
		}
		k := 0
		for _, r := range mu.Runs {
			k += copy(cur.out[r.Off:r.Off+r.Len], buf[k:k+r.Len])
		}
		p.ReleaseBuf(buf)
	}
	return cur.out, true
}

// --- Redistribute --------------------------------------------------------

// layoutSig returns a string identifying everything a compiled move
// schedule depends on for this processor: the root grid's rank mapping
// (shape, origin, strides), and per store dimension the extent,
// distribution (type and parameters), halo width and section fixing. Two
// views with equal signatures produce identical pack/move/unpack layouts on
// this processor, so the signature pair keys the Redistribute schedule
// cache. The signature is memoized on the view.
func (a *Array) layoutSig() string {
	m := a.memo()
	if m.sig != "" {
		return m.sig
	}
	st := a.st
	g := st.rootGrid()
	var sb strings.Builder
	base := g.RankAt(0)
	fmt.Fprintf(&sb, "g%v@%d", g.Shape(), base)
	// Recover the grid's per-dimension rank strides (sliced grids keep
	// parent strides, so shape and origin alone do not pin the mapping).
	coord := make([]int, g.Dims())
	for d := 0; d < g.Dims(); d++ {
		if g.Extent(d) > 1 {
			coord[d] = 1
			fmt.Fprintf(&sb, "s%d", g.Rank(coord...)-base)
			coord[d] = 0
		}
	}
	for sd := range a.extents {
		fmt.Fprintf(&sb, ";%d:%T%v:h%d:f%d",
			a.extents[sd], a.dists[sd], a.dists[sd], a.halo[sd], a.pfix[sd])
	}
	m.sig = sb.String()
	return m.sig
}

// moveCacheKey is the Proc.Scratch key of the per-processor Redistribute
// schedule cache.
type moveCacheKey struct{}

// moveScheduleFor returns the compiled move schedule for src -> dst,
// caching it per (source layout, destination layout) pair in the
// processor's scratch. Redistribute builds a fresh destination array per
// call, but ping-pong redistribution (an out-of-place FFT transpose, say)
// cycles between the same two layouts — the second and every later trip
// replays the first trip's schedule instead of re-deriving the data motion.
func moveScheduleFor(src, dst *Array) *sched.Schedule {
	cache := src.st.p.Scratch(moveCacheKey{}, func() any {
		return make(map[string]*sched.Schedule)
	}).(map[string]*sched.Schedule)
	key := src.layoutSig() + ">" + dst.layoutSig()
	if s, ok := cache[key]; ok {
		return s
	}
	s := compileMove(src, dst)
	cache[key] = s
	return s
}

// compileMove is the Redistribute inspector: it derives, once, the complete
// data motion from src's layout to dst's — per-destination pack runs in
// ascending rank order, local moves for cells staying on this processor,
// and per-source unpack runs in ascending rank order — so the executor
// replays plain copies. The message sequence matches moveContentsDirect
// exactly.
func compileMove(src, dst *Array) *sched.Schedule {
	p := src.st.p
	n := p.Size()
	self := p.Rank()
	s := &sched.Schedule{}
	defer s.Compact() // on either return below

	outRuns := make([][]sched.Run, n)
	outN := make([]int, n)
	if src.Participates() && src.isCanonicalOwner() {
		src.ownedWalk(func(idx []int, off int) {
			for _, r := range dst.holderRanks(idx) {
				outRuns[r] = appendRun(outRuns[r], off)
				outN[r]++
			}
		})
	}
	for r := 0; r < n; r++ {
		if r == self || outRuns[r] == nil {
			continue
		}
		s.Sends = append(s.Sends, sched.Msg{Peer: r - self, Part: 0, N: outN[r], Runs: outRuns[r]})
	}

	if !dst.Participates() {
		return s
	}
	inRuns := make([][]sched.Run, n)
	inN := make([]int, n)
	var order []int
	dst.ownedWalk(func(idx []int, off int) {
		r := src.canonicalRank(idx)
		if inRuns[r] == nil {
			order = append(order, r)
		}
		inRuns[r] = appendRun(inRuns[r], off)
		inN[r]++
	})
	sortInts(order)
	for _, r := range order {
		if r == self {
			zipMoves(s, outRuns[self], inRuns[self])
			continue
		}
		s.Recvs = append(s.Recvs, sched.Msg{Peer: r - self, Part: 0, N: inN[r], Runs: inRuns[r]})
	}
	return s
}

// zipMoves pairs the k-th element of the sender-order source runs with the
// k-th element of the receiver-order destination runs — both enumerate the
// same cell set in row-major global order — and emits merged local moves.
func zipMoves(s *sched.Schedule, srcRuns, dstRuns []sched.Run) {
	si, so, di, do := 0, 0, 0, 0
	for si < len(srcRuns) && di < len(dstRuns) {
		sr, dr := srcRuns[si], dstRuns[di]
		n := minI(sr.Len-so, dr.Len-do)
		s.AddMove(sr.Off+so, dr.Off+do, n)
		so += n
		do += n
		if so == sr.Len {
			si, so = si+1, 0
		}
		if do == dr.Len {
			di, do = di+1, 0
		}
	}
}
