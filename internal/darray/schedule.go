package darray

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

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

// haloBuilds counts the halo schedules compiled, for the census tests.
var haloBuilds atomic.Int64

// haloSchedule returns the compiled halo-exchange schedule for the given
// free dimensions (all haloed dimensions when empty), keeping it on the
// view. The schedule depends only on the view's immutable layout (extents,
// distributions, halo widths, grid, fixed indices), so a kept schedule is
// never invalidated; arrays with new layouts are new views. It is the
// machine's one copy for its key (machine.Intern), and the key is derived
// before anything is compiled: the view's shape (appendShape) and the
// exchange's messages — per message the peer as a rank offset (the
// relative coordinate times the axis stride), the part, which names the
// store dimension and side, and the window it moves, from the block's
// origin. Those fix every run of the schedule, so every rank of a position
// class derives the same key and only the first compiles.
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
	var msgBuf [8]haloMsg
	msgs := msgBuf[:0]
	for _, sd := range sds {
		msgs = a.haloSends(msgs, sd)
	}
	sends := len(msgs)
	for _, sd := range sds {
		msgs = a.haloRecvs(msgs, sd)
	}
	var keyBuf [128]byte
	k := binary.AppendUvarint(a.appendShape(append(keyBuf[:0], 'H')), uint64(sends))
	k = binary.AppendUvarint(k, uint64(len(msgs)))
	for _, m := range msgs {
		for _, v := range [4]int{m.peer, m.part, m.lo, m.hi} {
			k = binary.AppendVarint(k, int64(v))
		}
	}
	s := machine.Intern(a.st.p.Machine(), k, func() *sched.Schedule { return a.compileHalo(msgs, sends) })
	a.plans = append(a.plans, viewPlan{key: key, halo: s})
	return s
}

// haloMsg is one message of a halo exchange as a rank derives it before
// compiling: the peer as a rank offset, the tag part (store dim << 2 |
// side), and the window of global indices it packs or unpacks, inclusive,
// from the block's origin.
type haloMsg struct{ peer, part, lo, hi int }

// appendShape appends to key what a compiled halo exchange or gather pack
// reads of the view beyond its messages: per store dimension the owned
// extent and the halo width, which fix the padded block's strides, and
// whether it is fixed, and the data offset the fixed dimensions contribute.
func (a *Array) appendShape(key []byte) []byte {
	key = binary.AppendUvarint(key, uint64(len(a.pfix)))
	for d, f := range a.pfix {
		key = binary.AppendUvarint(key, uint64(a.lsize[d]))
		key = binary.AppendUvarint(key, uint64(a.halo[d]))
		key = append(key, byte(min(f, 0)+1))
	}
	return binary.AppendUvarint(key, uint64(a.fixedOff))
}

// haloSends appends the send messages along store dim sd, as sendHalo
// posts them: one per (peer, side) whose ghost window meets this block, in
// ascending coordinate order. Only the owners of [myLo-h, myHi+h] can be
// such peers, with every empty block at either end of that range (blocks
// are contiguous and in coordinate order), so the search asks the
// distribution about them alone, not about every processor along the axis.
func (a *Array) haloSends(msgs []haloMsg, sd int) []haloMsg {
	st := a.st
	ax, n, h := a.axisOf[sd], a.extents[sd], a.halo[sd]
	P, q := st.rootGrid().Extent(ax), st.coord(ax)
	myLo, myHi := st.lower(sd), st.lower(sd)+a.lsize[sd]-1
	if a.planeSize(sd) == 0 || a.lsize[sd] == 0 {
		return msgs // an empty dimension: peers mirror this skip
	}
	b := a.dists[sd].(dist.Contiguous)
	first, last := 0, P-1
	if myLo-h >= 0 {
		first = b.Owner(myLo-h, n, P)
	}
	if myHi+h < n {
		last = b.Owner(myHi+h, n, P)
	}
	for qq := first; qq <= last; qq++ {
		if qq == q {
			continue
		}
		qlo, qhi := b.Lower(qq, n, P), b.Upper(qq, n, P)
		if lo, hi := maxI(qlo-h, myLo), minI(qlo-1, myHi); lo <= hi {
			msgs = append(msgs, haloMsg{st.offsetAlongAxis(ax, qq), sd << 2, lo - myLo, hi - myLo})
		}
		if lo, hi := maxI(qhi+1, myLo), minI(qhi+h, myHi); lo <= hi {
			msgs = append(msgs, haloMsg{st.offsetAlongAxis(ax, qq), sd<<2 | 1, lo - myLo, hi - myLo})
		}
	}
	return msgs
}

// haloRecvs appends the receive messages along store dim sd, as
// recvHalo/recvSide take them: this processor's two ghost windows, one
// message per owner run (an empty block still receives its degenerate
// windows).
func (a *Array) haloRecvs(msgs []haloMsg, sd int) []haloMsg {
	st := a.st
	ax, h := a.axisOf[sd], a.halo[sd]
	myLo := st.lower(sd)
	if a.planeSize(sd) == 0 {
		return msgs // some other dimension is empty here: no cells at all
	}
	var runs [4]ghostRun
	for side, lo := range [2]int{myLo - h, myLo + a.lsize[sd]} {
		for _, run := range a.ghostRuns(sd, lo, lo+h-1, runs[:0]) {
			msgs = append(msgs, haloMsg{st.offsetAlongAxis(ax, run.ownerCoord), sd<<2 | side, run.lo - myLo, run.hi - myLo})
		}
	}
	return msgs
}

// compileHalo is the halo-exchange inspector: the first sends messages of
// msgs become send messages of pack runs, the rest receive messages of
// unpack runs — each the runs of the hyperplanes in its window, in the
// exact order packPlane/unpackPlane move them.
func (a *Array) compileHalo(msgs []haloMsg, sends int) *sched.Schedule {
	haloBuilds.Add(1)
	s := &sched.Schedule{
		Sends: make([]sched.Msg, 0, sends),
		Recvs: make([]sched.Msg, 0, len(msgs)-sends),
	}
	for i, m := range msgs {
		sd, add := m.part>>2, s.AddSendRun
		if i < sends {
			s.BeginSend(m.peer, uint16(m.part))
		} else {
			s.BeginRecv(m.peer, uint16(m.part))
			add = s.AddRecvRun
		}
		for l := m.lo; l <= m.hi; l++ {
			a.eachPlaneRun(sd, l+a.halo[sd], add)
		}
	}
	s.Compact()
	return s
}

// --- GatherTo ------------------------------------------------------------

// gatherPlan is a compiled GatherTo for one root (the view keeps it under
// the root's index): the root's machine rank and the pack's storage runs,
// the cells the member owns in OwnedEach order. A member's plan is the
// machine's one copy for its key — the view's shape (appendShape), which
// fixes the runs, and the root's rank — so the members that would send the
// same runs to the same root hold one, built by the first of them. The
// root's plan is its own, with gatherRoot holding what only the root needs.
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

// gatherBuilds counts the gather plans built, for the census tests.
var gatherBuilds atomic.Int64

// gatherPlanFor compiles (or returns the kept) gather plan of this view for
// the given root index.
func (a *Array) gatherPlanFor(me, rootIdx int) *gatherPlan {
	for i := range a.plans {
		if pl := &a.plans[i]; pl.gather != nil && pl.key == rootIdx {
			return pl.gather
		}
	}
	g := a.grid
	peer := g.RankAt(rootIdx)
	if me != rootIdx {
		var buf [64]byte
		key := binary.AppendUvarint(a.appendShape(append(buf[:0], 'G')), uint64(peer))
		pl := machine.Intern(a.st.p.Machine(), key, func() *gatherPlan { return &gatherPlan{peer: peer, pack: a.packRuns()} })
		a.plans = append(a.plans, viewPlan{key: rootIdx, gather: pl})
		return pl
	}
	self := a.st.p.Rank()
	nd := a.Dims()
	ext := make([]int, nd)
	rt := &gatherRoot{size: 1}
	rt.Recvs = make([]sched.Msg, g.Size())
	for d := 0; d < nd; d++ {
		ext[d] = a.Extent(d)
		rt.size *= ext[d]
	}
	// Every member's runs go into one slab, in member order, and a run
	// never continues across a member's start. The slab may move while it
	// grows, so a member's Runs only carries its length until every member
	// is in; the members' starts are then the running sum of those lengths.
	// Member 0's run count, times the members, is the first guess at the
	// slab's size: exact on even blocks.
	var slab []sched.Run
	var walk []int
	for k := range rt.Recvs {
		mu := &rt.Recvs[k]
		mu.Peer, mu.Part = g.RankAt(k)-self, uint16(k)
		start := len(slab)
		walk = a.memberOwnedEach(k, walk, func(idx []int) {
			off := 0
			for d := 0; d < nd; d++ {
				off = off*ext[d] + idx[d]
			}
			if len(slab) == start {
				slab = append(slab, sched.Run{Off: off, Len: 1})
			} else {
				slab = appendRun(slab, off)
			}
			mu.N++
		})
		mu.Runs = slab[start:]
		if k == 0 {
			slab = slices.Grow(slab, len(slab)*(len(rt.Recvs)-1))
		}
	}
	start := 0
	for k := range rt.Recvs {
		end := start + len(rt.Recvs[k].Runs)
		rt.Recvs[k].Runs = slab[start:end:end]
		start = end
	}
	pl := &gatherPlan{peer: peer, pack: a.packRuns(), root: rt}
	a.plans = append(a.plans, viewPlan{key: rootIdx, gather: pl})
	return pl
}

// packRuns builds a gather plan's pack: the storage runs of the cells the
// processor owns, in OwnedEach order, in a slice of their own length (nil
// for none).
func (a *Array) packRuns() []sched.Run {
	gatherBuilds.Add(1)
	runs := make([]sched.Run, 0, 8)
	a.ownedWalk(func(idx []int, off int) { runs = appendRun(runs, off) })
	return append([]sched.Run(nil), runs...)
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
