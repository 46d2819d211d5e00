// Package darray implements KF1's distributed arrays: multidimensional
// arrays whose dimensions are mapped onto a processor grid by per-dimension
// distribution patterns (block, cyclic, "*"), exactly as declared by the
// paper's dist clauses, e.g.
//
//	real u(0:nx, 0:ny, 0:nz) dist (*, block, block)
//
// becomes
//
//	u := darray.New(p, grid, darray.Spec{
//		Extents: []int{nx + 1, ny + 1, nz + 1},
//		Dists:   []dist.Dist{dist.Star{}, dist.Block{}, dist.Block{}},
//		Halo:    []int{0, 1, 1},
//	})
//
// Arrays are SPMD values: every processor constructs its own descriptor (the
// same way a compiled KF1 program would materialize one per node). A view
// of an array is two parts. Its header is the processor's own and small:
// where its block starts and its grid coordinate, its local block padded
// with halo (ghost) cells for block-distributed dimensions, the snapshot of
// that block, its grid, whether it participates, and the compiled
// communication it keeps. Its class part is what the processor derives from
// the declaration alone, with every window addressed from the block's
// origin, and it shares that with every processor that derives it alike:
// a root view's class part (the layout — extents, distributions, halo
// widths, the block's shape — which dimensions are fixed, and per free
// dimension its kind, stride and clipped read and write windows), the
// compiled halo exchanges (runs into the local block, peers as rank
// offsets) and the gathers' pack runs and plans are interned per machine by
// content (machine.Intern), and grid slices are kept on their parent grid.
// In a block distribution these depend on a processor's position class —
// first, interior or last along each axis, 9 classes in 2-D — not on its
// coordinates, so a machine holds a number of them that does not grow with
// the processor count.
//
// Sharing cannot change a bit. An interned descriptor's key is its whole
// content, so the object a processor gets is, value for value, the one it
// would have built; nothing writes it once it is published; and replay and
// the accessors read it as they would read a private copy — the same
// messages, in the same order, of the same sizes, the same cells.
// TestClassCensus counts the shared objects at three grid sizes and holds
// them to what each processor derives from its own block and their replay
// to the direct derivation.
//
// Remote values move only through explicit collectives (ExchangeHalo,
// GatherTo, Redistribute, ...), each of which is built on simulated
// message passing and therefore fully accounted in virtual time.
//
// Sections of an array — the paper's u(*, *, k) — are taken with Section,
// which fixes one dimension and binds the result to the matching slice of
// the processor grid; sections of sections compose, which is what lets the
// 3-D multigrid solver hand planes to the 2-D solver and the 2-D solver hand
// lines to a sequential kernel.
package darray

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/topology"
)

// Spec declares a distributed array: global extents, one distribution per
// dimension, and optional halo (ghost-cell) widths for block-distributed
// dimensions.
type Spec struct {
	// Extents are the global array extents per dimension.
	Extents []int
	// Dists give the distribution pattern per dimension. The number of
	// non-Star entries must equal the grid's dimensionality, unless every
	// entry is Star (a replicated array, legal on any grid).
	Dists []dist.Dist
	// Halo gives the ghost-cell width per dimension (nil means zero).
	// Halo is only meaningful on Block dimensions.
	Halo []int
}

// layout is the part of a root array's descriptor that every processor
// of one position class computes alike: the declaration (extents,
// distributions, halo widths, the dimension-to-axis map) and, for a grid
// member, the shape of its local block. It holds no coordinate: it is
// built with a root view's class part and shared with it (see
// internRootClass), and a section's class part points at its root's. It
// is read-only once built.
type layout struct {
	extents []int
	dists   []dist.Dist
	halo    []int
	axisOf  []int // store dim -> root grid axis, -1 for Star dims

	// Local block shape (nil for a non-member):
	lsize  []int // owned extent per dim
	pad    []int // lsize + 2*halo
	stride []int // row-major strides over pad
}

// store is one processor's piece of a root array, and the root view's
// header in the same allocation: the root view (through whose class part
// it reaches the layout, and whose participates says whether the
// processor is a grid member) and what only this processor has — where its
// block starts, its grid coordinate, the block itself and its snapshot.
// Sections point at their root's store.
type store struct {
	root Array  // the root view; New returns &st.root
	own  [4]int // inline backing of pos: a 2-D array on a 2-D grid
	p    *machine.Proc
	// pos holds, for a grid member, the first owned global index of every
	// store dimension (0 on a Star or non-contiguous one) and then the
	// coordinate in the root grid; nil for a non-member. See lower and
	// coord.
	pos []int
	// data is the local block. Once the array has been snapshotted, the
	// copy-in snapshot buffer follows it in the same allocation — data's
	// capacity is twice its length — and is kept for the next snapshot;
	// see old.
	data []float64
	// walk is the index scratch of an owned walk over any view of the
	// array (see walkIdx): the walk's visitor receives it, so it cannot
	// live on the walk's frame, and a view is too numerous a place for it.
	walk [maxInlineDims]int
}

// old returns the snapshot buffer, empty before the first Snapshot.
func (st *store) old() []float64 {
	d := st.data
	return d[len(d):cap(d)]
}

// lower returns the first global index of store dim sd the processor
// owns (0 on a Star or non-contiguous dimension).
func (st *store) lower(sd int) int { return st.pos[sd] }

// coord returns the processor's coordinate along root grid axis ax.
func (st *store) coord(ax int) int { return st.pos[len(st.root.extents)+ax] }

// rootGrid is the grid the root array was declared on.
func (st *store) rootGrid() *topology.Grid { return st.root.grid }

// Array is a distributed array or a section of one. The zero value is not
// useful; construct root arrays with New and sections with Section.
//
// An Array is an immutable view of one simulated processor's piece of the
// array, in two parts. Its class part (viewClass) is what every processor
// of the view's position class computes alike — which dimensions are
// fixed, and per free dimension its kind, stride and read and write windows
// addressed from the block's origin — and a root view's class part is the
// machine's one copy (machine.Intern). Its header is the processor's own:
// the storage it reads (its block's origin, coordinate, data and
// snapshot), its grid, whether it participates, and the compiled halo
// exchanges and gathers it keeps so iterative programs pay for derivation
// once, not per loop pass. Only Section derives (and keeps) a view; the
// queries an on-clause needs — OwnerGrid, SectionGrid, SectionParticipates
// — are index arithmetic and build none.
type Array struct {
	*viewClass
	st   *store
	grid *topology.Grid // grid of this array/section
	// lo holds the first owned global index of the first maxInlineAcc free
	// dimensions, in order (0 on a Star or non-contiguous one): the block's
	// origin, which the arity accessors subtract to use the class part's
	// windows.
	lo           [maxInlineAcc]int
	participates bool
	snapOn       bool // a root view's: whether a snapshot is currently active
	walking      bool // a root view's: an owned walk holds its store's walk scratch

	// Per-view memoization (no locks needed: a view belongs to one
	// simulated processor's goroutine): the compiled halo exchanges and
	// gathers — one or two — and, for the views that section or
	// redistribute, the rest.
	plans []viewPlan
	more  *viewMemo
}

// viewClass is the class part of a view: the index arithmetic of its free
// dimensions, with every window addressed from the block's origin, so it
// holds no global index and no coordinate. A root view's class part is
// interned per machine, keyed by what fixes every value it holds (see
// internRootClass), so every rank whose view would compute it alike shares
// one: in a block distribution, one per position class. A section's is its
// own. It is read-only once built.
type viewClass struct {
	// The accessors' fields first, with the inline backing of acc: with
	// at most maxInlineDims store dimensions (maxInlineAcc of them free)
	// a class part costs one allocation instead of one per slice. A
	// section's first touch (Extent, LocalSize) reads acc and the layout.
	acc []axisAccess // one entry per free dimension, in order
	*layout
	fixedOff int // data offset contributed by the fixed dims
	accBuf   [maxInlineAcc]axisAccess

	pfix    []int // per store dim: fixed global index, or -1 if free
	pfixBuf [maxInlineDims]int
}

// viewMemo is what a view memoizes beyond its plans, allocated by the
// first Section or layoutSig call: most views never make either.
type viewMemo struct {
	secs map[sectionKey]*Array // Section views by (dim, index)
	sig  string                // layout signature (see layoutSig)

	// secArena chunk-allocates the section views (header and class part)
	// of this view: chunks hold 1, 2, 4, then secChunk views, so a view
	// sectioned once pays for one section and one sectioned along a whole
	// dimension for ~n/secChunk allocations. Chunks are never grown in
	// place — cached section pointers must stay valid — so a full chunk is
	// simply replaced by a fresh one.
	secArena []sectionView
}

// sectionView is a section's header and its class part, carved together
// from the parent's arena.
type sectionView struct {
	Array
	cls viewClass
}

// memo returns the view's viewMemo, allocating it on first use.
func (a *Array) memo() *viewMemo {
	if a.more == nil {
		a.more = &viewMemo{}
	}
	return a.more
}

// viewPlan is one compiled communication pattern a view keeps: a halo
// exchange by its dims key, or a gather by its root index.
type viewPlan struct {
	key    int
	halo   *sched.Schedule
	gather *gatherPlan
}

// secChunk is the most section views one arena chunk holds.
const secChunk = 8

// newSection carves one section view out of the view's section arena.
func (a *Array) newSection() *sectionView {
	m := a.memo()
	if len(m.secArena) == cap(m.secArena) {
		m.secArena = make([]sectionView, 0, min(max(2*cap(m.secArena), 1), secChunk))
	}
	m.secArena = m.secArena[:len(m.secArena)+1]
	return &m.secArena[len(m.secArena)-1]
}

// maxInlineDims bounds the dimensionality served by the inline view
// buffers; larger arrays fall back to heap slices.
const maxInlineDims = 4

// maxInlineAcc bounds the free dimensions whose access data a view holds
// inline: as many as the arity accessors go.
const maxInlineAcc = 3

// sectionKey indexes the Section cache: the fixed dimension and its index.
type sectionKey struct{ d, i int }

// Access classification of one free dimension.
const (
	axStar    uint8 = iota // replicated: local index == global index
	axContig               // contiguous ownership with halo window
	axGeneral              // anything else: ask the distribution
)

// axisAccess is one free dimension of a view reduced to index arithmetic:
// what it takes to turn a global index g into a storage offset with no
// interface call, no slice walk and no further function call. It is
// addressed from the block's origin: l = g - lower, where lower is the
// first owned index (the processor's own, from its store; 0 on a Star
// dimension).
//
// The arity accessors (At1-3, Old1-3, Set1-3) use the first group only. A
// read is legal inside the read window l in [rlo, rlo+rspan) — the owned
// range widened by the halo and clipped to the extent — a write inside the
// write window l in [0, wspan) — the owned range — and either way the cell
// is (l+base)*stride from the view's fixedOff, base = halo turning a
// position in the block into one in the padded local block. A Star
// dimension is both windows = [0, extent) with base 0. A general (cyclic)
// dimension has two empty windows: ownership there is a question for the
// distribution, which roff and woff ask; they are also where an index
// outside its window goes to have its panic worded.
//
// The second group is what roff, woff, globalOf and the owned walks read:
// the dimension's kind, its store dimension, through which they reach the
// shared layout (extent, halo, owned extent) and the processor's lower
// bound, and for a general dimension where the processor's store keeps its
// coordinate along the dimension's axis and the axis length, the two its
// distribution is asked with.
type axisAccess struct {
	sd int32 // store dimension (first: a section's first touch reads it)

	rlo, rspan int // read window, from the block's origin
	wspan      int // write window length; it starts at the origin
	base       int
	stride     int

	qi   int32 // index of the axis coordinate in the store's pos (axGeneral)
	kind uint8
	P    int // axis length (axGeneral)
}

// axisAccessOf derives free store dimension sd's access data on st's
// processor, a grid member whose array has layout lay.
func (lay *layout) axisAccessOf(st *store, sd int) axisAccess {
	ax := axisAccess{sd: int32(sd), stride: lay.stride[sd]}
	switch {
	case lay.axisOf[sd] < 0:
		ax.kind = axStar
	default:
		if _, ok := lay.dists[sd].(dist.Contiguous); ok {
			ax.kind = axContig
		} else {
			ax.kind = axGeneral
			ax.qi = int32(len(lay.extents) + lay.axisOf[sd])
			ax.P = st.rootGrid().Extent(lay.axisOf[sd])
		}
	}
	if ax.kind != axGeneral {
		// Star: lower 0, lsize = extent, halo 0.
		ax.base = lay.halo[sd]
		ax.rlo, ax.rspan, ax.wspan = windows(st.lower(sd), lay.lsize[sd], lay.halo[sd], lay.extents[sd])
	}
	return ax
}

// windows returns the read window and the write window's length of a block
// of n cells starting at global index lo, with halo h, along a dimension of
// extent cells, both clipped to the extent and addressed from lo.
func windows(lo, n, h, extent int) (rlo, rspan, wspan int) {
	rlo = max(lo-h, 0) - lo
	rspan = max(min(lo+n+h, extent)-lo-rlo, 0)
	wspan = max(min(lo+n, extent)-lo, 0)
	return rlo, rspan, wspan
}

// classBuilds counts the view class parts built (interned or a section's
// own), for the census tests.
var classBuilds atomic.Int64

// internRootClass returns the class part of the processor's root view of
// st, the machine's one copy (machine.Intern): its layout (the
// declaration and, for a grid member, its block's shape lsize) and the
// access data derived from it. The key is what fixes that content — the
// layout's and, per free dimension, the windows clipped at the extent or
// the axis length a general dimension asks its distribution with — computed
// before the lookup into key, so a rank shares one only with ranks that
// would have built it identically, and only the first of them builds it.
func internRootClass(st *store, key []byte, g *topology.Grid, spec Spec, halo, axisOf, lsize []int) *viewClass {
	key = binary.AppendUvarint(append(key, 'V'), uint64(len(spec.Extents)))
	key = binary.AppendUvarint(key, uint64(len(lsize)))
	for d, n := range spec.Extents {
		key = binary.AppendUvarint(key, uint64(n))
		key = binary.AppendUvarint(key, uint64(halo[d]))
		key = binary.AppendVarint(key, int64(axisOf[d]))
		key = appendDist(key, spec.Dists[d])
		if lsize == nil {
			continue
		}
		key = binary.AppendUvarint(key, uint64(lsize[d]))
		if _, contig := spec.Dists[d].(dist.Contiguous); axisOf[d] >= 0 && !contig {
			key = binary.AppendUvarint(key, uint64(g.Extent(axisOf[d])))
			continue
		}
		rlo, rspan, wspan := windows(st.lower(d), lsize[d], halo[d], n)
		key = binary.AppendVarint(key, int64(rlo))
		key = binary.AppendUvarint(key, uint64(rspan))
		key = binary.AppendUvarint(key, uint64(wspan))
	}
	rc := machine.Intern(st.p.Machine(), key, func() *rootClass {
		classBuilds.Add(1)
		nd := len(spec.Extents)
		rc := &rootClass{}
		ints, dists := rc.ints[:], rc.dists[:0]
		if nd > maxInlineDims {
			ints, dists = make([]int, 6*nd), nil
		}
		rc.lay.fill(ints, append(dists, spec.Dists...), spec.Extents, halo, axisOf, lsize)
		vc := &rc.viewClass
		vc.layout = &rc.lay
		vc.pfix = vc.pfixBuf[:0]
		if nd > maxInlineDims {
			vc.pfix = make([]int, 0, nd)
		}
		for range nd {
			vc.pfix = append(vc.pfix, -1)
		}
		if lsize != nil {
			vc.acc = vc.accBuf[:0]
			if nd > maxInlineAcc {
				vc.acc = make([]axisAccess, 0, nd)
			}
			for sd := 0; sd < nd; sd++ {
				vc.acc = append(vc.acc, vc.axisAccessOf(st, sd))
			}
		}
		return rc
	})
	return &rc.viewClass
}

// rootClass is a root view's class part in one allocation with its layout
// and the layout's inline backing.
type rootClass struct {
	viewClass
	lay   layout
	ints  [6 * maxInlineDims]int
	dists [maxInlineDims]dist.Dist
}

// fillSection builds the class part of a section view of st fixing the
// dimensions pfix fixes: its own, since where a fixed index falls in the
// block is the processor's. It returns whether the processor participates.
func (vc *viewClass) fillSection(st *store, pfix []int) bool {
	classBuilds.Add(1)
	vc.layout = st.root.layout
	nd := len(pfix)
	vc.pfix = vc.pfixBuf[:0]
	if nd > maxInlineDims {
		vc.pfix = make([]int, 0, nd)
	}
	vc.pfix = append(vc.pfix, pfix...)
	if !st.root.participates {
		return false
	}
	nfree := 0
	for sd, f := range pfix {
		if f < 0 {
			nfree++
		} else if !st.ownsStoreIndex(sd, f) {
			return false
		}
	}
	vc.acc = vc.accBuf[:0]
	if nfree > maxInlineAcc {
		vc.acc = make([]axisAccess, 0, nfree)
	}
	for sd, f := range pfix {
		if f >= 0 {
			vc.fixedOff += st.localPos(sd, f) * vc.stride[sd]
			continue
		}
		vc.acc = append(vc.acc, vc.axisAccessOf(st, sd))
	}
	return true
}

// origin returns the first owned global index of free dimension k (0 on a
// Star or non-contiguous dimension).
func (a *Array) origin(k int) int {
	if k < maxInlineAcc {
		return a.lo[k]
	}
	return a.st.lower(int(a.acc[k].sd))
}

// globalOf returns the global index of the l-th owned element along free
// dimension k.
func (a *Array) globalOf(k, l int) int {
	switch ax := &a.acc[k]; ax.kind {
	case axStar:
		return l
	case axContig:
		return a.origin(k) + l
	default:
		return a.dists[ax.sd].ToGlobal(l, a.st.pos[ax.qi], a.extents[ax.sd], ax.P)
	}
}

// roff returns the storage offset contribution of global index g along free
// dimension k for a read: owned cells and halo cells are legal.
func (a *Array) roff(k, g int) int {
	ax := &a.acc[k]
	st, sd := a.st, int(ax.sd)
	if ax.kind == axGeneral {
		// A general dimension has no halo.
		extent := a.extents[sd]
		if g < 0 || g >= extent {
			panic(fmt.Sprintf("darray: index %d out of extent %d (dim %d)", g, extent, sd))
		}
		d := a.dists[sd]
		if d.Owner(g, extent, ax.P) != st.pos[ax.qi] {
			panic(fmt.Sprintf("darray: proc %d does not own global index %d of %s dim %d",
				st.p.Rank(), g, d.Name(), sd))
		}
		return d.ToLocal(g, extent, ax.P) * ax.stride
	}
	if ax.kind == axStar && uint(g) < uint(ax.rspan) { // a Star window is the extent
		return g * ax.stride
	}
	if g < 0 || g >= a.extents[sd] {
		panic(fmt.Sprintf("darray: index %d out of extent %d (dim %d)", g, a.extents[sd], sd))
	}
	h, n, lo := a.halo[sd], a.lsize[sd], a.origin(k)
	l := g - lo
	if l < -h || l >= n+h {
		panic(fmt.Sprintf("darray: proc %d cannot access global index %d of dim %d (owns [%d,%d], halo %d)",
			st.p.Rank(), g, sd, lo, lo+n-1, h))
	}
	return (l + h) * ax.stride
}

// woff is roff for writes: only owned cells are legal (ghost values are
// read-only copies).
func (a *Array) woff(k, g int) int {
	ax := &a.acc[k]
	if ax.kind == axContig {
		l := g - a.origin(k)
		if uint(l) >= uint(ax.wspan) {
			panic(fmt.Sprintf("darray: proc %d writing unowned index %d of dim %d", a.st.p.Rank(), g, ax.sd))
		}
		return (l + ax.base) * ax.stride
	}
	return a.roff(k, g)
}

// New constructs a distributed array on grid g from the calling processor's
// point of view. Every processor of the machine may call New (processors
// outside g get an inert descriptor whose element accessors panic), and all
// processors inside g must construct identical specs.
func New(p *machine.Proc, g *topology.Grid, spec Spec) *Array {
	nd := len(spec.Extents)
	if nd == 0 || nd != len(spec.Dists) {
		panic(fmt.Sprintf("darray: bad spec: %d extents, %d dists", nd, len(spec.Dists)))
	}
	halo := spec.Halo
	if halo == nil {
		halo = make([]int, nd)
	}
	if len(halo) != nd {
		panic(fmt.Sprintf("darray: halo has %d entries for %d dims", len(halo), nd))
	}
	var dimBuf [2 * maxInlineDims]int
	dimScratch := dimBuf[:]
	if 2*nd > len(dimScratch) {
		dimScratch = make([]int, 2*nd)
	}
	axisOf, lsize := dimScratch[:nd], dimScratch[nd:2*nd]
	axis := 0
	for d := 0; d < nd; d++ {
		if spec.Extents[d] <= 0 {
			panic(fmt.Sprintf("darray: extent %d of dim %d", spec.Extents[d], d))
		}
		if _, isStar := spec.Dists[d].(dist.Star); isStar {
			axisOf[d] = -1
			continue
		}
		if axis >= g.Dims() {
			panic(fmt.Sprintf("darray: more distributed dims than grid dims (%d)", g.Dims()))
		}
		axisOf[d] = axis
		axis++
	}
	if axis != 0 && axis != g.Dims() {
		panic(fmt.Sprintf("darray: %d distributed dims must match grid dims %d (or be zero for a replicated array)", axis, g.Dims()))
	}
	for d := 0; d < nd; d++ {
		if halo[d] != 0 {
			if _, isContig := spec.Dists[d].(dist.Contiguous); !isContig {
				panic(fmt.Sprintf("darray: halo on non-contiguous dim %d (%s)", d, spec.Dists[d].Name()))
			}
		}
	}
	st := &store{p: p}
	a := &st.root
	a.st, a.grid = st, g
	pos := st.own[:]
	if gd := g.Dims(); nd+gd > len(pos) {
		pos = make([]int, nd+gd)
	}
	pos = pos[:nd+g.Dims()]
	if a.participates = g.CoordInto(p.Rank(), pos[nd:]); a.participates {
		st.pos = pos
		coord := pos[nd:]
		for d := 0; d < nd; d++ {
			n := spec.Extents[d]
			if axisOf[d] < 0 {
				lsize[d] = n
				continue
			}
			q, P := coord[axisOf[d]], g.Extent(axisOf[d])
			lsize[d] = spec.Dists[d].Size(q, n, P)
			if b, ok := spec.Dists[d].(dist.Contiguous); ok {
				pos[d] = b.Lower(q, n, P)
			}
		}
		copy(a.lo[:], pos[:nd])
	} else {
		lsize = nil
	}
	var keyBuf [192]byte
	a.viewClass = internRootClass(st, keyBuf[:0], g, spec, halo, axisOf, lsize)
	if a.participates {
		st.data = make([]float64, a.stride[0]*a.pad[0])
	}
	return a
}

// appendDist encodes a distribution for a class part's key: the bundled patterns
// by a letter and their parameters, any other by its type and value.
func appendDist(key []byte, d dist.Dist) []byte {
	switch d := d.(type) {
	case dist.Block:
		return append(key, 'b')
	case dist.Cyclic:
		return append(key, 'c')
	case dist.Star:
		return append(key, '*')
	case dist.BlockAligned:
		key = binary.AppendUvarint(append(key, 'a'), uint64(d.RootExtent))
		return binary.AppendUvarint(key, uint64(d.Stride))
	default:
		return fmt.Appendf(append(key, '?'), "%T%v;", d, d)
	}
}

// fill sets the layout to its content: the distributions are dists, and
// the per-dimension ints go into ints, which holds 6 per dimension.
func (lay *layout) fill(ints []int, dists []dist.Dist, extents, halo, axisOf, lsize []int) {
	nd := len(extents)
	lay.extents = ints[0*nd : 1*nd : 1*nd]
	lay.dists = dists
	lay.halo = ints[1*nd : 2*nd : 2*nd]
	lay.axisOf = ints[2*nd : 3*nd : 3*nd]
	copy(lay.extents, extents)
	copy(lay.halo, halo)
	copy(lay.axisOf, axisOf)
	if lsize == nil {
		return
	}
	lay.lsize = ints[3*nd : 4*nd : 4*nd]
	lay.pad = ints[4*nd : 5*nd : 5*nd]
	lay.stride = ints[5*nd : 6*nd : 6*nd]
	copy(lay.lsize, lsize)
	stride := 1
	for d := nd - 1; d >= 0; d-- {
		lay.pad[d] = lsize[d] + 2*halo[d]
		lay.stride[d] = stride
		stride *= lay.pad[d]
	}
}

// Dims returns the number of (free) dimensions of the array or section.
func (a *Array) Dims() int {
	if a.participates {
		return len(a.acc)
	}
	n := 0
	for _, f := range a.pfix {
		if f < 0 {
			n++
		}
	}
	return n
}

// Extent returns the global extent of free dimension d.
func (a *Array) Extent(d int) int { return a.extents[a.storeDim(d)] }

// Dist returns the distribution of free dimension d.
func (a *Array) Dist(d int) dist.Dist { return a.dists[a.storeDim(d)] }

// Grid returns the processor grid the array (or section) lives on.
func (a *Array) Grid() *topology.Grid { return a.grid }

// Proc returns the processor this descriptor belongs to.
func (a *Array) Proc() *machine.Proc { return a.st.p }

// Participates reports whether the calling processor holds a piece of this
// array (or section): it is a member of the array's grid and, for a section,
// owns the fixed indices. The answer is precomputed at construction.
func (a *Array) Participates() bool { return a.participates }

// ownsStoreIndex reports whether the calling processor owns global index i
// of store dim sd (Star dims are owned by everyone).
func (st *store) ownsStoreIndex(sd, i int) bool {
	ax := st.root.axisOf[sd]
	if ax < 0 {
		return true
	}
	return st.ownerOf(sd, i) == st.coord(ax)
}

// storeDim maps a free (view) dimension index to the underlying store dim.
func (a *Array) storeDim(d int) int {
	if uint(d) < uint(len(a.acc)) {
		return int(a.acc[d].sd)
	}
	seen := 0
	for sd, f := range a.pfix {
		if f < 0 {
			if seen == d {
				return sd
			}
			seen++
		}
	}
	panic(fmt.Sprintf("darray: dimension %d out of %d", d, seen))
}

// Lower returns the first global index of free dimension d owned by the
// calling processor — the paper's lower intrinsic. For Star dimensions it
// returns 0. Only meaningful for Block and Star distributions.
func (a *Array) Lower(d int) int {
	a.mustParticipate()
	return a.st.lower(a.storeDim(d))
}

// Upper returns the last global index of free dimension d owned by the
// calling processor — the paper's upper intrinsic. For Star dimensions it
// returns the extent minus one. When the processor owns no elements,
// Upper(d) == Lower(d)-1.
func (a *Array) Upper(d int) int {
	a.mustParticipate()
	sd := a.storeDim(d)
	return a.st.lower(sd) + a.lsize[sd] - 1
}

// LocalSize returns the number of elements of free dimension d owned by the
// calling processor.
func (a *Array) LocalSize(d int) int {
	a.mustParticipate()
	return a.lsize[a.storeDim(d)]
}

// OwnerIndex returns, for free dimension d, the grid coordinate (along the
// dimension's grid axis) of the processor owning global index i. It panics
// for Star dimensions, which have no owner.
func (a *Array) OwnerIndex(d, i int) int {
	sd := a.storeDim(d)
	if a.axisOf[sd] < 0 {
		panic("darray: OwnerIndex on an undistributed (*) dimension")
	}
	return a.st.ownerOf(sd, i)
}

// Owns reports whether the calling processor owns the element at the given
// global index (of the free dimensions).
func (a *Array) Owns(idx ...int) bool {
	if !a.Participates() {
		return false
	}
	if len(idx) != a.Dims() {
		panic(fmt.Sprintf("darray: Owns got %d indices for %d dims", len(idx), a.Dims()))
	}
	k := 0
	for sd, f := range a.pfix {
		if f >= 0 {
			continue
		}
		if idx[k] < 0 || idx[k] >= a.extents[sd] {
			return false // out-of-extent indices are owned by nobody
		}
		if !a.st.ownsStoreIndex(sd, idx[k]) {
			return false
		}
		k++
	}
	return true
}

func (a *Array) mustParticipate() {
	if !a.Participates() {
		panic("darray: processor does not participate in this array/section")
	}
}

// offset computes the position in st.data of the element at the given
// global index of the free dims, allowing halo offsets of up to halo[d] on
// block dims. It panics when the element is neither owned nor in the halo.
func (a *Array) offset(idx []int) int {
	st := a.st
	off := 0
	k := 0
	for sd, f := range a.pfix {
		g := f
		if f < 0 {
			g = idx[k]
			k++
		}
		if g < 0 || g >= a.extents[sd] {
			panic(fmt.Sprintf("darray: index %d out of extent %d (dim %d)", g, a.extents[sd], sd))
		}
		var l int
		if a.axisOf[sd] < 0 {
			l = g
		} else if _, isContig := a.dists[sd].(dist.Contiguous); isContig {
			l = g - st.lower(sd)
			if l < -a.halo[sd] || l >= a.lsize[sd]+a.halo[sd] {
				panic(fmt.Sprintf("darray: proc %d cannot access global index %d of dim %d (owns [%d,%d], halo %d)",
					st.p.Rank(), g, sd, st.lower(sd), st.lower(sd)+a.lsize[sd]-1, a.halo[sd]))
			}
		} else {
			q := st.coord(a.axisOf[sd])
			P := st.rootGrid().Extent(a.axisOf[sd])
			if a.dists[sd].Owner(g, a.extents[sd], P) != q {
				panic(fmt.Sprintf("darray: proc %d does not own global index %d of %s dim %d",
					st.p.Rank(), g, a.dists[sd].Name(), sd))
			}
			l = a.dists[sd].ToLocal(g, a.extents[sd], P)
		}
		off += (l + a.halo[sd]) * a.stride[sd]
	}
	return off
}

// At returns the element at the given global index. The element must be
// owned by the calling processor or lie within its halo region (after an
// ExchangeHalo that covered it).
func (a *Array) At(idx ...int) float64 {
	a.mustParticipate()
	return a.st.data[a.offset(idx)]
}

// Set stores v at the given global index, which must be owned by the
// calling processor (writes into halo cells are rejected: ghost values are
// read-only copies).
func (a *Array) Set(v float64, idx ...int) {
	a.mustParticipate()
	st := a.st
	k := 0
	for sd, f := range a.pfix {
		g := f
		if f < 0 {
			g = idx[k]
			k++
		}
		if !st.ownsStoreIndex(sd, g) {
			panic(fmt.Sprintf("darray: proc %d writing unowned index %d of dim %d", st.p.Rank(), g, sd))
		}
	}
	st.data[a.offset(idx)] = v
}

// At1, At2, At3 are the arity-specific forms of At, and the whole cost of an
// element read in a doall body: each index is tested against its
// dimension's read window and the offset formed inline from the cached
// access data — no variadic slice, no scan of the section's fixed dims, no
// call per dimension. An index outside its window (or any index of a cyclic
// dimension) takes the per-dimension path through roff, in index order, so
// what panics and what it says do not depend on which path found it.
func (a *Array) At1(i int) float64 {
	if vc := a.viewClass; len(vc.acc) == 1 {
		x, st := &vc.acc[0], a.st
		if l := i - a.lo[0]; uint(l-x.rlo) < uint(x.rspan) {
			return st.data[vc.fixedOff+(l+x.base)*x.stride]
		}
		return st.data[vc.fixedOff+a.roff(0, i)]
	}
	return a.At(i)
}

func (a *Array) At2(i, j int) float64 {
	if vc := a.viewClass; len(vc.acc) == 2 {
		x, y, st, lo := &vc.acc[0], &vc.acc[1], a.st, &a.lo
		li, lj := i-lo[0], j-lo[1]
		if uint(li-x.rlo) < uint(x.rspan) && uint(lj-y.rlo) < uint(y.rspan) {
			return st.data[vc.fixedOff+(li+x.base)*x.stride+(lj+y.base)*y.stride]
		}
		return st.data[vc.fixedOff+a.roff(0, i)+a.roff(1, j)]
	}
	return a.At(i, j)
}

func (a *Array) At3(i, j, k int) float64 {
	if vc := a.viewClass; len(vc.acc) == 3 {
		x, y, z, st, lo := &vc.acc[0], &vc.acc[1], &vc.acc[2], a.st, &a.lo
		li, lj, lk := i-lo[0], j-lo[1], k-lo[2]
		if uint(li-x.rlo) < uint(x.rspan) && uint(lj-y.rlo) < uint(y.rspan) && uint(lk-z.rlo) < uint(z.rspan) {
			return st.data[vc.fixedOff+(li+x.base)*x.stride+(lj+y.base)*y.stride+(lk+z.base)*z.stride]
		}
		return st.data[vc.fixedOff+a.roff(0, i)+a.roff(1, j)+a.roff(2, k)]
	}
	return a.At(i, j, k)
}

// Set1, Set2, Set3 are the arity-specific forms of Set: At1-3 with the write
// window, and woff behind it.
func (a *Array) Set1(i int, v float64) {
	if vc := a.viewClass; len(vc.acc) == 1 {
		x, st := &vc.acc[0], a.st
		if l := i - a.lo[0]; uint(l) < uint(x.wspan) {
			st.data[vc.fixedOff+(l+x.base)*x.stride] = v
			return
		}
		st.data[vc.fixedOff+a.woff(0, i)] = v
		return
	}
	a.Set(v, i)
}

func (a *Array) Set2(i, j int, v float64) {
	if vc := a.viewClass; len(vc.acc) == 2 {
		x, y, st, lo := &vc.acc[0], &vc.acc[1], a.st, &a.lo
		li, lj := i-lo[0], j-lo[1]
		if uint(li) < uint(x.wspan) && uint(lj) < uint(y.wspan) {
			st.data[vc.fixedOff+(li+x.base)*x.stride+(lj+y.base)*y.stride] = v
			return
		}
		st.data[vc.fixedOff+a.woff(0, i)+a.woff(1, j)] = v
		return
	}
	a.Set(v, i, j)
}

func (a *Array) Set3(i, j, k int, v float64) {
	if vc := a.viewClass; len(vc.acc) == 3 {
		x, y, z, st, lo := &vc.acc[0], &vc.acc[1], &vc.acc[2], a.st, &a.lo
		li, lj, lk := i-lo[0], j-lo[1], k-lo[2]
		if uint(li) < uint(x.wspan) && uint(lj) < uint(y.wspan) && uint(lk) < uint(z.wspan) {
			st.data[vc.fixedOff+(li+x.base)*x.stride+(lj+y.base)*y.stride+(lk+z.base)*z.stride] = v
			return
		}
		st.data[vc.fixedOff+a.woff(0, i)+a.woff(1, j)+a.woff(2, k)] = v
		return
	}
	a.Set(v, i, j, k)
}

// Section fixes free dimension d at global index i, returning a lower
// dimensional section of the array — the paper's u(*, *, k) notation. If
// dimension d is distributed, the section's grid is the slice of the
// current grid through the owner of i, and only processors on that slice
// participate. The section shares storage with its parent.
//
// Sections are memoized: repeated Section(d, i) calls return the same view,
// so a section's compiled communication schedules survive across loop
// iterations and a steady-state Section call allocates nothing.
func (a *Array) Section(d, i int) *Array {
	sd := a.storeDim(d)
	a.checkSectionIndex(sd, i)
	key := sectionKey{d: sd, i: i}
	m := a.memo()
	if sec, ok := m.secs[key]; ok {
		return sec
	}
	sec := a.buildSection(sd, i)
	if m.secs == nil {
		// A view sectioned along a dimension is mostly sectioned at each
		// index it owns there (ADI's lines): room for them at once.
		hint := 0
		if a.participates {
			hint = a.lsize[sd]
		}
		m.secs = make(map[sectionKey]*Array, hint)
	}
	m.secs[key] = sec
	return sec
}

func (a *Array) checkSectionIndex(sd, i int) {
	if i < 0 || i >= a.extents[sd] {
		panic(fmt.Sprintf("darray: section index %d out of extent %d", i, a.extents[sd]))
	}
}

// SectionGrid returns Section(d, i).Grid() — the pointer-identical grid,
// the one Grid.SliceThrough keeps for every processor — without building
// a view at all. On-clause resolution uses it (and OwnerGrid, and
// SectionParticipates) so that neither compiling a doall header nor
// running the generic per-iteration path retains, or even allocates, a
// section view: a view is retained only when a program calls Section.
func (a *Array) SectionGrid(d, i int) *topology.Grid {
	sd := a.storeDim(d)
	a.checkSectionIndex(sd, i)
	ax := a.axisOf[sd]
	if ax < 0 {
		return a.grid
	}
	return a.grid.SliceThrough(a.gridPos(ax), a.st.ownerOf(sd, i))
}

// SectionParticipates returns Section(d, i).Participates(), again without
// a view: a processor holding part of a holds part of the section exactly
// when it owns i along d's grid axis (everyone does on a Star dimension).
func (a *Array) SectionParticipates(d, i int) bool {
	sd := a.storeDim(d)
	a.checkSectionIndex(sd, i)
	return a.participates && a.st.ownsStoreIndex(sd, i)
}

// OwnerGrid returns the iteration grid of the element (or leading-index
// section chain) at idx — Section(0, idx[0]).Section(0, idx[1])...Grid() —
// by walking the free dimensions and slicing the grid through each owner
// directly; like SectionGrid it builds no view and, once the grids hold
// the slices, allocates nothing.
func (a *Array) OwnerGrid(idx ...int) *topology.Grid {
	st := a.st
	g := a.grid
	sliced := 0 // grid axes this walk has fixed, each below the next one's
	sd := -1
	for _, i := range idx {
		// Section(0, i) fixes the first dimension that is still free.
		for sd++; sd < len(a.pfix) && a.pfix[sd] >= 0; sd++ {
		}
		if sd == len(a.pfix) {
			panic("darray: dimension 0 out of 0") // storeDim(0)'s message on a fully fixed view
		}
		a.checkSectionIndex(sd, i)
		ax := a.axisOf[sd]
		if ax < 0 {
			continue
		}
		g = g.SliceThrough(a.gridPos(ax)-sliced, st.ownerOf(sd, i))
		sliced++
	}
	return g
}

// ownerOf returns the coordinate, along store dim sd's grid axis, of the
// processor owning global index i (sd must be distributed).
func (st *store) ownerOf(sd, i int) int {
	lay := st.root.layout
	return lay.dists[sd].Owner(i, lay.extents[sd], st.rootGrid().Extent(lay.axisOf[sd]))
}

// gridPos returns the position of root-grid axis ax among the axes the
// view's grid still has: the grid keeps the axes of the free distributed
// dimensions, in store-dimension order, which is axis order.
func (a *Array) gridPos(ax int) int {
	pos := 0
	for sd, f := range a.pfix {
		if f < 0 && a.axisOf[sd] >= 0 && a.axisOf[sd] < ax {
			pos++
		}
	}
	return pos
}

// buildSection constructs the section view fixing store dim sd at i, carved
// from the parent's arena.
func (a *Array) buildSection(sd, i int) *Array {
	sv := a.newSection()
	sec := &sv.Array
	sec.st = a.st
	sec.grid = a.grid
	var pfixBuf [maxInlineDims]int
	pfix := append(pfixBuf[:0], a.pfix...)
	pfix[sd] = i
	if ax := a.axisOf[sd]; ax >= 0 {
		// Slice the current grid through the owner of i along ax.
		sec.grid = a.grid.SliceThrough(a.gridPos(ax), a.st.ownerOf(sd, i))
	}
	sec.participates = sv.cls.fillSection(a.st, pfix)
	sec.viewClass = &sv.cls
	for k := range sv.cls.acc[:min(len(sv.cls.acc), maxInlineAcc)] {
		sec.lo[k] = a.st.lower(int(sv.cls.acc[k].sd))
	}
	return sec
}

// String describes the array for diagnostics.
func (a *Array) String() string {
	s := "darray("
	for d := 0; d < a.Dims(); d++ {
		if d > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d:%s", a.Extent(d), a.Dist(d).Name())
	}
	return s + ") on " + a.grid.String()
}
