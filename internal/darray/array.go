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
// same way a compiled KF1 program would materialize one per node). What is
// its own is small: its grid coordinate, where its block starts, its local
// block padded with halo (ghost) cells for block-distributed dimensions,
// the snapshot of that block, and its views' walk scratch. What it derives
// from the declaration alone, it shares with every processor that derives
// it alike: the layout (extents, distributions, halo widths, the block's
// shape), the compiled halo exchanges (runs into the local block, peers as
// rank offsets) and the gathers' pack runs are interned per machine by
// content (machine.Intern), and grid slices are kept on their parent grid. In a block distribution these depend on a
// processor's position class — first, interior or last along each axis, 9
// classes in 2-D — not on its coordinates, so a machine holds a number of
// them that does not grow with the processor count.
//
// Sharing cannot change a bit. An interned descriptor's key is its whole
// content, so the object a processor gets is, value for value, the one it
// compiled; nothing writes it once it is published; and replay reads it as
// it would read a private copy — the same messages, in the same order, of
// the same sizes. TestClassCensus counts the shared objects at three grid
// sizes and holds their replay to the direct derivation.
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
// member, the shape of its local block. It holds no coordinate, so the
// ranks whose blocks have equal extents share one layout per machine (see
// internLayout): in a block distribution, one per (first / interior /
// last)^d class. It is read-only once built.
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

// store is one processor's piece of a root array: the shared layout,
// whose fields it promotes, and what only this processor has — its grid
// coordinate, where its block starts, and the block itself.
type store struct {
	*layout
	p        *machine.Proc
	rootGrid *topology.Grid
	member   bool
	snapOn   bool  // whether a snapshot is currently active
	coord    []int // p's coordinate in rootGrid (nil if not a member)
	lower    []int // first owned global index per dim (Block); 0 for Star
	data     []float64
	shadow   []float64 // copy-in snapshot buffer, kept across snapshots

	own [6]int // inline backing of coord and lower, up to a 3-D array on a 3-D grid
}

// Array is a distributed array or a section of one. The zero value is not
// useful; construct root arrays with New and sections with Section.
//
// An Array is an immutable view private to one simulated processor; the
// caches below memoize derived views and compiled communication schedules
// so iterative programs pay for derivation once, not per loop pass. Only
// Section derives (and keeps) a view; the queries an on-clause needs —
// OwnerGrid, SectionGrid, SectionParticipates — are index arithmetic and
// build none.
type Array struct {
	st   *store
	grid *topology.Grid // grid of this array/section
	pfix []int          // per store dim: fixed global index, or -1 if free

	// View cache, filled by finishView: Arrays are immutable views, so
	// participation and the per-free-dimension index arithmetic are
	// computed once at construction instead of on every element access.
	participates bool
	fixedOff     int          // data offset contributed by the fixed dims
	acc          []axisAccess // one entry per free dimension, in order

	// Inline backing for the small per-view slices: with at most
	// maxInlineDims store dimensions (maxInlineAcc of them free) a Section
	// costs one allocation (the Array itself) instead of one per slice.
	pfixBuf [maxInlineDims]int
	accBuf  [maxInlineAcc]axisAccess

	// Per-view memoization (no locks needed: a view belongs to one
	// simulated processor's goroutine): the compiled halo exchanges and
	// gathers — one or two — and, for the views that section or
	// redistribute, the rest.
	plans []viewPlan
	more  *viewMemo

	// Owned-walk scratch, reused by every OwnedEach/OwnedRuns/FillOwned on
	// this view (a view of more than maxInlineDims free dimensions
	// allocates its own per walk). A walk's visitor must not start another
	// owned walk on the same view.
	walkIdx, walkLoc [maxInlineDims]int
}

// viewMemo is what a view memoizes beyond its plans, allocated by the
// first Section or layoutSig call: most views never make either.
type viewMemo struct {
	secs map[sectionKey]*Array // Section views by (dim, index)
	sig  string                // layout signature (see layoutSig)

	// secArena chunk-allocates the Array structs of this view's sections:
	// chunks hold 1, 2, 4, then secChunk views, so a view sectioned once
	// pays for one section and one sectioned along a whole dimension for
	// ~n/secChunk allocations. Chunks are never grown in place — cached
	// section pointers must stay valid — so a full chunk is simply
	// replaced by a fresh one.
	secArena []Array
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

// walkScratch returns the owned-walk index and position scratch for nfree
// free dimensions.
func (a *Array) walkScratch(nfree int) (idx, loc []int) {
	if nfree <= maxInlineDims {
		return a.walkIdx[:nfree], a.walkLoc[:nfree]
	}
	return make([]int, nfree), make([]int, nfree)
}

// newSection carves one Array out of the view's section arena.
func (a *Array) newSection() *Array {
	m := a.memo()
	if len(m.secArena) == cap(m.secArena) {
		m.secArena = make([]Array, 0, min(max(2*cap(m.secArena), 1), secChunk))
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
// interface call, no slice walk and no further function call.
//
// The arity accessors (At1-3, Old1-3, Set1-3) use the first group only. A
// read is legal inside the read window [rlo, rlo+rspan) — the owned range
// widened by the halo and clipped to the extent — a write inside the write
// window [lower, lower+wspan) — the owned range — and either way the cell is
// (g+base)*stride from the view's fixedOff, base = halo - lower turning a
// global index into a position in the padded local block. A Star dimension
// is both windows = [0, extent) with base 0. A general (cyclic) dimension
// has two empty windows: ownership there is a question for the
// distribution, which roff and woff ask; they are also where an index
// outside its window goes to have its panic worded.
//
// The second group is what roff, woff, globalOf and the owned walks read:
// the dimension's kind, its store dimension, through which they reach the
// shared layout (extent, halo, owned extent), and for a general dimension
// the arguments its distribution is asked with. Every view holds
// maxInlineAcc of these inline, so a field here is paid for three times
// per view whether or not any dimension is general.
type axisAccess struct {
	rlo, rspan int // read window
	wspan      int // write window length; it starts at lower
	base       int
	stride     int
	lower      int // first owned global index (axContig); 0 otherwise

	sd   int32 // store dimension
	kind uint8
	q, P int // grid coordinate and axis length (axGeneral)
}

// finishView fills the view cache; every constructor of an Array must call
// it last.
func (a *Array) finishView() {
	st := a.st
	a.participates = a.computeParticipates()
	a.fixedOff = 0
	a.acc = nil
	if !a.participates {
		return
	}
	nfree := 0
	for _, f := range a.pfix {
		if f < 0 {
			nfree++
		}
	}
	if nfree <= maxInlineAcc {
		a.acc = a.accBuf[:0]
	} else {
		a.acc = make([]axisAccess, 0, nfree)
	}
	for sd, f := range a.pfix {
		if f >= 0 {
			a.fixedOff += st.localPos(sd, f) * st.stride[sd]
			continue
		}
		ax := axisAccess{sd: int32(sd), stride: st.stride[sd]}
		switch {
		case st.axisOf[sd] < 0:
			ax.kind = axStar
		default:
			if _, ok := st.dists[sd].(dist.Contiguous); ok {
				ax.kind = axContig
				ax.lower = st.lower[sd]
			} else {
				ax.kind = axGeneral
				ax.q = st.coord[st.axisOf[sd]]
				ax.P = st.rootGrid.Extent(st.axisOf[sd])
			}
		}
		if ax.kind != axGeneral {
			// Star: lower 0, lsize = extent, halo 0.
			h, n, extent := st.halo[sd], st.lsize[sd], st.extents[sd]
			ax.base = h - ax.lower
			ax.rlo = max(ax.lower-h, 0)
			ax.rspan = max(min(ax.lower+n+h, extent)-ax.rlo, 0)
			ax.wspan = max(min(ax.lower+n, extent)-ax.lower, 0)
		}
		a.acc = append(a.acc, ax)
	}
}

// globalOf returns the global index of the l-th owned element along free
// dimension k.
func (a *Array) globalOf(k, l int) int {
	switch ax := &a.acc[k]; ax.kind {
	case axStar:
		return l
	case axContig:
		return ax.lower + l
	default:
		return a.st.dists[ax.sd].ToGlobal(l, ax.q, a.st.extents[ax.sd], ax.P)
	}
}

// roff returns the storage offset contribution of global index g along free
// dimension k for a read: owned cells and halo cells are legal.
func (a *Array) roff(k, g int) int {
	ax := &a.acc[k]
	if ax.kind == axGeneral {
		// A general dimension has no halo.
		extent := a.st.extents[ax.sd]
		if g < 0 || g >= extent {
			panic(fmt.Sprintf("darray: index %d out of extent %d (dim %d)", g, extent, ax.sd))
		}
		d := a.st.dists[ax.sd]
		if d.Owner(g, extent, ax.P) != ax.q {
			panic(fmt.Sprintf("darray: proc %d does not own global index %d of %s dim %d",
				a.st.p.Rank(), g, d.Name(), ax.sd))
		}
		return d.ToLocal(g, extent, ax.P) * ax.stride
	}
	if ax.kind == axStar && uint(g) < uint(ax.rspan) { // a Star window is the extent
		return g * ax.stride
	}
	st, sd := a.st, int(ax.sd)
	if g < 0 || g >= st.extents[sd] {
		panic(fmt.Sprintf("darray: index %d out of extent %d (dim %d)", g, st.extents[sd], sd))
	}
	h, n := st.halo[sd], st.lsize[sd]
	l := g - ax.lower
	if l < -h || l >= n+h {
		panic(fmt.Sprintf("darray: proc %d cannot access global index %d of dim %d (owns [%d,%d], halo %d)",
			st.p.Rank(), g, sd, ax.lower, ax.lower+n-1, h))
	}
	return (l + h) * ax.stride
}

// woff is roff for writes: only owned cells are legal (ghost values are
// read-only copies).
func (a *Array) woff(k, g int) int {
	ax := &a.acc[k]
	if ax.kind == axContig {
		if uint(g-ax.lower) >= uint(ax.wspan) {
			panic(fmt.Sprintf("darray: proc %d writing unowned index %d of dim %d", a.st.p.Rank(), g, ax.sd))
		}
		return (g + ax.base) * ax.stride
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
	st := &store{p: p, rootGrid: g}
	own := st.own[:]
	if gd := g.Dims(); gd+nd > len(own) {
		own = make([]int, gd+nd)
	}
	coord := own[:g.Dims():g.Dims()]
	if st.member = g.CoordInto(p.Rank(), coord); st.member {
		st.coord = coord
		st.lower = own[g.Dims() : g.Dims()+nd : g.Dims()+nd]
		for d := 0; d < nd; d++ {
			n := spec.Extents[d]
			if axisOf[d] < 0 {
				lsize[d] = n
				continue
			}
			q, P := coord[axisOf[d]], g.Extent(axisOf[d])
			lsize[d] = spec.Dists[d].Size(q, n, P)
			if b, ok := spec.Dists[d].(dist.Contiguous); ok {
				st.lower[d] = b.Lower(q, n, P)
			}
		}
	} else {
		lsize = nil
	}
	st.layout = internLayout(p.Machine(), spec.Extents, spec.Dists, halo, axisOf, lsize)
	if st.member {
		st.data = make([]float64, st.stride[0]*st.pad[0])
	}
	a := &Array{st: st, grid: g}
	if nd <= maxInlineDims {
		a.pfix = a.pfixBuf[:nd]
	} else {
		a.pfix = make([]int, nd)
	}
	for d := range a.pfix {
		a.pfix[d] = -1
	}
	a.finishView()
	return a
}

// internLayout returns machine m's one layout with this content (see
// machine.Intern); lsize is nil for a processor outside the grid. Two
// layouts are equal exactly when their keys are, so a rank shares one only
// with ranks that would have computed it identically.
func internLayout(m *machine.Machine, extents []int, dists []dist.Dist, halo, axisOf, lsize []int) *layout {
	var buf [128]byte
	key := binary.AppendUvarint(append(buf[:0], 'L'), uint64(len(extents)))
	key = binary.AppendUvarint(key, uint64(len(lsize)))
	for d := range extents {
		key = binary.AppendUvarint(key, uint64(extents[d]))
		key = binary.AppendUvarint(key, uint64(halo[d]))
		key = binary.AppendVarint(key, int64(axisOf[d]))
		key = appendDist(key, dists[d])
		if lsize != nil {
			key = binary.AppendUvarint(key, uint64(lsize[d]))
		}
	}
	return machine.Intern(m, key, func() *layout { return newLayout(extents, dists, halo, axisOf, lsize) })
}

// appendDist encodes a distribution for a layout key: the bundled patterns
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

// newLayout builds a layout from its content, the per-dimension ints in
// one backing array.
func newLayout(extents []int, dists []dist.Dist, halo, axisOf, lsize []int) *layout {
	nd := len(extents)
	k := 3
	if lsize != nil {
		k = 6
	}
	ints := make([]int, k*nd)
	lay := &layout{
		extents: ints[0*nd : 1*nd : 1*nd],
		dists:   append([]dist.Dist(nil), dists...),
		halo:    ints[1*nd : 2*nd : 2*nd],
		axisOf:  ints[2*nd : 3*nd : 3*nd],
	}
	copy(lay.extents, extents)
	copy(lay.halo, halo)
	copy(lay.axisOf, axisOf)
	if lsize == nil {
		return lay
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
	return lay
}

// Dims returns the number of (free) dimensions of the array or section.
func (a *Array) Dims() int {
	n := 0
	for _, f := range a.pfix {
		if f < 0 {
			n++
		}
	}
	return n
}

// Extent returns the global extent of free dimension d.
func (a *Array) Extent(d int) int { return a.st.extents[a.storeDim(d)] }

// Dist returns the distribution of free dimension d.
func (a *Array) Dist(d int) dist.Dist { return a.st.dists[a.storeDim(d)] }

// Grid returns the processor grid the array (or section) lives on.
func (a *Array) Grid() *topology.Grid { return a.grid }

// Proc returns the processor this descriptor belongs to.
func (a *Array) Proc() *machine.Proc { return a.st.p }

// Participates reports whether the calling processor holds a piece of this
// array (or section): it is a member of the array's grid and, for a section,
// owns the fixed indices. The answer is precomputed at construction.
func (a *Array) Participates() bool { return a.participates }

func (a *Array) computeParticipates() bool {
	if !a.st.member {
		return false
	}
	for sd, f := range a.pfix {
		if f < 0 {
			continue
		}
		if !a.st.ownsStoreIndex(sd, f) {
			return false
		}
	}
	return true
}

// ownsStoreIndex reports whether the calling processor owns global index i
// of store dim sd (Star dims are owned by everyone).
func (st *store) ownsStoreIndex(sd, i int) bool {
	if st.axisOf[sd] < 0 {
		return true
	}
	return st.ownerOf(sd, i) == st.coord[st.axisOf[sd]]
}

// storeDim maps a free (view) dimension index to the underlying store dim.
func (a *Array) storeDim(d int) int {
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
	return a.st.lower[a.storeDim(d)]
}

// Upper returns the last global index of free dimension d owned by the
// calling processor — the paper's upper intrinsic. For Star dimensions it
// returns the extent minus one. When the processor owns no elements,
// Upper(d) == Lower(d)-1.
func (a *Array) Upper(d int) int {
	a.mustParticipate()
	sd := a.storeDim(d)
	return a.st.lower[sd] + a.st.lsize[sd] - 1
}

// LocalSize returns the number of elements of free dimension d owned by the
// calling processor.
func (a *Array) LocalSize(d int) int {
	a.mustParticipate()
	return a.st.lsize[a.storeDim(d)]
}

// OwnerIndex returns, for free dimension d, the grid coordinate (along the
// dimension's grid axis) of the processor owning global index i. It panics
// for Star dimensions, which have no owner.
func (a *Array) OwnerIndex(d, i int) int {
	sd := a.storeDim(d)
	if a.st.axisOf[sd] < 0 {
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
		if idx[k] < 0 || idx[k] >= a.st.extents[sd] {
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
		if g < 0 || g >= st.extents[sd] {
			panic(fmt.Sprintf("darray: index %d out of extent %d (dim %d)", g, st.extents[sd], sd))
		}
		var l int
		if st.axisOf[sd] < 0 {
			l = g
		} else if _, isContig := st.dists[sd].(dist.Contiguous); isContig {
			l = g - st.lower[sd]
			if l < -st.halo[sd] || l >= st.lsize[sd]+st.halo[sd] {
				panic(fmt.Sprintf("darray: proc %d cannot access global index %d of dim %d (owns [%d,%d], halo %d)",
					st.p.Rank(), g, sd, st.lower[sd], st.lower[sd]+st.lsize[sd]-1, st.halo[sd]))
			}
		} else {
			q := st.coord[st.axisOf[sd]]
			P := st.rootGrid.Extent(st.axisOf[sd])
			if st.dists[sd].Owner(g, st.extents[sd], P) != q {
				panic(fmt.Sprintf("darray: proc %d does not own global index %d of %s dim %d",
					st.p.Rank(), g, st.dists[sd].Name(), sd))
			}
			l = st.dists[sd].ToLocal(g, st.extents[sd], P)
		}
		off += (l + st.halo[sd]) * st.stride[sd]
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
	if len(a.acc) == 1 {
		x := &a.acc[0]
		if uint(i-x.rlo) < uint(x.rspan) {
			return a.st.data[a.fixedOff+(i+x.base)*x.stride]
		}
		return a.st.data[a.fixedOff+a.roff(0, i)]
	}
	return a.At(i)
}

func (a *Array) At2(i, j int) float64 {
	if len(a.acc) == 2 {
		x, y := &a.acc[0], &a.acc[1]
		if uint(i-x.rlo) < uint(x.rspan) && uint(j-y.rlo) < uint(y.rspan) {
			return a.st.data[a.fixedOff+(i+x.base)*x.stride+(j+y.base)*y.stride]
		}
		return a.st.data[a.fixedOff+a.roff(0, i)+a.roff(1, j)]
	}
	return a.At(i, j)
}

func (a *Array) At3(i, j, k int) float64 {
	if len(a.acc) == 3 {
		x, y, z := &a.acc[0], &a.acc[1], &a.acc[2]
		if uint(i-x.rlo) < uint(x.rspan) && uint(j-y.rlo) < uint(y.rspan) && uint(k-z.rlo) < uint(z.rspan) {
			return a.st.data[a.fixedOff+(i+x.base)*x.stride+(j+y.base)*y.stride+(k+z.base)*z.stride]
		}
		return a.st.data[a.fixedOff+a.roff(0, i)+a.roff(1, j)+a.roff(2, k)]
	}
	return a.At(i, j, k)
}

// Set1, Set2, Set3 are the arity-specific forms of Set: At1-3 with the write
// window, and woff behind it.
func (a *Array) Set1(i int, v float64) {
	if len(a.acc) == 1 {
		x := &a.acc[0]
		if uint(i-x.lower) < uint(x.wspan) {
			a.st.data[a.fixedOff+(i+x.base)*x.stride] = v
			return
		}
		a.st.data[a.fixedOff+a.woff(0, i)] = v
		return
	}
	a.Set(v, i)
}

func (a *Array) Set2(i, j int, v float64) {
	if len(a.acc) == 2 {
		x, y := &a.acc[0], &a.acc[1]
		if uint(i-x.lower) < uint(x.wspan) && uint(j-y.lower) < uint(y.wspan) {
			a.st.data[a.fixedOff+(i+x.base)*x.stride+(j+y.base)*y.stride] = v
			return
		}
		a.st.data[a.fixedOff+a.woff(0, i)+a.woff(1, j)] = v
		return
	}
	a.Set(v, i, j)
}

func (a *Array) Set3(i, j, k int, v float64) {
	if len(a.acc) == 3 {
		x, y, z := &a.acc[0], &a.acc[1], &a.acc[2]
		if uint(i-x.lower) < uint(x.wspan) && uint(j-y.lower) < uint(y.wspan) && uint(k-z.lower) < uint(z.wspan) {
			a.st.data[a.fixedOff+(i+x.base)*x.stride+(j+y.base)*y.stride+(k+z.base)*z.stride] = v
			return
		}
		a.st.data[a.fixedOff+a.woff(0, i)+a.woff(1, j)+a.woff(2, k)] = v
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
		m.secs = make(map[sectionKey]*Array)
	}
	m.secs[key] = sec
	return sec
}

func (a *Array) checkSectionIndex(sd, i int) {
	if i < 0 || i >= a.st.extents[sd] {
		panic(fmt.Sprintf("darray: section index %d out of extent %d", i, a.st.extents[sd]))
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
	ax := a.st.axisOf[sd]
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
		ax := st.axisOf[sd]
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
	return st.dists[sd].Owner(i, st.extents[sd], st.rootGrid.Extent(st.axisOf[sd]))
}

// gridPos returns the position of root-grid axis ax among the axes the
// view's grid still has: the grid keeps the axes of the free distributed
// dimensions, in store-dimension order, which is axis order.
func (a *Array) gridPos(ax int) int {
	pos := 0
	for sd, f := range a.pfix {
		if f < 0 && a.st.axisOf[sd] >= 0 && a.st.axisOf[sd] < ax {
			pos++
		}
	}
	return pos
}

// buildSection constructs the section view fixing store dim sd at i, carved
// from the parent's arena.
func (a *Array) buildSection(sd, i int) *Array {
	sec := a.newSection()
	sec.st = a.st
	sec.grid = a.grid
	if nd := len(a.pfix); nd <= maxInlineDims {
		sec.pfix = sec.pfixBuf[:nd]
	} else {
		sec.pfix = make([]int, nd)
	}
	copy(sec.pfix, a.pfix)
	sec.pfix[sd] = i
	if ax := a.st.axisOf[sd]; ax >= 0 {
		// Slice the current grid through the owner of i along ax.
		sec.grid = a.grid.SliceThrough(a.gridPos(ax), a.st.ownerOf(sd, i))
	}
	sec.finishView()
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
