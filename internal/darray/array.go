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
// same way a compiled KF1 program would materialize one per node) holding
// only that processor's local block, padded with halo (ghost) cells for
// block-distributed dimensions. Remote values move only through explicit
// collectives (ExchangeHalo, GatherTo, Redistribute, ...), each of which is
// built on simulated message passing and therefore fully accounted in
// virtual time.
//
// Sections of an array — the paper's u(*, *, k) — are taken with Section,
// which fixes one dimension and binds the result to the matching slice of
// the processor grid; sections of sections compose, which is what lets the
// 3-D multigrid solver hand planes to the 2-D solver and the 2-D solver hand
// lines to a sequential kernel.
package darray

import (
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

// store holds the per-processor storage and layout of a root array.
type store struct {
	p        *machine.Proc
	rootGrid *topology.Grid
	extents  []int
	dists    []dist.Dist
	halo     []int
	axisOf   []int // store dim -> root grid axis, -1 for Star dims
	member   bool
	coord    []int // p's coordinate in rootGrid (nil if not a member)

	// Local block layout (valid only when member):
	lsize  []int // owned extent per dim
	lower  []int // first owned global index per dim (Block); 0 for Star
	pad    []int // lsize + 2*halo
	stride []int // row-major strides over pad
	data   []float64
	shadow []float64 // copy-in snapshot buffer, kept across snapshots
	snapOn bool      // whether a snapshot is currently active

	// Reusable per-store scratch for the halo-exchange hot path, so a
	// steady-state exchange performs no heap allocation. A store is
	// private to one simulated processor, so the scratch needs no lock.
	coordBuf          []int      // rankAlongAxis coordinate scratch
	runsBuf           []ghostRun // ghostRuns result scratch
	itLo, itHi, itIdx []int      // plane pack/unpack odometer scratch
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
	axes []int          // root-grid axes remaining in grid, in order

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
	axesBuf [maxInlineDims]int
	accBuf  [maxInlineAcc]axisAccess

	// Per-view memoization (no locks needed: a view belongs to one
	// simulated processor's goroutine):
	secs        map[sectionKey]*Array   // Section views by (dim, index)
	haloScheds  map[int]*sched.Schedule // compiled halo exchanges by dims key
	gatherPlans map[int]*gatherPlan     // compiled gathers by root index
	sig         string                  // memoized layout signature (see layoutSig)

	// Owned-walk scratch, bound on first use (to the inline buffers below
	// when the dimensionality fits) and reused by every subsequent
	// OwnedEach/OwnedRuns/FillOwned on this view. A walk's visitor must
	// not start another owned walk on the same view.
	walkIdx, walkLoc       []int
	walkIdxBuf, walkLocBuf [maxInlineDims]int

	// secArena chunk-allocates the Array structs of this view's sections:
	// chunks hold 1, 2, 4, then secChunk views, so a view sectioned once
	// pays for one section and one sectioned along a whole dimension for
	// ~n/secChunk allocations. Chunks are never grown in place — cached
	// section pointers must stay valid — so a full chunk is simply
	// replaced by a fresh one.
	secArena []Array
}

// secChunk is the most section views one arena chunk holds.
const secChunk = 8

// bindWalkScratch points the owned-walk scratch at the inline buffers (or
// heap slices for high-dimensional views); called on a view's first walk.
func (a *Array) bindWalkScratch(nfree int) {
	if nfree <= maxInlineDims {
		a.walkIdx = a.walkIdxBuf[:nfree]
		a.walkLoc = a.walkLocBuf[:nfree]
	} else {
		a.walkIdx = make([]int, nfree)
		a.walkLoc = make([]int, nfree)
	}
}

// newSection carves one Array out of the view's section arena.
func (a *Array) newSection() *Array {
	if len(a.secArena) == cap(a.secArena) {
		a.secArena = make([]Array, 0, min(max(2*cap(a.secArena), 1), secChunk))
	}
	a.secArena = a.secArena[:len(a.secArena)+1]
	return &a.secArena[len(a.secArena)-1]
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
// The second group is what roff, woff, globalOf and the owned walks read.
// An axGeneral dimension asks its distribution through the store rather
// than carrying it: every view holds maxInlineAcc of these inline, so a
// field here is paid for three times per view whether or not any dimension
// is general.
type axisAccess struct {
	rlo, rspan int // read window
	wspan      int // write window length; it starts at lower
	base       int
	stride     int
	lower      int // first owned global index (axContig); 0 otherwise

	kind   uint8
	sd     int32 // store dimension
	halo   int
	extent int
	lsize  int // owned extent
	q, P   int // grid coordinate and axis length (axGeneral)
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
		ax := axisAccess{
			sd:     int32(sd),
			stride: st.stride[sd],
			halo:   st.halo[sd],
			extent: st.extents[sd],
			lsize:  st.lsize[sd],
		}
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
			ax.base = ax.halo - ax.lower
			ax.rlo = max(ax.lower-ax.halo, 0)
			ax.rspan = max(min(ax.lower+ax.lsize+ax.halo, ax.extent)-ax.rlo, 0)
			ax.wspan = max(min(ax.lower+ax.lsize, ax.extent)-ax.lower, 0)
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
		return a.st.dists[ax.sd].ToGlobal(l, ax.q, ax.extent, ax.P)
	}
}

// roff returns the storage offset contribution of global index g along free
// dimension k for a read: owned cells and halo cells are legal.
func (a *Array) roff(k, g int) int {
	ax := &a.acc[k]
	if g < 0 || g >= ax.extent {
		panic(fmt.Sprintf("darray: index %d out of extent %d (dim %d)", g, ax.extent, ax.sd))
	}
	switch ax.kind {
	case axStar:
		return g * ax.stride
	case axContig:
		l := g - ax.lower
		if l < -ax.halo || l >= ax.lsize+ax.halo {
			panic(fmt.Sprintf("darray: proc %d cannot access global index %d of dim %d (owns [%d,%d], halo %d)",
				a.st.p.Rank(), g, ax.sd, ax.lower, ax.lower+ax.lsize-1, ax.halo))
		}
		return (l + ax.halo) * ax.stride
	default:
		d := a.st.dists[ax.sd]
		if d.Owner(g, ax.extent, ax.P) != ax.q {
			panic(fmt.Sprintf("darray: proc %d does not own global index %d of %s dim %d",
				a.st.p.Rank(), g, d.Name(), ax.sd))
		}
		return (d.ToLocal(g, ax.extent, ax.P) + ax.halo) * ax.stride
	}
}

// woff is roff for writes: only owned cells are legal (ghost values are
// read-only copies).
func (a *Array) woff(k, g int) int {
	ax := &a.acc[k]
	if ax.kind == axContig {
		l := g - ax.lower
		if g < 0 || g >= ax.extent || l < 0 || l >= ax.lsize {
			panic(fmt.Sprintf("darray: proc %d writing unowned index %d of dim %d", a.st.p.Rank(), g, ax.sd))
		}
		return (l + ax.halo) * ax.stride
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
	// One backing array for the store's three per-dimension int slices.
	hdr := make([]int, 3*nd)
	st := &store{
		p:        p,
		rootGrid: g,
		extents:  hdr[0*nd : 1*nd : 1*nd],
		dists:    append([]dist.Dist(nil), spec.Dists...),
		halo:     hdr[1*nd : 2*nd : 2*nd],
		axisOf:   hdr[2*nd : 3*nd : 3*nd],
	}
	copy(st.extents, spec.Extents)
	copy(st.halo, halo)
	axis := 0
	for d := 0; d < nd; d++ {
		if spec.Extents[d] <= 0 {
			panic(fmt.Sprintf("darray: extent %d of dim %d", spec.Extents[d], d))
		}
		if _, isStar := spec.Dists[d].(dist.Star); isStar {
			st.axisOf[d] = -1
			continue
		}
		if axis >= g.Dims() {
			panic(fmt.Sprintf("darray: more distributed dims than grid dims (%d)", g.Dims()))
		}
		st.axisOf[d] = axis
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
	coord, member := g.CoordOf(p.Rank())
	st.member = member
	st.coord = coord
	if member {
		st.allocate()
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
	if g.Dims() <= maxInlineDims {
		a.axes = a.axesBuf[:g.Dims()]
	} else {
		a.axes = make([]int, g.Dims())
	}
	for i := range a.axes {
		a.axes[i] = i
	}
	a.finishView()
	return a
}

// allocate computes the local block layout and allocates storage. The
// seven per-dimension layout/scratch slices share one backing array.
func (st *store) allocate() {
	nd := len(st.extents)
	lay := make([]int, 7*nd+len(st.coord))
	st.lsize = lay[0*nd : 1*nd : 1*nd]
	st.lower = lay[1*nd : 2*nd : 2*nd]
	st.pad = lay[2*nd : 3*nd : 3*nd]
	st.stride = lay[3*nd : 4*nd : 4*nd]
	st.itLo = lay[4*nd : 5*nd : 5*nd]
	st.itHi = lay[5*nd : 6*nd : 6*nd]
	st.itIdx = lay[6*nd : 7*nd : 7*nd]
	st.coordBuf = lay[7*nd:]
	total := 1
	for d := 0; d < nd; d++ {
		n := st.extents[d]
		if st.axisOf[d] < 0 {
			st.lsize[d] = n
			st.lower[d] = 0
		} else {
			q := st.coord[st.axisOf[d]]
			P := st.rootGrid.Extent(st.axisOf[d])
			st.lsize[d] = st.dists[d].Size(q, n, P)
			if b, ok := st.dists[d].(dist.Contiguous); ok {
				st.lower[d] = b.Lower(q, n, P)
			}
		}
		st.pad[d] = st.lsize[d] + 2*st.halo[d]
		total *= st.pad[d]
	}
	stride := 1
	for d := nd - 1; d >= 0; d-- {
		st.stride[d] = stride
		stride *= st.pad[d]
	}
	st.data = make([]float64, total)
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
	if sec, ok := a.secs[key]; ok {
		return sec
	}
	sec := a.buildSection(sd, i)
	if a.secs == nil {
		a.secs = make(map[sectionKey]*Array)
	}
	a.secs[key] = sec
	return sec
}

func (a *Array) checkSectionIndex(sd, i int) {
	if i < 0 || i >= a.st.extents[sd] {
		panic(fmt.Sprintf("darray: section index %d out of extent %d", i, a.st.extents[sd]))
	}
}

// SectionGrid returns Section(d, i).Grid() — the pointer-identical grid,
// out of the same bounded per-processor grid-slice cache — without building
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
	return a.st.gridSliceThrough(a.grid, axisPos(a.axes, ax), a.st.ownerOf(sd, i))
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
// directly; like SectionGrid it builds no view and, once the grid-slice
// cache holds the slices, allocates nothing.
func (a *Array) OwnerGrid(idx ...int) *topology.Grid {
	st := a.st
	var axesBuf [maxInlineDims]int
	axes := append(axesBuf[:0], a.axes...) // root-grid axes left in g
	g := a.grid
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
		pos := axisPos(axes, ax)
		g = st.gridSliceThrough(g, pos, st.ownerOf(sd, i))
		axes = append(axes[:pos], axes[pos+1:]...)
	}
	return g
}

// ownerOf returns the coordinate, along store dim sd's grid axis, of the
// processor owning global index i (sd must be distributed).
func (st *store) ownerOf(sd, i int) int {
	return st.dists[sd].Owner(i, st.extents[sd], st.rootGrid.Extent(st.axisOf[sd]))
}

// axisPos returns the position of root-grid axis ax among the axes a grid
// still has.
func axisPos(axes []int, ax int) int {
	for k, rootAx := range axes {
		if rootAx == ax {
			return k
		}
	}
	panic("darray: internal error: sectioned axis not in current grid")
}

// buildSection constructs the section view fixing store dim sd at i, carved
// from the parent's arena.
func (a *Array) buildSection(sd, i int) *Array {
	sec := a.newSection()
	sec.st = a.st
	sec.grid = a.grid
	sec.axes = a.axes
	if nd := len(a.pfix); nd <= maxInlineDims {
		sec.pfix = sec.pfixBuf[:nd]
	} else {
		sec.pfix = make([]int, nd)
	}
	copy(sec.pfix, a.pfix)
	sec.pfix[sd] = i
	if ax := a.st.axisOf[sd]; ax >= 0 {
		// Slice the current grid through the owner of i along ax.
		pos := axisPos(a.axes, ax)
		var newAxes []int
		if len(a.axes)-1 <= maxInlineDims {
			newAxes = sec.axesBuf[:0]
		} else {
			newAxes = make([]int, 0, len(a.axes)-1)
		}
		for k := range a.axes {
			if k != pos {
				newAxes = append(newAxes, a.axes[k])
			}
		}
		sec.grid = a.st.gridSliceThrough(a.grid, pos, a.st.ownerOf(sd, i))
		sec.axes = newAxes
	}
	sec.finishView()
	return sec
}

// gridSliceKey identifies a grid slice in the per-processor cache: the
// parent grid, the sliced dimension position, and the fixed coordinate.
type gridSliceKey struct {
	g          *topology.Grid
	pos, owner int
}

// gridSliceCacheKey is this package's Proc.Scratch registration key.
type gridSliceCacheKey struct{}

// gridSliceThrough returns the slice of grid g with the dimension at
// position pos fixed at coordinate owner, memoized per processor and parent
// grid: every section through the same owner — of any array on that grid,
// whether a view is built for it or not — shares one grid object, so
// sectioning a dimension of extent n costs O(owners), not O(n · arrays),
// grid constructions.
func (st *store) gridSliceThrough(g *topology.Grid, pos, owner int) *topology.Grid {
	cache := st.p.Scratch(gridSliceCacheKey{}, func() any {
		return make(map[gridSliceKey]*topology.Grid)
	}).(map[gridSliceKey]*topology.Grid)
	key := gridSliceKey{g: g, pos: pos, owner: owner}
	if sl, ok := cache[key]; ok {
		return sl
	}
	var specBuf [maxInlineDims]int
	var spec []int
	if gd := g.Dims(); gd <= maxInlineDims {
		spec = specBuf[:gd]
	} else {
		spec = make([]int, gd)
	}
	for k := range spec {
		if k == pos {
			spec[k] = owner
		} else {
			spec[k] = topology.All
		}
	}
	sl := g.Slice(spec...)
	cache[key] = sl
	return sl
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
