package darray

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/topology"
)

// The class census: in a block distribution a rank's compiled descriptors
// depend on its position class (first, interior or last along each grid
// axis), not on its coordinates, so a machine whose ranks share what they
// would compile alike holds a number of them that does not grow with the
// rank count. These tests count, by pointer identity, the distinct halo
// schedules, gather plans and views' class parts (each with its layout) the
// ranks of a warmed Jacobi program hold at three grid sizes, count how many
// of each were built — as many as are held: every one is keyed before it is
// built, so no rank compiles what another rank of its class has — and hold
// every shared descriptor's program to the direct derivation bit for bit.
// (internal/kf's TestClassCensusLoops takes the census of the compiled
// loops.)

// census counts the distinct descriptors a machine's ranks hold.
type census struct {
	halo   int // halo-exchange schedules
	gather int // gather plans: the members' shared ones and the root's own
	view   int // root views' class parts
}

// builds reads the build counters: how many of each descriptor the package
// has built so far.
func builds() census {
	return census{halo: int(haloBuilds.Load()), gather: int(gatherBuilds.Load()), view: int(classBuilds.Load())}
}

// jacobiRanks is a Jacobi-like program's per-rank declarations: the
// iterate x (haloed when its distribution is contiguous) and the right-hand
// side f, declared on the first run and reused by every later one, as a
// warmed System keeps them, and each run's redistribution of x, if any.
type jacobiRanks struct {
	x, f []*Array
	y    [][]*Array
}

// runJacobiLike runs a Jacobi-like program twice over n x n arrays
// distributed (d, d) on a side x side grid — two passes of halo exchange
// and five-point update where d is contiguous, then a gather to rank 0, and
// where d is not contiguous, a redistribution onto (block, block) gathered
// too — on a machine deriving collectives directly or replaying compiled
// schedules. It returns the second (warm) run's outcome, the declarations
// the ranks hold, and how many halo schedules, gather plans and view class
// parts the two runs built.
func runJacobiLike(t *testing.T, side, n int, d dist.Dist, direct bool) (capture, jacobiRanks, census) {
	t.Helper()
	g := topology.New(side, side)
	np := side * side
	_, contiguous := d.(dist.Contiguous)
	var halo []int
	if contiguous {
		halo = []int{1, 1}
	}
	decl := jacobiRanks{x: make([]*Array, np), f: make([]*Array, np), y: make([][]*Array, np)}
	prog := func(p *machine.Proc) []float64 {
		r := p.Rank()
		if decl.x[r] == nil {
			decl.x[r] = New(p, g, Spec{Extents: []int{n, n}, Dists: []dist.Dist{d, d}, Halo: halo})
			decl.f[r] = New(p, g, Spec{Extents: []int{n, n}, Dists: []dist.Dist{d, d}})
		}
		x, f := decl.x[r], decl.f[r]
		x.FillOwned(func(idx []int) float64 { return float64((idx[0]*7 + idx[1]*3) % 11) })
		f.FillOwned(func(idx []int) float64 { return float64((idx[0]+idx[1])%5) / 8 })
		sc := machine.RootScope()
		for it := 0; it < 2; it++ {
			if !contiguous {
				break
			}
			x.ExchangeHalo(sc.Child(it, -1))
			x.Snapshot()
			x.OwnedEach(func(idx []int) {
				i, j := idx[0], idx[1]
				if i == 0 || j == 0 || i == n-1 || j == n-1 {
					return
				}
				x.Set2(i, j, 0.25*(x.Old2(i+1, j)+x.Old2(i-1, j)+x.Old2(i, j+1)+x.Old2(i, j-1))-f.At2(i, j))
			})
			x.ReleaseSnapshot()
		}
		out := x.GatherTo(sc.Child(2, -1), 0)
		if !contiguous {
			y := x.Redistribute(sc.Child(3, -1), g, Spec{Extents: []int{n, n}, Dists: []dist.Dist{dist.Block{}, dist.Block{}}})
			decl.y[r] = append(decl.y[r], y)
			out = append(out, y.GatherTo(sc.Child(4, -1), 0)...)
		}
		return out
	}
	m := machine.New(np, machine.IPSC2())
	m.SetDirect(direct)
	c := capture{clocks: make([]float64, np), stats: make([]machine.Stats, np), data: make([][]float64, np)}
	before := builds()
	for run := 0; run < 2; run++ {
		err := m.Run(func(p *machine.Proc) error {
			c.data[p.Rank()] = prog(p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < np; i++ {
		c.clocks[i] = m.ProcClock(i)
		c.stats[i] = m.ProcStats(i)
	}
	after := builds()
	return c, decl, census{halo: after.halo - before.halo, gather: after.gather - before.gather, view: after.view - before.view}
}

// countDescriptors takes the census of the declarations' compiled state.
func countDescriptors(decl jacobiRanks) census {
	halos := map[any]bool{}
	gathers := map[any]bool{}
	views := map[any]bool{}
	for r := range decl.x {
		for _, a := range append([]*Array{decl.x[r], decl.f[r]}, decl.y[r]...) {
			views[a.viewClass] = true
			for _, pl := range a.plans {
				if pl.halo != nil {
					halos[pl.halo] = true
				}
				if pl.gather != nil {
					gathers[pl.gather] = true
				}
			}
		}
	}
	return census{halo: len(halos), gather: len(gathers), view: len(views)}
}

// checkViewsDirect holds every rank's root views — the class part shared,
// the header its own — to the access data the rank derives directly from
// its own block: the windows, strides and axis lengths each view computed
// for itself before the class parts were shared, in global indices.
func checkViewsDirect(t *testing.T, decl jacobiRanks) {
	t.Helper()
	for r := range decl.x {
		for _, a := range []*Array{decl.x[r], decl.f[r]} {
			if !a.participates {
				continue
			}
			st := a.st
			for k := range a.acc {
				ax := &a.acc[k]
				sd := int(ax.sd)
				lo, h, n, extent := st.lower(sd), a.halo[sd], a.lsize[sd], a.extents[sd]
				want := axisAccess{sd: ax.sd, stride: a.stride[sd], kind: axContig, base: h}
				switch _, contig := a.dists[sd].(dist.Contiguous); {
				case a.axisOf[sd] < 0:
					want.kind = axStar
				case !contig:
					want = axisAccess{sd: ax.sd, stride: a.stride[sd], kind: axGeneral, P: st.rootGrid().Extent(a.axisOf[sd])}
				}
				got := *ax
				if want.kind == axGeneral {
					// The class part says where the header keeps the axis
					// coordinate; the rank's own is the grid's.
					coord, _ := st.rootGrid().CoordOf(st.p.Rank())
					if q := st.pos[got.qi]; q != coord[a.axisOf[sd]] {
						t.Fatalf("rank %d dim %d: shared view reads coordinate %d, the rank's is %d", r, sd, q, coord[a.axisOf[sd]])
					}
					got.qi = 0
				} else {
					want.rlo = max(lo-h, 0)
					want.rspan = max(min(lo+n+h, extent)-want.rlo, 0)
					want.wspan = max(min(lo+n, extent)-lo, 0)
					got.rlo += lo // the class part's read window starts at the block's origin
				}
				if got != want {
					t.Fatalf("rank %d dim %d: shared view gives %+v, the rank's own block %+v", r, sd, got, want)
				}
			}
		}
	}
}

// TestClassCensus: a warmed Jacobi program's ranks hold the same number of
// distinct halo schedules (at most one per position class, 9 in 2-D),
// gather plans and view class parts on 256, 1,024 and 4,096 ranks — a
// census that is a function of the program, not of P² — built as many of
// each as they hold, and replay them bit-identically to the direct
// derivation.
func TestClassCensus(t *testing.T) {
	var first census
	for k, side := range []int{16, 32, 64} {
		direct, _, _ := runJacobiLike(t, side, 256, dist.Block{}, true)
		shared, decl, built := runJacobiLike(t, side, 256, dist.Block{}, false)
		assertSameCapture(t, side, direct, shared)
		checkViewsDirect(t, decl)
		c := countDescriptors(decl)
		t.Logf("Grid(%d, %d): %d halo schedules, %d gather plans, %d view classes (built %+v) over %d ranks",
			side, side, c.halo, c.gather, c.view, built, side*side)
		if c.halo > 9 {
			t.Errorf("Grid(%d, %d): %d distinct halo schedules, want at most one per position class (9)", side, side, c.halo)
		}
		// x (haloed) has one class part per position class; f (no halo,
		// even blocks) one for every rank.
		if c.view > 9+1 {
			t.Errorf("Grid(%d, %d): %d distinct view classes, want at most one per position class and array (9 + 1)", side, side, c.view)
		}
		if built != c {
			t.Errorf("Grid(%d, %d): built %+v for %+v held: a descriptor was built twice", side, side, built, c)
		}
		if k == 0 {
			first = c
		} else if c != first {
			t.Errorf("Grid(%d, %d): census %+v, Grid(16, 16) holds %+v: it grows with the rank count", side, side, c, first)
		}
	}
}

// TestClassCensusUnevenAndCyclic holds the shared descriptors of an uneven
// block distribution (an extent no grid size divides, so interior blocks
// differ in size) and of a cyclic one (no halo; gathered, then
// redistributed onto blocks and gathered again) to the direct derivation
// bit for bit, their census to a bound that does not grow with the rank
// count, and what the ranks built to what they hold.
func TestClassCensusUnevenAndCyclic(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		d    dist.Dist
	}{
		{"uneven block", 250, dist.Block{}},
		{"cyclic", 250, dist.Cyclic{}},
	} {
		for _, side := range []int{16, 32} {
			direct, _, _ := runJacobiLike(t, side, tc.n, tc.d, true)
			shared, decl, built := runJacobiLike(t, side, tc.n, tc.d, false)
			assertSameCapture(t, side, direct, shared)
			checkViewsDirect(t, decl)
			c := countDescriptors(decl)
			t.Logf("%s %d on Grid(%d, %d): %d halo schedules, %d gather plans, %d view classes (built %+v)",
				tc.name, tc.n, side, side, c.halo, c.gather, c.view, built)
			// Two block sizes per axis: at most 9 classes times 4 shapes,
			// for each of the two arrays' views.
			if c.halo > 36 || c.gather > 36+1 || c.view > 2*36 {
				t.Errorf("%s on Grid(%d, %d): census %+v exceeds the per-class bound", tc.name, side, side, c)
			}
			if built != c {
				t.Errorf("%s on Grid(%d, %d): built %+v for %+v held: a descriptor was built twice", tc.name, side, side, built, c)
			}
		}
	}
}

// assertSameCapture requires two runs' clocks, statistics and values to be
// bit-identical.
func assertSameCapture(t *testing.T, side int, direct, shared capture) {
	t.Helper()
	for r := range direct.clocks {
		if direct.clocks[r] != shared.clocks[r] || direct.stats[r] != shared.stats[r] {
			t.Fatalf("Grid(%d, %d) rank %d: clock %v stats %+v direct, clock %v stats %+v shared",
				side, side, r, direct.clocks[r], direct.stats[r], shared.clocks[r], shared.stats[r])
		}
		if len(direct.data[r]) != len(shared.data[r]) {
			t.Fatalf("Grid(%d, %d) rank %d: %d values direct, %d shared", side, side, r, len(direct.data[r]), len(shared.data[r]))
		}
		for i, v := range direct.data[r] {
			if shared.data[r][i] != v {
				t.Fatalf("Grid(%d, %d) rank %d value %d: %v direct, %v shared", side, side, r, i, v, shared.data[r][i])
			}
		}
	}
}

// TestViewClassesLeaveWithLastHolder: the machine's intern table holds the
// views' class parts only weakly — while ranks hold their arrays the parts
// are the table's entries, one per position class (each with its layout);
// once no rank holds them every entry leaves it after a collection, and the
// same declaration builds its class parts afresh.
func TestViewClassesLeaveWithLastHolder(t *testing.T) {
	g := topology.New(4, 4)
	m := machine.New(g.Size(), machine.ZeroComm())
	spec := Spec{Extents: []int{40, 40}, Dists: []dist.Dist{dist.Block{}, dist.Block{}}, Halo: []int{1, 1}}
	declare := func() []*Array {
		arrs := make([]*Array, g.Size())
		if err := m.Run(func(p *machine.Proc) error {
			arrs[p.Rank()] = New(p, g, spec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return arrs
	}
	built := classBuilds.Load()
	arrs := declare()
	views := map[*viewClass]bool{}
	for _, a := range arrs {
		views[a.viewClass] = true
	}
	held := m.Interned()
	if len(views) != 9 || classBuilds.Load()-built != 9 || held != len(views) {
		t.Fatalf("%d ranks hold %d class parts (%d built) in a table of %d entries, want 9, each built once, and nothing else",
			g.Size(), len(views), classBuilds.Load()-built, held)
	}
	runtime.KeepAlive(arrs)
	arrs = nil
	deadline := time.Now().Add(10 * time.Second)
	for m.Interned() > 0 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := m.Interned(); n != 0 {
		t.Fatalf("%d entries remain after every holder was dropped, want 0", n)
	}
	built = classBuilds.Load()
	again := declare()
	if n := classBuilds.Load() - built; n != 9 {
		t.Errorf("the declaration again built %d class parts, want 9 afresh", n)
	}
	runtime.KeepAlive(again)
}
