package kf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/topology"
)

// The stencil battery holds a compiled statement to its model — the doall
// body a programmer would write, run by the plan's closure loop — on seeded
// random statements: every rank's destination values, clock and counters,
// or the text of its panic, must be identical. The generator leans on the
// row path (block layouts, in-window offsets) and mixes in everything the
// row path must hand to the per-cell path: cyclic and replicated
// dimensions, reads past the halo, strided and reversed ranges, reads of
// the destination's current values, a missing snapshot.

// tnode is a generated statement's right-hand side, kept in the test's own
// form so that the model closure evaluates it independently of Expr.
type tnode struct {
	op   byte // 'o' Old, 'a' At, '+', '-', 's' (c times l)
	arr  int  // a read's array; array 0 is the destination
	off  [2]int
	c    float64
	l, r *tnode
}

// expr is t as a stencil right-hand side over the parameters 0..narr-1.
func (t *tnode) expr() *Expr {
	switch t.op {
	case 'o':
		return Param(t.arr).Old(t.off[0], t.off[1])
	case 'a':
		return Param(t.arr).At(t.off[0], t.off[1])
	case '+':
		return Sum(t.l.expr(), t.r.expr())
	case '-':
		return Sub(t.l.expr(), t.r.expr())
	}
	return Scale(t.c, t.l.expr())
}

// eval is the model: t at (i, j) through the accessors, as a closure body
// computes it.
func (t *tnode) eval(arrs []*darray.Array, i, j int) float64 {
	switch t.op {
	case 'o':
		return arrs[t.arr].Old2(i+t.off[0], j+t.off[1])
	case 'a':
		return arrs[t.arr].At2(i+t.off[0], j+t.off[1])
	case '+':
		return t.l.eval(arrs, i, j) + t.r.eval(arrs, i, j)
	case '-':
		return t.l.eval(arrs, i, j) - t.r.eval(arrs, i, j)
	}
	return t.c * t.l.eval(arrs, i, j)
}

func (t *tnode) flops() int {
	switch t.op {
	case 'o', 'a':
		return 0
	case 's':
		return 1 + t.l.flops()
	}
	return 1 + t.l.flops() + t.r.flops()
}

// stencilCase is one generated statement with its loop and data.
type stencilCase struct {
	grid   []int
	spec   []darray.Spec // per array; 0 is the destination
	ranges [2]Range
	reads  []bool // which arrays the loop snapshots (Reads)
	rhs    *tnode
}

func genTree(rng *rand.Rand, depth, narr int) *tnode {
	if depth == 0 || rng.Intn(4) == 0 {
		t := &tnode{op: 'o', arr: rng.Intn(narr)}
		if rng.Intn(4) == 0 {
			t.op = 'a'
		}
		for d := range t.off {
			t.off[d] = rng.Intn(3) - 1
			if rng.Intn(40) == 0 {
				t.off[d] = 2 * (rng.Intn(2)*2 - 1) // past a width-1 halo
			}
		}
		if t.op == 'a' && t.arr == 0 && rng.Intn(5) != 0 {
			t.off = [2]int{} // in-place update; else sees this pass's writes
		}
		return t
	}
	t := &tnode{op: "+-s+-s"[rng.Intn(6)], l: genTree(rng, depth-1, narr)}
	if t.op == 's' {
		t.c = []float64{0.25, -1, 1, 2.5, 1.0 / 3}[rng.Intn(5)]
	} else {
		t.r = genTree(rng, depth-1, narr)
	}
	return t
}

func genCase(seed int64) stencilCase {
	rng := rand.New(rand.NewSource(seed))
	var tc stencilCase
	// A grid of one or two dimensions; with one, the other array dimension
	// is replicated.
	gd := 1 + rng.Intn(2)
	star := rng.Perm(2)[:2-gd]
	var ext [2]int
	var dists [2]dist.Dist
	for d := range ext {
		ext[d] = 4 + rng.Intn(8)
		dists[d] = dist.Block{}
		if rng.Intn(15) == 0 {
			dists[d] = dist.Cyclic{}
		}
		for _, s := range star {
			if s == d {
				dists[d] = dist.Star{}
			}
		}
		n := ext[d]
		// Mostly interior loops; whole and over-long ranges read past the
		// extent at an edge, which must panic the same either way.
		tc.ranges[d] = R(1+rng.Intn(2), n-2-rng.Intn(2))
		switch rng.Intn(24) {
		case 0:
			tc.ranges[d] = R(0, n-1)
		case 1:
			tc.ranges[d] = R(-1, n)
		case 2, 3:
			tc.ranges[d] = RStep(1, n-1, 2)
		case 4, 5:
			tc.ranges[d] = RStep(n-2, 1, -1)
		}
	}
	for g := 0; g < gd; g++ {
		tc.grid = append(tc.grid, 1+rng.Intn(3))
	}
	narr := 1 + rng.Intn(3)
	for a := 0; a < narr; a++ {
		halo := make([]int, 2)
		for d := range halo {
			if _, ok := dists[d].(dist.Block); ok && rng.Intn(6) != 0 {
				halo[d] = 1 + rng.Intn(2)
			}
		}
		tc.spec = append(tc.spec, darray.Spec{Extents: ext[:], Dists: dists[:], Halo: halo})
		tc.reads = append(tc.reads, rng.Intn(20) != 0)
	}
	tc.rhs = genTree(rng, 1+rng.Intn(4), narr)
	return tc
}

// stencilOutcome is what one rank ends a case with.
type stencilOutcome struct {
	vals  []float64
	clock float64
	stats machine.Stats
	panic string
	rows  bool
}

// runStencilCase runs tc on a fresh machine, through the compiled statement
// (compiled true) or the model closure, and returns every rank's outcome.
func runStencilCase(t *testing.T, tc stencilCase, compiled bool) []stencilOutcome {
	stmt := Assign(0, tc.rhs.expr()) // one statement, every rank
	g := topology.New(tc.grid...)
	m := machine.New(g.Size(), machine.Balanced())
	out := make([]stencilOutcome, g.Size())
	err := Exec(m, g, func(c *Ctx) error {
		o := &out[c.P.Rank()]
		arrs := make([]*darray.Array, len(tc.spec))
		var opts []LoopOpt
		for a, spec := range tc.spec {
			arrs[a] = c.NewArray(spec)
			if arrs[a].Participates() {
				arrs[a].FillOwned(func(idx []int) float64 {
					v := float64(a + 1)
					for _, x := range idx {
						v = v*1.37 + float64(x)*0.71
					}
					return v
				})
			}
			if tc.reads[a] {
				opts = append(opts, Reads(arrs[a]))
			}
		}
		dst, r := arrs[0], tc.ranges
		flops := tc.rhs.flops()
		func() {
			defer func() {
				if p := recover(); p != nil {
					o.panic = fmt.Sprint(p)
				}
			}()
			pl := c.Plan2(r[0], r[1], OnOwner2(dst), opts...)
			if compiled {
				s := pl.Stencil(stmt, arrs...)
				o.rows = s.cell == nil
				s.Run()
				return
			}
			pl.Run(func(cc *Ctx, i, j int) {
				dst.Set2(i, j, tc.rhs.eval(arrs, i, j))
				cc.P.Compute(flops)
			})
		}()
		if dst.Participates() {
			dst.OwnedEach(func(idx []int) { o.vals = append(o.vals, dst.At(idx...)) })
		}
		o.clock, o.stats = c.P.Clock(), c.P.Stats()
		return nil
	})
	if err != nil {
		t.Fatalf("%+v: %v", tc, err)
	}
	return out
}

func TestStencilMatchesClosure(t *testing.T) {
	seeds := 1500
	if testing.Short() {
		seeds = 300
	}
	var ranks, rows, panics int
	for seed := int64(0); seed < int64(seeds); seed++ {
		tc := genCase(seed)
		want := runStencilCase(t, tc, false)
		got := runStencilCase(t, tc, true)
		for rank := range want {
			w, g := want[rank], got[rank]
			if g.panic != w.panic {
				t.Fatalf("seed %d rank %d: statement panicked %q, closure %q", seed, rank, g.panic, w.panic)
			}
			if len(g.vals) != len(w.vals) {
				t.Fatalf("seed %d rank %d: %d owned values, closure %d", seed, rank, len(g.vals), len(w.vals))
			}
			for k := range w.vals {
				if math.Float64bits(g.vals[k]) != math.Float64bits(w.vals[k]) {
					t.Fatalf("seed %d rank %d: value %d is %v, closure %v", seed, rank, k, g.vals[k], w.vals[k])
				}
			}
			if g.clock != w.clock || g.stats != w.stats {
				t.Fatalf("seed %d rank %d: clock %v stats %+v, closure clock %v stats %+v",
					seed, rank, g.clock, g.stats, w.clock, w.stats)
			}
			ranks++
			if g.rows {
				rows++
			}
			if g.panic != "" {
				panics++
			}
		}
	}
	t.Logf("%d seeds, %d ranks: %d on the row path, %d panicked identically", seeds, ranks, rows, panics)
	// The generator must exercise both paths and the panic texts.
	if rows < ranks/4 || rows > ranks*9/10 || panics == 0 {
		t.Errorf("coverage: %d of %d ranks on the row path, %d panics", rows, ranks, panics)
	}
}

// TestStencilJacobiTakesRowPath pins that the paper's Listing 3 statement
// compiles to two row operations over one temporary, shared by every rank,
// that every rank owning interior cells runs it by rows with no per-cell
// path bound, and that a pass allocates nothing.
func TestStencilJacobiTakesRowPath(t *testing.T) {
	const n = 34
	x0, f0 := Param(0), Param(1)
	jacobi := Assign(x0, Sub(Scale(0.25, Sum(x0.Old(1, 0), x0.Old(-1, 0), x0.Old(0, 1), x0.Old(0, -1))), f0.Old(0, 0)))
	if len(jacobi.ops) != 2 || jacobi.ntemp != 1 || jacobi.flops != 5 || len(jacobi.reads) != 5 {
		t.Errorf("compiled to %d ops, %d temporaries, %d flops, %d reads; want 2, 1, 5, 5",
			len(jacobi.ops), jacobi.ntemp, jacobi.flops, len(jacobi.reads))
	}
	g := topology.New(3, 2)
	m := machine.New(g.Size(), machine.Balanced())
	spec := darray.Spec{Extents: []int{n, n}, Dists: []dist.Dist{dist.Block{}, dist.Block{}}, Halo: []int{1, 1}}
	err := Exec(m, g, func(c *Ctx) error {
		x, f := c.NewArray(spec), c.NewArray(spec)
		x.FillOwned(func(idx []int) float64 { return float64(idx[0]*n + idx[1]) })
		f.FillOwned(func(idx []int) float64 { return 1.0 / 16 })
		s := c.Plan2(R(1, n-2), R(1, n-2), OnOwner2(x), Reads(x), ReadsNoHalo(f)).Stencil(jacobi, x, f)
		if s.cell != nil {
			t.Errorf("rank %d: the per-cell path is bound; want the row path alone", c.P.Rank())
		}
		for it := 0; it < 3; it++ {
			s.Run()
		}
		if allocs := testing.AllocsPerRun(10, s.Run); allocs != 0 {
			t.Errorf("rank %d: a warm pass allocates %v objects, want 0", c.P.Rank(), allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStencilDeclarationChecks pins the declaration errors: a read of a
// negative parameter and a statement bound to too few arrays.
func TestStencilDeclarationChecks(t *testing.T) {
	expectPanic := func(want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if p := recover(); fmt.Sprint(p) != want {
				t.Errorf("panic %q, want %q", p, want)
			}
		}()
		f()
	}
	a, b := Param(0), Param(1)
	expectPanic("kf: stencil read of parameter -1", func() { Param(-1).Old(0, 0) })
	expectPanic("kf: stencil statement assigns parameter -1", func() { Assign(-1, a.Old(0, 0)) })
	m := machine.New(1, machine.ZeroComm())
	err := Exec(m, topology.New(1, 1), func(c *Ctx) error {
		x := c.NewArray(darray.Spec{Extents: []int{8, 8}, Dists: []dist.Dist{dist.Block{}, dist.Block{}}})
		pl := c.Plan2(R(0, 7), R(0, 7), OnOwner2(x))
		expectPanic("kf: stencil statement over 2 arrays bound to 1", func() { pl.Stencil(Assign(a, b.Old(1, 0)), x) })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
