package kf

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/topology"
)

// sweepDecl is a declaration as the programs keep one: an array with halos
// and the compiled loop over it.
type sweepDecl struct {
	a    *darray.Array
	plan *Plan1
}

func (d *sweepDecl) build(c *Ctx, n int) {
	d.a = c.NewArray(darray.Spec{Extents: []int{n}, Dists: []dist.Dist{dist.Block{}}, Halo: []int{1}})
	d.plan = c.Plan1(R(1, n-2), OnOwner1(d.a), Reads(d.a))
}

// otherDecl is a second state type: its slot is its own.
type otherDecl struct{ built int }

// TestDeclaredSlot drives one machine through a sequence of runs and holds
// Declared to its contract: fresh exactly on the first call and on a sig
// change, the same state otherwise, one slot per state type, a zero state
// after a rebuild, and nothing allocated on a hit.
func TestDeclaredSlot(t *testing.T) {
	m := machine.New(4, machine.ZeroComm())
	g := topology.New1D(4)
	type step struct {
		n         int
		wantFresh bool
	}
	var kept [4]*sweepDecl
	for run, s := range []step{{16, true}, {16, false}, {16, false}, {32, true}, {32, false}, {16, true}} {
		err := Exec(m, g, func(c *Ctx) error {
			r := c.P.Rank()
			d, fresh := Declared[sweepDecl](c, s.n)
			if fresh != s.wantFresh {
				t.Errorf("run %d rank %d: fresh = %v at n = %d, want %v", run, r, fresh, s.n, s.wantFresh)
			}
			if fresh {
				if d.a != nil || d.plan != nil {
					t.Errorf("run %d rank %d: a rebuilt slot is not the zero state", run, r)
				}
				d.build(c, s.n)
			} else if d != kept[r] {
				t.Errorf("run %d rank %d: a hit returned a different state", run, r)
			}
			kept[r] = d
			if d.a.Extent(0) != s.n {
				t.Errorf("run %d rank %d: kept array has extent %d, want %d", run, r, d.a.Extent(0), s.n)
			}
			// The other type's slot is untouched by all of the above, and a
			// second call in the same run is a hit.
			o, oFresh := Declared[otherDecl](c, "once")
			if oFresh != (run == 0) {
				t.Errorf("run %d rank %d: second slot fresh = %v", run, r, oFresh)
			}
			o.built++
			if again, f := Declared[otherDecl](c, "once"); f || again != o || o.built != run+1 {
				t.Errorf("run %d rank %d: second slot lost its state (fresh %v, built %d)", run, r, f, o.built)
			}
			// The kept loop still runs on the kept array.
			d.a.FillOwned(func(idx []int) float64 { return float64(idx[0]) })
			d.plan.Run(func(cc *Ctx, i int) { d.a.Set1(i, d.a.Old1(i-1)+d.a.Old1(i+1)) })
			if r == 0 {
				if got := d.a.At1(1); got != 2 {
					t.Errorf("run %d: a[1] = %v after the kept sweep, want 2", run, got)
				}
				if allocs := testing.AllocsPerRun(10, func() { Declared[sweepDecl](c, s.n) }); allocs != 0 {
					t.Errorf("run %d: a hit allocates %v objects, want 0", run, allocs)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// sweep2Decl is sweepDecl on a Block x Block array.
type sweep2Decl struct {
	a, f  *darray.Array
	plan  *Plan2
	sweep *Stencil
}

// sweep2Stmt is a stencil statement over (a, f) for sweep2Decl's sweep.
var sweep2Stmt = listing3()

func (d *sweep2Decl) build(c *Ctx, n int) {
	spec := darray.Spec{Extents: []int{n, n}, Dists: []dist.Dist{dist.Block{}, dist.Block{}}, Halo: []int{1, 1}}
	d.a = c.NewArray(spec)
	spec.Halo = nil
	d.f = c.NewArray(spec)
	d.plan = c.Plan2(R(1, n-2), R(1, n-2), OnOwner2(d.a), Reads(d.a))
	d.sweep = c.Plan2(R(1, n-2), R(1, n-2), OnOwner2(d.a), Reads(d.a), ReadsNoHalo(d.f)).Stencil(sweep2Stmt, d.a, d.f)
}

// TestDeclaredRetainsOneStatePerSlot: a long-lived context serving one
// program at many sizes keeps the latest declaration only — its arrays on
// every rank, and the descriptors its ranks share through the machine's
// intern table (layouts, views' class parts, halo schedules, gather runs
// and plans, compiled stencil loops), whose entries must not pile up one
// set per size. The 1-D input's every rebuild is ~1.6 MB of array and
// snapshot; the 2-D one runs on a 4 x 4 grid, where the shared
// descriptors are 9 position classes' worth, and shrinks by 4 a side per
// size, so every size has the same classes. Either way the sizes share
// their classes of the machine's buffer pool, which keeps the gather's
// buffer. Eight more sizes must leave what one leaves.
func TestDeclaredRetainsOneStatePerSlot(t *testing.T) {
	for _, tc := range []struct {
		name       string
		g          *topology.Grid
		n, step    int
		arrayBytes int
		body       func(c *Ctx, size int) bool
	}{
		{"1-D on 1 rank", topology.New1D(1), 100_000, 1, 100_000 * 8, func(c *Ctx, size int) bool {
			d, fresh := Declared[sweepDecl](c, size)
			d.build(c, size)
			d.plan.Run(func(cc *Ctx, i int) { d.a.Set1(i, d.a.Old1(i-1)) })
			d.a.GatherTo(c.NextScope(), 0)
			return fresh
		}},
		{"Block x Block on 4 x 4", topology.New(4, 4), 296, -4, 264 * 264 * 8, func(c *Ctx, size int) bool {
			d, fresh := Declared[sweep2Decl](c, size)
			d.build(c, size)
			d.plan.Run(func(cc *Ctx, i, j int) { d.a.Set2(i, j, d.a.Old2(i-1, j)+d.a.Old2(i, j+1)) })
			d.sweep.Run()
			d.a.GatherTo(c.NextScope(), 0)
			return fresh
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := machine.New(tc.g.Size(), machine.ZeroComm())
			run := func(size int) {
				t.Helper()
				if err := Exec(m, tc.g, func(c *Ctx) error {
					if !tc.body(c, size) {
						t.Errorf("size %d: not rebuilt", size)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			before := liveHeap()
			run(tc.n)
			one, oneShared := liveHeap()-before, m.Interned()
			for k := 1; k <= 8; k++ {
				run(tc.n + k*tc.step)
			}
			eight := liveHeap() - before
			// An unheld entry leaves the table as its value's cleanup runs,
			// on the runtime's cleanup goroutine after a collection.
			deadline := time.Now().Add(10 * time.Second)
			for m.Interned() > oneShared && time.Now().Before(deadline) {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			shared := m.Interned()
			runtime.KeepAlive(m)
			t.Logf("live heap after one declaration: %d B; after eight more sizes: %d B; shared descriptors %d, then %d",
				one, eight, oneShared, shared)
			if one < int64(tc.arrayBytes) {
				t.Fatalf("one declaration retains %d B, less than its own array: the measurement is broken", one)
			}
			if eight > one+one/2 {
				t.Errorf("nine sizes retain %d B, one retains %d B: old declarations are still reachable", eight, one)
			}
			if shared > oneShared {
				t.Errorf("nine sizes leave %d shared descriptors, one leaves %d: old sizes' descriptors are still held", shared, oneShared)
			}
		})
	}
}
