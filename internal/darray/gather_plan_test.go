package darray

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/topology"
)

// TestGatherRootPlanMatchesMemberWalk holds the gather root's plan, whose
// runs are built into one slab across all members, to the runs rebuilt
// member by member from memberOwnedEach: the same peer, part, count and
// runs per member, no run continued across a member's start, and every
// member's runs a capped window of one slab, in member order.
func TestGatherRootPlanMatchesMemberWalk(t *testing.T) {
	b, s, c := dist.Block{}, dist.Star{}, dist.Cyclic{}
	cases := []struct {
		name  string
		grid  *topology.Grid
		spec  Spec
		view  func(a *Array) *Array // nil: the array itself
		roots []int                 // member indices of the view's grid
		empty bool                  // some member owns no cell
	}{
		{name: "2d uneven", grid: topology.New(2, 2),
			spec: Spec{Extents: []int{9, 7}, Dists: []dist.Dist{b, b}}, roots: []int{0, 3}},
		{name: "2d halo", grid: topology.New(2, 3),
			spec: Spec{Extents: []int{9, 7}, Dists: []dist.Dist{b, b}, Halo: []int{1, 2}}, roots: []int{0, 4}},
		{name: "2d empty blocks", grid: topology.New(4, 2),
			spec: Spec{Extents: []int{3, 10}, Dists: []dist.Dist{b, b}}, roots: []int{0, 7}, empty: true},
		{name: "2d row blocks, each member's first cell continuing the last one's", grid: topology.New(4),
			spec: Spec{Extents: []int{8, 6}, Dists: []dist.Dist{b, s}}, roots: []int{1}},
		{name: "2d cyclic", grid: topology.New(3, 2),
			spec: Spec{Extents: []int{7, 5}, Dists: []dist.Dist{c, b}}, roots: []int{2}},
		{name: "3d", grid: topology.New(2, 2),
			spec: Spec{Extents: []int{5, 4, 6}, Dists: []dist.Dist{b, s, b}}, roots: []int{0, 3}},
		{name: "3d on a 3d grid", grid: topology.New(2, 2, 3),
			spec: Spec{Extents: []int{5, 3, 7}, Dists: []dist.Dist{b, c, b}}, roots: []int{0, 11}},
		{name: "3d section, star dim fixed", grid: topology.New(2, 2),
			spec: Spec{Extents: []int{5, 4, 6}, Dists: []dist.Dist{b, s, b}},
			view: func(a *Array) *Array { return a.Section(1, 2) }, roots: []int{0, 3}},
		{name: "3d section, block dim fixed", grid: topology.New(2, 2),
			spec: Spec{Extents: []int{5, 4, 6}, Dists: []dist.Dist{b, s, b}},
			view: func(a *Array) *Array { return a.Section(0, 3) }, roots: []int{0, 1}},
		{name: "3d section, two dims fixed", grid: topology.New(2, 2),
			spec: Spec{Extents: []int{5, 4, 6}, Dists: []dist.Dist{b, s, b}},
			view: func(a *Array) *Array { return a.Section(0, 3).Section(1, 5) }, roots: []int{0}},
	}
	for _, tc := range cases {
		m := machine.New(tc.grid.Size(), machine.ZeroComm())
		checked := make([]bool, len(tc.roots))
		err := m.Run(func(p *machine.Proc) error {
			a := New(p, tc.grid, tc.spec)
			if tc.view != nil {
				a = tc.view(a)
			}
			if !a.Participates() {
				return nil
			}
			me, _ := a.grid.Index(p.Rank())
			for i, root := range tc.roots {
				if me != root {
					continue
				}
				checked[i] = true
				if empty := checkGatherRoot(t, tc.name, a, me, a.gatherPlanFor(me, root).root.Recvs); empty == 0 && tc.empty {
					t.Errorf("%s root %d: no member with an empty block", tc.name, me)
				}
			}
			return nil
		})
		m.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, ok := range checked {
			if !ok {
				t.Errorf("%s: root %d never built its plan", tc.name, tc.roots[i])
			}
		}
	}
}

// checkGatherRoot compares a root's Recvs with the member-by-member walk
// and returns how many members own no cell.
func checkGatherRoot(t *testing.T, name string, a *Array, me int, got []sched.Msg) (empty int) {
	t.Helper()
	nd := a.Dims()
	g := a.grid
	if len(got) != g.Size() {
		t.Errorf("%s root %d: %d member messages, want %d", name, me, len(got), g.Size())
		return 0
	}
	var base *sched.Run
	start := 0
	for k := range got {
		var want []sched.Run
		n := 0
		a.memberOwnedEach(k, nil, func(idx []int) {
			off := 0
			for d := 0; d < nd; d++ {
				off = off*a.Extent(d) + idx[d]
			}
			want = appendRun(want, off)
			n++
		})
		mu := got[k]
		if mu.Peer != g.RankAt(k)-g.RankAt(me) || mu.Part != uint16(k) || mu.N != n {
			t.Errorf("%s root %d member %d: peer %d part %d n %d, want %d %d %d",
				name, me, k, mu.Peer, mu.Part, mu.N, g.RankAt(k)-g.RankAt(me), k, n)
		}
		if !slices.Equal(mu.Runs, want) {
			t.Errorf("%s root %d member %d: runs %v, want %v", name, me, k, mu.Runs, want)
		}
		if cap(mu.Runs) != len(mu.Runs) {
			t.Errorf("%s root %d member %d: runs capacity %d beyond their %d", name, me, k, cap(mu.Runs), len(mu.Runs))
		}
		if n == 0 {
			empty++
		} else if base == nil {
			base = &mu.Runs[0]
			start = len(mu.Runs)
		} else {
			if at := unsafe.Add(unsafe.Pointer(base), start*int(unsafe.Sizeof(sched.Run{}))); unsafe.Pointer(&mu.Runs[0]) != at {
				t.Errorf("%s root %d member %d: runs are not where the previous member's end", name, me, k)
			}
			start += len(mu.Runs)
		}
	}
	return empty
}
