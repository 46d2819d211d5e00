package darray

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/topology"
)

// modelHalo is the halo-exchange inspector as it was before the peer
// search asked the distribution for the owners of the widened block: it
// visits every other processor along each axis, in coordinate order, and
// compiles as it goes. The compiled schedules are held to it byte for
// byte.
func modelHalo(a *Array, dims []int) *sched.Schedule {
	s := &sched.Schedule{}
	var sds []int
	if len(dims) == 0 {
		for k := range a.acc {
			if sd := int(a.acc[k].sd); a.halo[sd] > 0 && a.axisOf[sd] >= 0 {
				sds = append(sds, sd)
			}
		}
	} else {
		for _, d := range dims {
			sds = append(sds, a.storeDim(d))
		}
	}
	st := a.st
	planes := func(sd, lo, hi int, send bool) {
		add := s.AddRecvRun
		if send {
			add = s.AddSendRun
		}
		for g := lo; g <= hi; g++ {
			a.eachPlaneRun(sd, g-st.lower(sd)+a.halo[sd], add)
		}
	}
	for _, sd := range sds {
		ax, n, h := a.axisOf[sd], a.extents[sd], a.halo[sd]
		P, q := st.rootGrid().Extent(ax), st.coord(ax)
		myLo, myHi := st.lower(sd), st.lower(sd)+a.lsize[sd]-1
		if a.planeSize(sd) == 0 || a.lsize[sd] == 0 {
			continue
		}
		b := a.dists[sd].(dist.Contiguous)
		for qq := 0; qq < P; qq++ {
			if qq == q {
				continue
			}
			qlo, qhi := b.Lower(qq, n, P), b.Upper(qq, n, P)
			if lo, hi := max(qlo-h, myLo), min(qlo-1, myHi); lo <= hi {
				s.BeginSend(st.offsetAlongAxis(ax, qq), uint16(sd<<2))
				planes(sd, lo, hi, true)
			}
			if lo, hi := max(qhi+1, myLo), min(qhi+h, myHi); lo <= hi {
				s.BeginSend(st.offsetAlongAxis(ax, qq), uint16(sd<<2|1))
				planes(sd, lo, hi, true)
			}
		}
	}
	for _, sd := range sds {
		if a.planeSize(sd) == 0 {
			continue
		}
		h, myLo, myHi := a.halo[sd], st.lower(sd), st.lower(sd)+a.lsize[sd]-1
		for side, w := range [2][2]int{{myLo - h, myLo - 1}, {myHi + 1, myHi + h}} {
			for _, run := range a.ghostRuns(sd, w[0], w[1], nil) {
				s.BeginRecv(st.offsetAlongAxis(a.axisOf[sd], run.ownerCoord), uint16(sd<<2|side))
				planes(sd, run.lo, run.hi, false)
			}
		}
	}
	return s
}

// sameSchedule reports how two schedules differ, or "" when their messages
// and moves are equal.
func sameSchedule(got, want *sched.Schedule) string {
	for i, pair := range [2][2][]sched.Msg{{got.Sends, want.Sends}, {got.Recvs, want.Recvs}} {
		g, w := pair[0], pair[1]
		if len(g) != len(w) {
			return fmt.Sprintf("%d messages of kind %d, want %d", len(g), i, len(w))
		}
		for k := range g {
			if g[k].Peer != w[k].Peer || g[k].Part != w[k].Part || g[k].N != w[k].N || !slices.Equal(g[k].Runs, w[k].Runs) {
				return fmt.Sprintf("message %d of kind %d is %+v, want %+v", k, i, g[k], w[k])
			}
		}
	}
	if !slices.Equal(got.Local, want.Local) {
		return fmt.Sprintf("local moves %v, want %v", got.Local, want.Local)
	}
	return ""
}

// TestHaloScheduleMatchesFullScan holds every rank's compiled halo
// schedule to the full-scan model byte for byte, and its replay to the
// direct derivation bit for bit, on the layouts where the owner-range
// search has edges: a halo wider than the neighbours' blocks (several
// peers per side), empty leading, interior and trailing blocks (extent
// below the axis length), a block-aligned coarse level, and sections.
func TestHaloScheduleMatchesFullScan(t *testing.T) {
	coarse := dist.BlockAligned{RootExtent: 16, Stride: 8} // 2 cells over 8: q5-q7 empty, Lower = n
	for _, tc := range []struct {
		name string
		g    *topology.Grid
		spec Spec
		view func(a *Array) *Array // the view to exchange
		dims []int
	}{
		{"wide halo", topology.New(8, 2), Spec{Extents: []int{20, 9}, Dists: []dist.Dist{dist.Block{}, dist.Block{}}, Halo: []int{5, 3}}, nil, nil},
		{"empty leading and interior blocks", topology.New(8, 2), Spec{Extents: []int{3, 7}, Dists: []dist.Dist{dist.Block{}, dist.Block{}}, Halo: []int{2, 1}}, nil, nil},
		{"empty trailing blocks", topology.New(8, 2), Spec{Extents: []int{2, 7}, Dists: []dist.Dist{coarse, dist.Block{}}, Halo: []int{1, 1}}, nil, nil},
		{"block aligned", topology.New(4, 4), Spec{Extents: []int{9, 17}, Dists: []dist.Dist{dist.BlockAligned{RootExtent: 17, Stride: 2}, dist.Block{}}, Halo: []int{2, 1}}, nil, []int{1, 0}},
		{"section of a star dim", topology.New(4, 4), Spec{Extents: []int{11, 13, 3}, Dists: []dist.Dist{dist.Block{}, dist.Block{}, dist.Star{}}, Halo: []int{2, 1, 0}},
			func(a *Array) *Array { return a.Section(2, 1) }, nil},
		{"section of a block dim", topology.New(4, 4), Spec{Extents: []int{11, 13}, Dists: []dist.Dist{dist.Block{}, dist.Block{}}, Halo: []int{1, 4}},
			func(a *Array) *Array { return a.Section(0, 6) }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			view := func(p *machine.Proc) *Array {
				a := New(p, tc.g, tc.spec)
				fillPattern(a)
				if tc.view != nil {
					return tc.view(a)
				}
				return a
			}
			m := machine.New(tc.g.Size(), machine.ZeroComm())
			if err := m.Run(func(p *machine.Proc) error {
				if a := view(p); a.Participates() {
					if diff := sameSchedule(a.haloSchedule(tc.dims), modelHalo(a, tc.dims)); diff != "" {
						t.Errorf("rank %d: %s", p.Rank(), diff)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, tc.name, tc.g.Size(), func(p *machine.Proc) []float64 {
				a := view(p)
				if !a.Participates() {
					return nil
				}
				a.ExchangeHalo(machine.RootScope(), tc.dims...)
				return snapshotLocal(a)
			})
		})
	}
}
