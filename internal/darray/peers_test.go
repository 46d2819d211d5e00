package darray

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/topology"
)

// countingBlock is dist.Block counting its Owner, Lower and Upper calls in
// *n. Each rank declares its array with its own counter, so the count is
// the rank's own derivation, and the instances differ in content, so no
// rank adopts another's view class.
type countingBlock struct {
	dist.Block
	n *int
}

func (c countingBlock) Owner(i, n, P int) int { *c.n++; return c.Block.Owner(i, n, P) }
func (c countingBlock) Lower(q, n, P int) int { *c.n++; return c.Block.Lower(q, n, P) }
func (c countingBlock) Upper(q, n, P int) int { *c.n++; return c.Block.Upper(q, n, P) }

// TestHaloPeerSearchCount counts, per rank, the distribution calls a cold
// ExchangeHalo makes on a (block, block) array with 8 x 8 blocks and halo 1
// on Grid(8, 8), Grid(32, 32) and Grid(64, 64): the most any rank makes is
// the same on all three, since the peer search asks only about the owners
// of the block widened by the halo.
func TestHaloPeerSearchCount(t *testing.T) {
	first := 0
	for _, side := range []int{8, 32, 64} {
		n := 8 * side
		g := topology.New(side, side)
		calls := make([]int, g.Size())
		m := machine.New(g.Size(), machine.ZeroComm())
		if err := m.Run(func(p *machine.Proc) error {
			r := p.Rank()
			cb := countingBlock{n: new(int)}
			a := New(p, g, Spec{Extents: []int{n, n}, Dists: []dist.Dist{cb, cb}, Halo: []int{1, 1}})
			before := *cb.n
			a.ExchangeHalo(machine.RootScope())
			calls[r] = *cb.n - before
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		most := 0
		for _, c := range calls {
			most = max(most, c)
		}
		t.Logf("Grid(%d, %d): at most %d distribution calls per rank", side, side, most)
		// Per axis, an interior rank's sends take two Owner calls and a
		// Lower and an Upper for each of its two neighbours, and its
		// receives three calls per side: 24 in all. (4 P_axis + 8 while
		// the search visited every processor along the axis: 264 on
		// Grid(64, 64).)
		if most > 24 {
			t.Errorf("Grid(%d, %d): a rank made %d distribution calls, want at most 24", side, side, most)
		}
		if side == 8 {
			first = most
		} else if most != first {
			t.Errorf("Grid(%d, %d): %d distribution calls per rank, %d on Grid(8, 8): the count grows with P_axis", side, side, most, first)
		}
	}
}
