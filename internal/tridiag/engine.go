// Package tridiag implements the paper's Section 3: parallel solution of
// tridiagonal systems on a loosely coupled architecture by the
// substructured ("spike"-variant) divide and conquer algorithm, both one
// system at a time (Listing 4) and pipelined over many systems
// (Listing 6), plus the gather-to-one-processor baseline and the sequential
// reference used by the experiments.
//
// The algorithm: each processor owns a block of rows. A local boundary
// reduction (kernels.Reduce) eliminates the block's interior, leaving two
// boundary rows per processor — the highlighted rows of Figure 1 — which
// form a tridiagonal system of size 2p. log2(p) tree steps follow: at each
// step the boundary rows are mailed pairwise to half as many processors,
// each of which reduces four adjacent rows to two (Figure 2), until a
// four-row system remains and is solved by the Thomas algorithm. The
// substitution phase retraces the tree: solved boundary pairs flow down,
// each processor back-substituting its saved reduced block (Figure 4).
// Active processors halve each reduction step and double each substitution
// step — the dataflow graph of Figure 3.
//
// The step-to-processor assignment is a Mapping; the default is the
// shuffle/unshuffle mapping of Figure 5, whose disjoint processor groups
// let m systems pipeline through the tree like a systolic array — exactly
// why the paper calls the mapping "advantageous when there are multiple
// tridiagonal systems to be solved". PackedMapping is the naive
// alternative the ablation experiment compares against.
//
// The pipeline has one implementation, a resumable cursor: a Solve holds
// one call's systems, saved blocks and place in the schedule, and the
// job's step advances it until a receive would block (Proc.TryRecv).
// TriCStep and MTriCStep hand that step to callers that run as steps
// (ADI's line solves through kf's Plan1.Step, madi's solve per grid
// slice); every blocking front end (Tri, TriC, MTriC, ...) is the same
// step driven to the end with Proc.Wait.
package tridiag

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/topology"
)

// localSystem is one tridiagonal system's per-processor state: the owned
// block of coefficient rows (modified in place by the reduction) and the
// solution output.
type localSystem struct {
	b, a, c, f []float64
	x          []float64
}

// treeBlock is a saved four-row reduced block awaiting substitution.
type treeBlock struct {
	b, a, c, f [4]float64
}

// Message parts within a (system, level) scope.
const (
	partReduce = 1 // boundary rows flowing up the tree
	partSubst  = 2 // solved pairs flowing down the tree
)

// solverScratch pools the solver's per-call state on one simulated
// processor — line-solve coefficient slices, the systems slice, the saved
// reduced blocks and their list, and the tree-role lists — registered via
// Proc.Scratch so iterative drivers (ADI sweeps, multigrid line smoothers)
// reuse it across thousands of line solves instead of reallocating per
// system.
type solverScratch struct {
	bufs    [][]float64
	systems []localSystem
	saved   []savedBlock
	blocks  []*treeBlock
	roles   map[[3]int][][2]int // (mapping, grid index, k) -> cached role list
}

// scratchKey is the Proc.Scratch registration key of this package.
type scratchKey struct{}

func scratchOf(p *machine.Proc) *solverScratch {
	return p.Scratch(scratchKey{}, func() any {
		return &solverScratch{
			bufs:   make([][]float64, 0, 16),
			blocks: make([]*treeBlock, 0, 8),
		}
	}).(*solverScratch)
}

// take returns a float64 slice of length n with unspecified contents,
// reusing pooled capacity when possible; give returns one to the pool.
func (s *solverScratch) take(n int) []float64 {
	for i := len(s.bufs) - 1; i >= 0; i-- {
		if cap(s.bufs[i]) >= n {
			b := s.bufs[i]
			last := len(s.bufs) - 1
			s.bufs[i] = s.bufs[last]
			s.bufs[last] = nil
			s.bufs = s.bufs[:last]
			return b[:n]
		}
	}
	return make([]float64, n)
}

func (s *solverScratch) give(b []float64) {
	if cap(b) > 0 {
		s.bufs = append(s.bufs, b)
	}
}

func (s *solverScratch) takeBlock() *treeBlock {
	if k := len(s.blocks); k > 0 {
		tb := s.blocks[k-1]
		s.blocks = s.blocks[:k-1]
		return tb
	}
	return &treeBlock{}
}

func (s *solverScratch) giveBlock(tb *treeBlock) { s.blocks = append(s.blocks, tb) }

// rolesOf returns the (cached) tree duties of grid index me.
func (s *solverScratch) rolesOf(mapping Mapping, me, k int) [][2]int {
	key := [3]int{int(mapping), me, k}
	if r, ok := s.roles[key]; ok {
		return r
	}
	if s.roles == nil {
		s.roles = make(map[[3]int][][2]int)
	}
	r := mapping.roles(me, k)
	s.roles[key] = r
	return r
}

// takeSystems returns a reusable localSystem slice of length n. The slice
// is checked out of the scratch (a solve begun while another is in flight
// falls back to a fresh allocation) and returned by releaseSystems.
func takeSystems(p *machine.Proc, n int) []localSystem {
	s := scratchOf(p)
	sys := s.systems
	s.systems = nil
	if cap(sys) < n {
		sys = make([]localSystem, n)
	}
	return sys[:n]
}

// releaseSystems returns every line-solve slice and the systems slice
// itself to the processor's pool. Call it only after the solutions have
// been copied out of the systems.
func releaseSystems(p *machine.Proc, systems []localSystem) {
	s := scratchOf(p)
	for j := range systems {
		sys := &systems[j]
		s.give(sys.b)
		s.give(sys.a)
		s.give(sys.c)
		s.give(sys.f)
		s.give(sys.x)
		systems[j] = localSystem{}
	}
	s.systems = systems[:0]
}

// log2Exact returns log2(p) for exact powers of two and ok=false otherwise.
func log2Exact(p int) (int, bool) {
	if p <= 0 || p&(p-1) != 0 {
		return 0, false
	}
	k := 0
	for v := p; v > 1; v >>= 1 {
		k++
	}
	return k, true
}

// savedBlock is the reduced block a tree role keeps from its reduction of
// system j at a level until it substitutes there.
type savedBlock struct {
	level, j int
	tb       *treeBlock
}

// Solve is one call of the substructured solver in progress on one
// processor: the state its caller holds between the call's steps. It
// keeps the call's message scope, grid and tree roles, the systems (their
// owned rows, reduced in place, and their solutions) and the reduced blocks
// the roles keep for substitution — both checked out of the processor's
// pooled scratch — and its place in the pipeline. The zero value is a
// solve not yet begun; the step that finishes a solve returns the scratch
// and resets its Solve to zero.
type Solve struct {
	sc      machine.Scope
	begun   bool
	g       *topology.Grid
	mapping Mapping
	marks   bool
	me, k   int
	roles   [][2]int
	systems []localSystem
	saved   []savedBlock
	pos     pipePos
}

// pipePos is a solve's place in the pipeline: the pipeline step, the stage
// within it, the tree role in flight and, in a tree reduction, how many of
// the two children's boundary-row pairs have arrived, and the rows.
type pipePos struct {
	t, stage, role, got int
	rows                [4][4]float64
}

// The stages of one pipeline step t, in order.
const (
	stageLocal = iota // local boundary reduction of system t, sent up
	stageTree         // tree reductions at the processor's roles
	stageFinal        // the four-row solve (grid index 0), sent down
	stageSubst        // tree substitutions at the roles, innermost first
	stageBack         // local back-substitution of system t-2k
)

// begin checks the solve on grid g and takes its scratch: each system's
// owned rows copied in, the tree roles and the saved-block list. Every
// processor of g must begin the same number of systems.
func (jb job) begin(p *machine.Proc, g *topology.Grid, s *Solve) error {
	if len(jb.xs) != len(jb.fs) {
		return fmt.Errorf("tridiag: %d solution arrays for %d right-hand sides", len(jb.xs), len(jb.fs))
	}
	s.begun, s.g, s.mapping, s.marks = true, g, jb.mapping, jb.marks
	s.systems = takeSystems(p, len(jb.xs))
	for j := range s.systems {
		s.systems[j] = jb.buildLocal(p, j)
	}
	P := g.Size()
	me, ok := g.Index(p.Rank())
	if !ok {
		return fmt.Errorf("tridiag: processor %d not in solver grid", p.Rank())
	}
	if P == 1 {
		return nil
	}
	k, pow2 := log2Exact(P)
	if !pow2 {
		return fmt.Errorf("tridiag: substructured solver needs a power-of-two grid, got %d (use SolveGather)", P)
	}
	for j := range s.systems {
		if len(s.systems[j].a) < 2 {
			return fmt.Errorf("tridiag: local block of system %d has %d rows; need at least 2 (use SolveGather)", j, len(s.systems[j].a))
		}
	}
	scr := scratchOf(p)
	s.me, s.k, s.roles = me, k, scr.rolesOf(jb.mapping, me, k)
	s.saved, scr.saved = scr.saved[:0], nil
	return nil
}

// release returns the solve's scratch to the processor's pool and resets
// s to a solve not yet begun.
func (s *Solve) release(p *machine.Proc) {
	if s.systems != nil {
		releaseSystems(p, s.systems)
	}
	if s.saved != nil {
		scratchOf(p).saved = s.saved[:0]
	}
	*s = Solve{}
}

// pipeline runs the systems through the mapping's schedule from s.pos:
// system j enters tree level s at step j+s, is final-solved at step j+k,
// and is substituted at level s at step j+2k-s. With one system this is
// Listing 4; with many it is Listing 6's pipeline. It reports false where
// a receive would block (p.TryRecv), with s.pos at that receive, which the
// next call repeats first; nothing before it is done again.
func (s *Solve) pipeline(p *machine.Proc) bool {
	systems := s.systems
	m := len(systems)
	if s.g.Size() == 1 {
		for j := range systems {
			sys := &systems[j]
			kernels.Thomas(p, sys.b, sys.a, sys.c, sys.f, sys.x)
		}
		return true
	}
	k, me, roles, pos := s.k, s.me, s.roles, &s.pos
	scr := scratchOf(p)
	for ; pos.t < m+2*k; pos.t, pos.stage = pos.t+1, stageLocal {
		t := pos.t
		if pos.stage == stageLocal {
			if s.marks {
				p.Mark(fmt.Sprintf("step:%d", t))
			}
			if t < m {
				sys := &systems[t]
				kernels.Reduce(p, sys.b, sys.a, sys.c, sys.f)
				n := len(sys.a)
				s.sendUp(p, t, 0, me, sys.b[0], sys.a[0], sys.c[0], sys.f[0],
					sys.b[n-1], sys.a[n-1], sys.c[n-1], sys.f[n-1])
			}
			pos.stage, pos.role = stageTree, 0
		}
		if pos.stage == stageTree {
			for ; pos.role < len(roles); pos.role++ {
				level, blk := roles[pos.role][0], roles[pos.role][1]
				j := t - level
				if j < 0 || j >= m {
					continue
				}
				if !s.recvRows(p, j, level, blk) {
					return false
				}
				tb := scr.takeBlock()
				for r, row := range pos.rows {
					tb.b[r], tb.a[r], tb.c[r], tb.f[r] = row[0], row[1], row[2], row[3]
				}
				kernels.Reduce(p, tb.b[:], tb.a[:], tb.c[:], tb.f[:])
				s.saved = append(s.saved, savedBlock{level, j, tb})
				s.sendUp(p, j, level, blk, tb.b[0], tb.a[0], tb.c[0], tb.f[0],
					tb.b[3], tb.a[3], tb.c[3], tb.f[3])
			}
			pos.stage = stageFinal
		}
		if pos.stage == stageFinal {
			if j := t - k; me == 0 && j >= 0 && j < m {
				if !s.recvRows(p, j, k, 0) {
					return false
				}
				var b4, a4, c4, f4, x4 [4]float64
				for r, row := range pos.rows {
					b4[r], a4[r], c4[r], f4[r] = row[0], row[1], row[2], row[3]
				}
				kernels.Thomas(p, b4[:], a4[:], c4[:], f4[:], x4[:])
				s.sendDown(p, j, k, 0, x4)
			}
			pos.stage, pos.role = stageSubst, len(roles)-1
		}
		if pos.stage == stageSubst {
			for ; pos.role >= 0; pos.role-- {
				level, blk := roles[pos.role][0], roles[pos.role][1]
				j := t - (2*k - level)
				if j < 0 || j >= m {
					continue
				}
				xF, xL, ok := s.recvPair(p, j, level, blk)
				if !ok {
					return false
				}
				tb := s.takeSaved(level, j)
				var x4 [4]float64
				kernels.BackSubstitute(p, tb.b[:], tb.a[:], tb.c[:], tb.f[:], xF, xL, x4[:])
				s.sendDown(p, j, level, blk, x4)
				scr.giveBlock(tb)
			}
			pos.stage = stageBack
		}
		if j := t - 2*k; j >= 0 && j < m {
			xF, xL, ok := s.recvPair(p, j, 0, me)
			if !ok {
				return false
			}
			sys := &systems[j]
			kernels.BackSubstitute(p, sys.b, sys.a, sys.c, sys.f, xF, xL, sys.x)
		}
	}
	return true
}

// scopeOf is the message scope of system j at a tree level.
func (s *Solve) scopeOf(j, level int) machine.Scope { return s.sc.Child(level, j) }

// sendUp mails a block's two boundary rows to the level above, in a pooled
// buffer released by the receiver.
func (s *Solve) sendUp(p *machine.Proc, j, level, blk int, b0, a0, c0, f0, b1, a1, c1, f1 float64) {
	dst := s.mapping.holder(level+1, blk/2, s.k)
	buf := p.AcquireBuf(9)
	buf[0] = float64(blk % 2)
	buf[1], buf[2], buf[3], buf[4] = b0, a0, c0, f0
	buf[5], buf[6], buf[7], buf[8] = b1, a1, c1, f1
	p.SendOwned(s.g.RankAt(dst), s.scopeOf(j, level+1).Tag(partReduce), buf)
}

// recvRows assembles in s.pos.rows the four rows a holder at the given
// level works on: two boundary rows from each of its two children, in
// order. False where a receive would block; the rows that arrived stay.
func (s *Solve) recvRows(p *machine.Proc, j, level, blk int) bool {
	pos := &s.pos
	for ; pos.got < 2; pos.got++ {
		src := s.mapping.holder(level-1, 2*blk+pos.got, s.k)
		buf, ok := p.TryRecv(s.g.RankAt(src), s.scopeOf(j, level).Tag(partReduce))
		if !ok {
			return false
		}
		half := int(buf[0])
		copy(pos.rows[2*half][:], buf[1:5])
		copy(pos.rows[2*half+1][:], buf[5:9])
		p.ReleaseBuf(buf)
	}
	pos.got = 0
	return true
}

// sendDown distributes a solved block's four values to its two children
// one level below, each of which needs its (xFirst, xLast).
func (s *Solve) sendDown(p *machine.Proc, j, level, blk int, x4 [4]float64) {
	for n := 0; n < 2; n++ {
		child := s.mapping.holder(level-1, 2*blk+n, s.k)
		buf := p.AcquireBuf(2)
		buf[0], buf[1] = x4[2*n], x4[2*n+1]
		p.SendOwned(s.g.RankAt(child), s.scopeOf(j, level-1).Tag(partSubst), buf)
	}
}

// recvPair receives a block's solved boundary values from the holder one
// level up; ok is false where the receive would block.
func (s *Solve) recvPair(p *machine.Proc, j, level, blk int) (xFirst, xLast float64, ok bool) {
	parent := s.mapping.holder(level+1, blk/2, s.k)
	buf, ok := p.TryRecv(s.g.RankAt(parent), s.scopeOf(j, level).Tag(partSubst))
	if !ok {
		return 0, 0, false
	}
	xFirst, xLast = buf[0], buf[1]
	p.ReleaseBuf(buf)
	return xFirst, xLast, true
}

// takeSaved removes and returns the block kept from the reduction of
// system j at a level.
func (s *Solve) takeSaved(level, j int) *treeBlock {
	for i, e := range s.saved {
		if e.level == level && e.j == j {
			last := len(s.saved) - 1
			s.saved[i] = s.saved[last]
			s.saved = s.saved[:last]
			return e.tb
		}
	}
	panic(fmt.Sprintf("tridiag: no block kept for system %d at level %d", j, level))
}
