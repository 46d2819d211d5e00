// Package jacobi implements the paper's Section 2 example three ways:
//
//   - Sequential: plain Go, the paper's Listing 1.
//   - MessagePassing: hand-written sends and receives against the raw
//     simulated machine, the paper's Listing 2 — every guard, edge copy and
//     tag written out by hand, as an Occam-style programmer would.
//   - KF1: the kf runtime version, the paper's Listing 3 — a doall loop
//     with an owner-computes clause; all communication derived by the
//     runtime.
//
// The three produce bitwise-identical iterates, and the virtual-time cost
// of KF1 matches MessagePassing (claim C2: "there would be no difference
// between the execution time of algorithms expressed in KF1, and those
// expressed in a message passing language"), while the statement-count
// ratio between MessagePassing and Sequential reproduces claim C1.
package jacobi

import (
	_ "embed"
	"fmt"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/topology"
)

// Source is this file's own text, for the statement counts of claim C1
// (internal/loc), wherever the program runs.
//
//go:embed jacobi.go
var Source []byte

// Result carries a parallel Jacobi run's outputs: the gathered solution
// (only meaningful entries on success), the virtual time consumed by the
// iteration loop (max over processors, excluding the final verification
// gather), and the machine's aggregate statistics.
type Result struct {
	X       [][]float64
	Elapsed float64
	Stats   machine.Stats
}

// Sequential runs niter Jacobi sweeps for Poisson's equation on an NxN
// point grid (boundary points held fixed), the paper's Listing 1:
//
//	X(i,j) = 0.25*(X(i+1,j) + X(i-1,j) + X(i,j+1) + X(i,j-1)) - f(i,j)
//
// x0 is not modified; the final grid is returned.
func Sequential(x0, f [][]float64, niter int) [][]float64 {
	n := len(x0)
	x := cloneGrid(x0)
	tmp := cloneGrid(x0)
	for it := 0; it < niter; it++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				tmp[i][j] = x[i][j]
			}
		}
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				x[i][j] = 0.25*(tmp[i+1][j]+tmp[i-1][j]+tmp[i][j+1]+tmp[i][j-1]) - f[i][j]
			}
		}
		// Boundary rows feed the interior but are never overwritten, so
		// tmp's boundary must track x's (it does: both copies of x0).
	}
	return x
}

// KF1 runs the same iteration as a KF1 parallel subroutine on a pxp
// processor grid (the paper's Listing 3): X and f are (block, block)
// distributed and the sweep is a two-dimensional doall with an
// owner-computes on-clause. The returned grid is gathered onto rank 0.
func KF1(m *machine.Machine, g *topology.Grid, x0, f [][]float64, niter int) (Result, error) {
	var res Result
	err := kf.Exec(m, g, func(c *kf.Ctx) error {
		flat, elapsed := KF1Ctx(c, x0, f, niter)
		if c.P.Rank() == 0 {
			res.Elapsed = elapsed
			res.X = unflatten(flat, len(x0))
		}
		return nil
	})
	res.Stats = m.TotalStats()
	return res, err
}

// kf1State is a processor's state of KF1Ctx, kept on the root context
// across runs (kf.Declared) and rebuilt when the problem size changes: the
// declaration half — the distributed arrays and the compiled sweep — and
// the run in flight — its place in kf1Steps and its results.
type kf1State struct {
	x, fd *darray.Array
	sweep *kf.Stencil

	cont    kf.Cont
	elapsed float64
	flat    []float64
}

// kf1Args are a run's arguments: the problem and the sweep count.
type kf1Args struct {
	x0, f [][]float64
	niter int
}

func (a kf1Args) iters() int { return a.niter }

// kf1Steps is KF1Ctx's straight line, declared once for every processor:
// the arrays and the compiled sweep on the first run, the owned cells'
// fill, niter sweeps, the iteration loop's elapsed time (the clock's
// maximum over the grid) and the gather of X onto rank 0.
var kf1Steps = kf.Steps[kf1State, kf1Args]{
	{Do: (*kf1State).declare},
	{Do: (*kf1State).fill},
	{Do: (*kf1State).step, Times: kf1Args.iters},
	{Do: (*kf1State).reduceClock},
	{Do: (*kf1State).gather},
}

// KF1Ctx is the KF1 Jacobi iteration as a plain parallel subroutine body —
// the declare-once form a core.Program wraps to run the identical
// computation on any system. It returns the flat gathered solution on rank
// 0 (nil elsewhere) and the iteration loop's elapsed virtual time
// (excluding the verification gather; identical on every rank).
//
// The arrays and the compiled sweep are declared once per System: repeated
// runs re-fill the owned cells and replay the data motion without
// re-deriving distribution or communication. KF1Ctx is the blocking driver
// of kf1Steps, whose step form is KF1Step.
func KF1Ctx(c *kf.Ctx, x0, f [][]float64, niter int) (flat []float64, elapsed float64) {
	st := stateOf(c, len(x0), false)
	kf1Steps.Run(c, st, kf1Args{x0, f, niter}, &st.cont)
	return st.result()
}

// KF1Step is KF1Ctx's step form (kf.ExecSteps): the same steps, run until
// they end (done) or a receive would block (not done; call again with the
// same arguments and resume true once woken). resume is false on a run's
// first call.
func KF1Step(c *kf.Ctx, resume bool, x0, f [][]float64, niter int) (flat []float64, elapsed float64, done bool) {
	st := stateOf(c, len(x0), resume)
	if !kf1Steps.Step(c, st, kf1Args{x0, f, niter}, &st.cont) {
		return nil, 0, false
	}
	flat, elapsed = st.result()
	return flat, elapsed, true
}

// stateOf returns c's state for problem size n, at the start of kf1Steps
// unless the run in flight resumes.
func stateOf(c *kf.Ctx, n int, resume bool) *kf1State {
	st, _ := kf.Declared[kf1State](c, n)
	if !resume {
		st.cont = kf.Cont{}
	}
	return st
}

// result ends the run: its results, with the state holding no output past
// it.
func (st *kf1State) result() (flat []float64, elapsed float64) {
	flat, elapsed = st.flat, st.elapsed
	st.flat = nil
	return flat, elapsed
}

// declare builds the arrays and the sweep on the state's first run.
func (st *kf1State) declare(a kf1Args, c *kf.Ctx, _ *kf.Cursor) bool {
	if st.sweep == nil {
		st.build(c, len(a.x0))
	}
	return true
}

// fill (re)fills the owned cells, one copy per owned row; halo ghosts left
// over from a previous run are refreshed by the first sweep's exchange
// before any read.
func (st *kf1State) fill(a kf1Args, _ *kf.Ctx, _ *kf.Cursor) bool {
	st.x.OwnedRuns(func(idx []int, row []float64) { copy(row, a.x0[idx[0]][idx[1]:]) })
	st.fd.OwnedRuns(func(idx []int, row []float64) { copy(row, a.f[idx[0]][idx[1]:]) })
	return true
}

// step is one sweep: halo exchange and snapshots, then the statement over
// the owned rows.
func (st *kf1State) step(_ kf1Args, _ *kf.Ctx, k *kf.Cursor) bool { return st.sweep.Step(k) }

// reduceClock is the iteration loop's elapsed time: the clock's maximum.
func (st *kf1State) reduceClock(_ kf1Args, c *kf.Ctx, k *kf.Cursor) bool {
	v, ok := c.AllReduceMaxStep(k, c.P.Clock())
	st.elapsed = v
	return ok
}

// gather collects X onto rank 0 for verification.
func (st *kf1State) gather(_ kf1Args, c *kf.Ctx, k *kf.Cursor) bool {
	out, ok := c.GatherToStep(k, st.x, 0)
	if ok && c.P.Rank() == 0 {
		st.flat = out
	}
	return ok
}

// sweepStmt is the statement of Listing 3 over the parameters (X, f),
//
//	X(i,j) = 0.25*(X(i+1,j) + X(i-1,j) + X(i,j+1) + X(i,j-1)) - f(i,j)
//
// charged 5 flops a cell: declared once, for every processor of every
// System, and bound by each processor to its own arrays.
var sweepStmt = func() *kf.Statement {
	x, f := kf.Param(0), kf.Param(1)
	return kf.Assign(x, kf.Sub(kf.Scale(0.25, kf.Sum(x.Old(1, 0), x.Old(-1, 0), x.Old(0, 1), x.Old(0, -1))), f.Old(0, 0)))
}()

// build declares the arrays and compiles the sweep — halo schedule,
// snapshots, owned strip and the bound statement — once; each pass only
// replays the data motion and runs the statement over the owned rows.
func (st *kf1State) build(c *kf.Ctx, n int) {
	spec := darray.Spec{
		Extents: []int{n, n},
		Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
		Halo:    []int{1, 1},
	}
	st.x = c.NewArray(spec)
	spec.Halo = nil // f is read at the iteration's own cell only: no ghost cells
	st.fd = c.NewArray(spec)
	st.sweep = c.Plan2(kf.R(1, n-2), kf.R(1, n-2), kf.OnOwner2(st.x),
		kf.Reads(st.x), kf.ReadsNoHalo(st.fd)).Stencil(sweepStmt, st.x, st.fd)
}

// Tags for the hand-written message passing version, one per edge
// direction, exactly the four guarded send/receive pairs of Listing 2.
const (
	tagNorth = iota + 1 // to smaller i
	tagSouth            // to larger i
	tagWest             // to smaller j
	tagEast             // to larger j
	tagGather
)

// MessagePassing runs the same iteration written directly against the
// machine's send/receive primitives, following the paper's Listing 2: the
// programmer decomposes the array by hand, maintains a (m+2)x(m+2) local
// block with boundary rows, and writes one guarded send and receive per
// neighbor per iteration. g must be a square pxp grid and the array
// dimension must be divisible by p.
func MessagePassing(m *machine.Machine, g *topology.Grid, x0, f [][]float64, niter int) (Result, error) {
	n := len(x0)
	if g.Dims() != 2 || g.Extent(0) != g.Extent(1) {
		return Result{}, fmt.Errorf("jacobi: message passing version needs a square processor grid, got %v", g.Shape())
	}
	p := g.Extent(0)
	var res Result
	err := m.Run(func(pr *machine.Proc) error {
		coord, ok := g.CoordOf(pr.Rank())
		if !ok {
			return nil
		}
		ip, jp := coord[0], coord[1]
		// Hand strip-mining: this processor owns rows [ilo, ihi] and
		// columns [jlo, jhi] of the global array.
		ilo, ihi := ip*n/p, (ip+1)*n/p-1
		jlo, jhi := jp*n/p, (jp+1)*n/p-1
		mi, mj := ihi-ilo+1, jhi-jlo+1
		// Local block with one ghost layer all around.
		x := make([][]float64, mi+2)
		tmp := make([][]float64, mi+2)
		fl := make([][]float64, mi+2)
		for i := range x {
			x[i] = make([]float64, mj+2)
			tmp[i] = make([]float64, mj+2)
			fl[i] = make([]float64, mj+2)
		}
		for i := 0; i < mi; i++ {
			for j := 0; j < mj; j++ {
				x[i+1][j+1] = x0[ilo+i][jlo+j]
				fl[i+1][j+1] = f[ilo+i][jlo+j]
			}
		}
		// Fixed global boundary values live in the ghost layer for
		// blocks that touch the domain edge.
		if ilo == 0 {
			for j := 0; j < mj; j++ {
				x[0][j+1] = x0[0][jlo+j]
			}
		}
		if ihi == n-1 {
			for j := 0; j < mj; j++ {
				x[mi+1][j+1] = x0[n-1][jlo+j]
			}
		}
		if jlo == 0 {
			for i := 0; i < mi; i++ {
				x[i+1][0] = x0[ilo+i][0]
			}
		}
		if jhi == n-1 {
			for i := 0; i < mi; i++ {
				x[i+1][mj+1] = x0[ilo+i][n-1]
			}
		}
		row := make([]float64, mj)
		col := make([]float64, mi)
		for it := 0; it < niter; it++ {
			// Copy solution into the temporary array (including
			// ghosts, which hold either fixed boundary values or
			// last iteration's neighbor edges).
			for i := 0; i < mi+2; i++ {
				copy(tmp[i], x[i])
			}
			// Send edge values to the four neighbors, guarded as
			// in Listing 2.
			if ip > 0 {
				copy(row, x[1][1:mj+1])
				pr.Send(g.Rank(ip-1, jp), machine.TagOf(tagNorth, uint16(it)), row)
			}
			if ip < p-1 {
				copy(row, x[mi][1:mj+1])
				pr.Send(g.Rank(ip+1, jp), machine.TagOf(tagSouth, uint16(it)), row)
			}
			if jp > 0 {
				for i := 0; i < mi; i++ {
					col[i] = x[i+1][1]
				}
				pr.Send(g.Rank(ip, jp-1), machine.TagOf(tagWest, uint16(it)), col)
			}
			if jp < p-1 {
				for i := 0; i < mi; i++ {
					col[i] = x[i+1][mj]
				}
				pr.Send(g.Rank(ip, jp+1), machine.TagOf(tagEast, uint16(it)), col)
			}
			// Receive edge values from the four neighbors.
			if ip < p-1 {
				edge := pr.Recv(g.Rank(ip+1, jp), machine.TagOf(tagNorth, uint16(it)))
				copy(tmp[mi+1][1:mj+1], edge)
			}
			if ip > 0 {
				edge := pr.Recv(g.Rank(ip-1, jp), machine.TagOf(tagSouth, uint16(it)))
				copy(tmp[0][1:mj+1], edge)
			}
			if jp < p-1 {
				edge := pr.Recv(g.Rank(ip, jp+1), machine.TagOf(tagWest, uint16(it)))
				for i := 0; i < mi; i++ {
					tmp[i+1][mj+1] = edge[i]
				}
			}
			if jp > 0 {
				edge := pr.Recv(g.Rank(ip, jp-1), machine.TagOf(tagEast, uint16(it)))
				for i := 0; i < mi; i++ {
					tmp[i+1][0] = edge[i]
				}
			}
			// Update the solution, skipping global boundary points.
			for i := 1; i <= mi; i++ {
				gi := ilo + i - 1
				if gi == 0 || gi == n-1 {
					continue
				}
				for j := 1; j <= mj; j++ {
					gj := jlo + j - 1
					if gj == 0 || gj == n-1 {
						continue
					}
					x[i][j] = 0.25*(tmp[i+1][j]+tmp[i-1][j]+tmp[i][j+1]+tmp[i][j-1]) - fl[i][j]
					pr.Compute(5)
				}
			}
		}
		// Record the loop's finish time before the verification
		// gather (hand-coded max-reduction to rank 0 and broadcast).
		finish := maxReduce(pr, g, pr.Clock())
		// Gather the solution on rank 0 for verification.
		buf := make([]float64, 0, mi*mj)
		for i := 1; i <= mi; i++ {
			buf = append(buf, x[i][1:mj+1]...)
		}
		if pr.Rank() != g.Rank(0, 0) {
			pr.Send(g.Rank(0, 0), machine.TagOf(tagGather, uint16(ip), uint16(jp)), buf)
			return nil
		}
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, n)
		}
		for qi := 0; qi < p; qi++ {
			for qj := 0; qj < p; qj++ {
				blk := buf
				if qi != 0 || qj != 0 {
					blk = pr.Recv(g.Rank(qi, qj), machine.TagOf(tagGather, uint16(qi), uint16(qj)))
				}
				qlo, qhi := qi*n/p, (qi+1)*n/p-1
				rlo, rhi := qj*n/p, (qj+1)*n/p-1
				k := 0
				for i := qlo; i <= qhi; i++ {
					for j := rlo; j <= rhi; j++ {
						out[i][j] = blk[k]
						k++
					}
				}
			}
		}
		res.X = out
		res.Elapsed = finish
		return nil
	})
	res.Stats = m.TotalStats()
	return res, err
}

// maxReduce is a hand-written max-reduction to rank (0,0) followed by a
// broadcast — the kind of utility an Occam-style programmer writes by hand.
func maxReduce(pr *machine.Proc, g *topology.Grid, v float64) float64 {
	const tagUp, tagDown = 101, 102
	idx, _ := g.Index(pr.Rank())
	n := g.Size()
	acc := v
	for stride := 1; stride < n; stride *= 2 {
		if idx%(2*stride) == 0 {
			if idx+stride < n {
				o := pr.RecvValue(g.RankAt(idx+stride), machine.TagOf(tagUp, uint16(stride)))
				if o > acc {
					acc = o
				}
			}
		} else {
			pr.SendValue(g.RankAt(idx-stride), machine.TagOf(tagUp, uint16(stride)), acc)
			break
		}
	}
	if idx != 0 {
		stride := 1
		for ; idx%(2*stride) == 0; stride *= 2 {
		}
		acc = pr.RecvValue(g.RankAt(idx-stride), machine.TagOf(tagDown, uint16(stride)))
		for s := stride / 2; s >= 1; s /= 2 {
			if idx+s < n {
				pr.SendValue(g.RankAt(idx+s), machine.TagOf(tagDown, uint16(s)), acc)
			}
		}
	} else {
		top := 1
		for top < n {
			top *= 2
		}
		for s := top / 2; s >= 1; s /= 2 {
			if s < n {
				pr.SendValue(g.RankAt(s), machine.TagOf(tagDown, uint16(s)), acc)
			}
		}
	}
	return acc
}

func cloneGrid(src [][]float64) [][]float64 {
	out := make([][]float64, len(src))
	for i := range src {
		out[i] = append([]float64(nil), src[i]...)
	}
	return out
}

func unflatten(flat []float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n]
	}
	return out
}

// Problem builds a test problem: an NxN grid with boundary values g(i,j)
// and interior start 0, plus a right-hand side.
func Problem(n int) (x0, f [][]float64) {
	x0 = make([][]float64, n)
	f = make([][]float64, n)
	for i := range x0 {
		x0[i] = make([]float64, n)
		f[i] = make([]float64, n)
		for j := range x0[i] {
			if i == 0 || j == 0 || i == n-1 || j == n-1 {
				x0[i][j] = float64(i+j) / float64(2*n)
			}
			f[i][j] = -1.0 / float64(n*n)
		}
	}
	return x0, f
}
