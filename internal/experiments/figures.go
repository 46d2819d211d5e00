package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/tridiag"
)

// structureString renders the nonzero structure of a block-reduced
// tridiagonal system as a character matrix: 'a' diagonal, 'b'/'c' the
// couplings, '.' zero — the visual form of the paper's Figures 1 and 2.
// blocks lists the block boundaries; reduced tells whether kernels.Reduce
// has been applied (which changes which columns carry the couplings).
func structureString(n int, blockOf func(i int) (lo, hi int), reduced bool) string {
	grid := make([][]byte, n)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", n))
	}
	set := func(i, j int, ch byte) {
		if j >= 0 && j < n {
			grid[i][j] = ch
		}
	}
	for i := 0; i < n; i++ {
		lo, hi := blockOf(i)
		set(i, i, 'a')
		if !reduced {
			set(i, i-1, 'b')
			set(i, i+1, 'c')
			continue
		}
		switch i {
		case lo:
			set(i, lo-1, 'b')
			set(i, hi, 'c')
		case hi:
			set(i, lo, 'b')
			set(i, hi+1, 'c')
		default:
			set(i, lo, 'b')
			set(i, hi, 'c')
		}
	}
	var sb strings.Builder
	for i := range grid {
		sb.Write(grid[i])
		sb.WriteString("\n")
	}
	return sb.String()
}

// f1FirstReduction regenerates Figure 1: the structure of an n-row system
// distributed over p processors before and after the first local reduction,
// and verifies numerically that the boundary rows form a tridiagonal system
// of size 2p whose solution agrees with the full solve.
func f1FirstReduction(*env) Result {
	const n, p = 16, 4
	blockOf := func(i int) (int, int) {
		q := dist.Block{}.Owner(i, n, p)
		return dist.Block{}.Lower(q, n, p), dist.Block{}.Upper(q, n, p)
	}
	var sb strings.Builder
	sb.WriteString("before first reduction step (p=4 row blocks):\n")
	sb.WriteString(structureString(n, blockOf, false))
	sb.WriteString("after first reduction step (rows l_i, u_i highlighted by their couplings):\n")
	sb.WriteString(structureString(n, blockOf, true))

	// Numeric check: reduce each block, assemble the 2p boundary system,
	// solve it, and compare boundary values with the full Thomas solve.
	b, a, c, f := randTridiag(11, n)
	want := make([]float64, n)
	kernels.Thomas(nil, b, a, c, f, want)
	var rb, ra, rc, rf []float64
	var boundaryIdx []int
	for q := 0; q < p; q++ {
		lo, hi := q*n/p, (q+1)*n/p-1
		k := hi - lo + 1
		bb := append([]float64(nil), b[lo:hi+1]...)
		ba := append([]float64(nil), a[lo:hi+1]...)
		bc := append([]float64(nil), c[lo:hi+1]...)
		bf := append([]float64(nil), f[lo:hi+1]...)
		kernels.Reduce(nil, bb, ba, bc, bf)
		rb = append(rb, bb[0], bb[k-1])
		ra = append(ra, ba[0], ba[k-1])
		rc = append(rc, bc[0], bc[k-1])
		rf = append(rf, bf[0], bf[k-1])
		boundaryIdx = append(boundaryIdx, lo, hi)
	}
	xb := make([]float64, 2*p)
	kernels.Thomas(nil, rb, ra, rc, rf, xb)
	worst := 0.0
	for k, i := range boundaryIdx {
		if d := math.Abs(xb[k] - want[i]); d > worst {
			worst = d
		}
	}
	fmt.Fprintf(&sb, "reduced 2p = %d row system solves boundary values to max error %.2e\n", 2*p, worst)
	return Result{
		Text: sb.String(),
		Metrics: map[string]float64{
			"boundary_error": worst,
			"reduced_rows":   float64(2 * p),
		},
	}
}

// f2FourRowReduction regenerates Figure 2: one four-row block reduces so
// that its first and last rows couple directly.
func f2FourRowReduction(*env) Result {
	blockOf := func(i int) (int, int) { return 0, 3 }
	var sb strings.Builder
	sb.WriteString("four rows before reduction:\n")
	sb.WriteString(structureString(4, blockOf, false))
	sb.WriteString("after reduction (rows 0 and 3 couple directly; interiors depend on x0, x3 only):\n")
	sb.WriteString(structureString(4, blockOf, true))

	b, a, c, f := randTridiag(23, 4)
	want := make([]float64, 4)
	kernels.Thomas(nil, b, a, c, f, want)
	kernels.Reduce(nil, b, a, c, f)
	det := a[0]*a[3] - c[0]*b[3]
	x0 := (f[0]*a[3] - c[0]*f[3]) / det
	x3 := (a[0]*f[3] - f[0]*b[3]) / det
	errB := math.Max(math.Abs(x0-want[0]), math.Abs(x3-want[3]))
	got := make([]float64, 4)
	kernels.BackSubstitute(nil, b, a, c, f, x0, x3, got)
	errI := maxAbsDiff(got, want)
	fmt.Fprintf(&sb, "boundary solve error %.2e, interior recovery error %.2e\n", errB, errI)
	return Result{
		Text: sb.String(),
		Metrics: map[string]float64{
			"boundary_error": errB,
			"interior_error": errI,
		},
	}
}

// f3Dataflow regenerates Figure 3: the dataflow graph of the substructured
// algorithm, as the count of active processors per algorithm step —
// halving through the reduction phase, doubling through substitution.
func f3Dataflow(e *env) Result {
	const p, n = 8, 64
	sys, _ := e.tri(p, n, triSystems{seed: 7}, triMarked, core.Trace())
	steps, active := sys.Trace.StepActivity("step:")
	counts := trace.ActiveCounts(active)
	var sb strings.Builder
	sb.WriteString("active processors per step (reduction then substitution):\n")
	for k, s := range steps {
		fmt.Fprintf(&sb, "step %2d: %2d  %s\n", s, counts[k], strings.Repeat("*", counts[k]))
	}
	metrics := map[string]float64{}
	for k := range steps {
		metrics[fmt.Sprintf("step%d", steps[k])] = float64(counts[k])
	}
	return Result{Text: sb.String(), Metrics: metrics}
}

// f4Substitution regenerates Figure 4: the substitution phase recovers the
// interior values from the boundary pair; across many random systems and
// grid sizes the parallel solver matches the sequential Thomas solve.
func f4Substitution(e *env) Result {
	var sb strings.Builder
	worstAll := 0.0
	for _, p := range []int{2, 4, 8} {
		const n = 48
		seed := uint64(p) * 101
		want := tridiag.SolveSeq(randTridiag(seed, n))
		var got []float64
		e.tri(p, n, triSystems{seed: seed}, func(c *kf.Ctx, xs, fs, bs, as, cs []*darray.Array) error {
			if err := tridiag.MTri(c, xs, fs, bs, as, cs); err != nil {
				return err
			}
			flat := xs[0].GatherTo(c.NextScope(), 0)
			if c.P.Rank() == 0 {
				got = flat
			}
			return nil
		}, core.Cost(machine.ZeroComm()))
		d := maxAbsDiff(got, want)
		fmt.Fprintf(&sb, "p=%d: max |x_parallel - x_thomas| = %.2e\n", p, d)
		if d > worstAll {
			worstAll = d
		}
	}
	return Result{Text: sb.String(), Metrics: map[string]float64{"max_error": worstAll}}
}

// f5Mapping regenerates Figure 5: the shuffle/unshuffle mapping of the
// dataflow graph onto processor groups, shown as a step-by-processor
// activity table for one system, and the same table once a pipeline of
// systems fills the groups.
func f5Mapping(e *env) Result {
	const p, n, msys = 8, 128, 8
	var sb strings.Builder

	sys1, elapsed1 := e.tri(p, n, triSystems{seed: 7}, triMarked, core.Trace())
	steps, active := sys1.Trace.StepActivity("step:")
	sb.WriteString("one system (Listing 4): levels occupy disjoint processor groups\n")
	sb.WriteString(trace.ActivityTable(steps, active))
	uSingle := sys1.Trace.MeanUtilization(elapsed1)

	// Pipelined: msys systems through MTriC with marks.
	sys2, elapsed2 := e.run([]int{p}, func(ctx *kf.Ctx) error {
		xs := make([]*darray.Array, msys)
		fs := make([]*darray.Array, msys)
		for j := 0; j < msys; j++ {
			fvec := make([]float64, n)
			for i := range fvec {
				fvec[i] = float64((i*j)%11) - 5
			}
			fa := ctx.NewArray(darray.Spec{Extents: []int{n}, Dists: []dist.Dist{dist.Block{}}})
			fv := fvec
			fa.OwnedRuns(func(idx []int, vals []float64) { copy(vals, fv[idx[0]:]) })
			xs[j] = ctx.NewArray(darray.Spec{Extents: []int{n}, Dists: []dist.Dist{dist.Block{}}})
			fs[j] = fa
		}
		return tridiag.MTriCTraced(ctx, xs, fs, -1, 4, -1, true)
	}, core.Trace())
	steps2, active2 := sys2.Trace.StepActivity("step:")
	fmt.Fprintf(&sb, "\n%d systems pipelined (Listing 6): groups overlap in time\n", msys)
	sb.WriteString(trace.ActivityTable(steps2, active2))
	uPipe := sys2.Trace.MeanUtilization(elapsed2)
	fmt.Fprintf(&sb, "mean utilization: single %.3f, pipelined %.3f\n", uSingle, uPipe)
	return Result{
		Text: sb.String(),
		Metrics: map[string]float64{
			"util_single":    uSingle,
			"util_pipelined": uPipe,
		},
	}
}
