package experiments

import (
	"fmt"

	"repro/internal/adi"
	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/multigrid"
	"repro/internal/report"
)

// e4ADI verifies the ADI driver (Listing 7): the parallel iterates match
// the sequential ones and the residual history contracts.
func e4ADI(e *env) Result {
	par := adi.Params{N: 24, A: 1, B: 1, Iters: 8}
	f := adi.TestProblem(par.N)
	seqU, seqHist := adi.Sequential(par, f)

	sys := e.sys([]int{2, 2})
	res := must(adi.Parallel(sys.Machine, sys.Procs, par, f, false))
	worst := maxAbsDiffRows(res.U, seqU)
	var sb string
	sb += report.Series("sequential residual", seqHist)
	sb += report.Series("parallel residual  ", res.ResNorm)
	sb += fmt.Sprintf("max |u_par - u_seq| = %.2e after %d iterations\n", worst, par.Iters)
	factor := seqHist[len(seqHist)-1] / seqHist[len(seqHist)-2]
	return Result{
		Text: sb,
		Metrics: map[string]float64{
			"maxdiff":      worst,
			"final_factor": factor,
			"final_res":    res.ResNorm[len(res.ResNorm)-1],
		},
	}
}

// e5MADI sweeps ADI versus pipelined MADI (Listing 8) over problem sizes
// and grids, the claim-C4 experiment for two-dimensional tensor product
// computations.
func e5MADI(e *env) Result {
	tbl := report.NewTable("ADI vs pipelined MADI, 3 iterations (iPSC/2 costs)",
		"interior n", "grid", "adi (s)", "madi (s)", "ratio")
	metrics := map[string]float64{}
	for _, cfg := range []struct {
		n, px, py int
	}{
		{16, 2, 2}, {32, 2, 2}, {64, 2, 2}, {32, 2, 4}, {64, 4, 4},
	} {
		par := adi.Params{N: cfg.n, A: 1, B: 1, Iters: 3}
		f := adi.TestProblem(par.N)
		sys1 := e.sys([]int{cfg.px, cfg.py})
		plain := must(adi.Parallel(sys1.Machine, sys1.Procs, par, f, false))
		sys2 := e.sys([]int{cfg.px, cfg.py})
		piped := must(adi.Parallel(sys2.Machine, sys2.Procs, par, f, true))
		ratio := plain.Elapsed / piped.Elapsed
		tbl.AddRow(cfg.n, fmt.Sprintf("%dx%d", cfg.px, cfg.py), plain.Elapsed, piped.Elapsed, ratio)
		metrics[fmt.Sprintf("ratio_n%d_p%dx%d", cfg.n, cfg.px, cfg.py)] = ratio
	}
	tbl.AddNote("madi pipelines each slice's line solves through one tree (paper Listing 8)")
	return Result{Text: tbl.String(), Metrics: metrics}
}

// e6Multigrid records the convergence factors of MG2 and MG3 and checks
// parallel/sequential agreement — the qualitative content of Section 5.
func e6Multigrid(e *env) Result {
	var text string
	metrics := map[string]float64{}

	// MG2 on 32x32, sequential and 4 processors.
	hist2 := e.mg2(1, 32)
	text += report.Series("MG2 32x32 residual (1 proc)", hist2)
	f2 := hist2[len(hist2)-1] / hist2[len(hist2)-2]
	metrics["mg2_factor"] = f2

	hist2p := e.mg2(4, 32)
	text += report.Series("MG2 32x32 residual (4 proc)", hist2p)
	metrics["mg2_par_vs_seq"] = relDiff(hist2, hist2p)

	// MG3 on 16^3 with 1 and 2 plane cycles.
	hist3 := e.mg3(1, 16, dist.Star{}, dist.Star{}, dist.Block{}, 1)
	text += report.Series("MG3 16^3 residual (1 plane cycle) ", hist3)
	metrics["mg3_factor_pc1"] = hist3[len(hist3)-1] / hist3[len(hist3)-2]

	hist3b := e.mg3(1, 16, dist.Star{}, dist.Star{}, dist.Block{}, 2)
	text += report.Series("MG3 16^3 residual (2 plane cycles)", hist3b)
	metrics["mg3_factor_pc2"] = hist3b[len(hist3b)-1] / hist3b[len(hist3b)-2]

	text += fmt.Sprintf("asymptotic V-cycle factors: MG2 %.3f, MG3 %.3f (1 plane cycle), %.3f (2)\n",
		f2, metrics["mg3_factor_pc1"], metrics["mg3_factor_pc2"])
	return Result{Text: text, Metrics: metrics}
}

func relDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if a[i] != 0 {
			d /= a[i]
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

func (e *env) mg2(nprocs, n int) []float64 {
	var hist []float64
	e.run([]int{nprocs}, func(c *kf.Ctx) error {
		u, f := mgProblem2(c, n)
		h := multigrid.Solve2(c, u, f, multigrid.Default2D(n, n), 8)
		if c.P.Rank() == 0 {
			hist = h
		}
		return nil
	}, core.Cost(machine.ZeroComm()))
	return hist
}

func (e *env) mg3(nprocs, n int, dx, dy, dz dist.Dist, planeCycles int) []float64 {
	var hist []float64
	e.run([]int{nprocs}, func(c *kf.Ctx) error {
		u, f := mgProblem3(c, n, dx, dy, dz)
		par := multigrid.Default3D(n, n, n)
		par.PlaneCycles = planeCycles
		h := multigrid.Solve3(c, u, f, par, 6)
		if c.P.Rank() == 0 {
			hist = h
		}
		return nil
	}, core.Cost(machine.ZeroComm()))
	return hist
}

// e7Distribution is the claim-C3 ablation: MG3 under three dist clauses.
// The code is identical; only the one-line Spec changes. The table reports
// where the time goes under realistic costs.
func e7Distribution(e *env) Result {
	const n = 16
	tbl := report.NewTable("MG3 16^3, 2 V-cycles under different dist clauses (iPSC/2 costs, 4 processors)",
		"dist clause", "grid", "virtual time (s)", "msgs", "bytes", "final residual")
	metrics := map[string]float64{}
	type variant struct {
		name       string
		shape      []int
		dx, dy, dz dist.Dist
	}
	for _, v := range []variant{
		{"(*, block, block)", []int{2, 2}, dist.Star{}, dist.Block{}, dist.Block{}},
		{"(*, *, block)", []int{4}, dist.Star{}, dist.Star{}, dist.Block{}},
		{"(block, block, *)", []int{2, 2}, dist.Block{}, dist.Block{}, dist.Star{}},
	} {
		var final float64
		sys, elapsed := e.run(v.shape, func(c *kf.Ctx) error {
			u, f := mgProblem3(c, n, v.dx, v.dy, v.dz)
			h := multigrid.Solve3(c, u, f, multigrid.Default3D(n, n, n), 2)
			if c.P.Rank() == 0 {
				final = h[len(h)-1]
			}
			return nil
		})
		st := sys.Stats()
		tbl.AddRow(v.name, sys.Procs.String(), elapsed, st.MsgsSent, st.BytesSent, final)
		metrics["time_"+sanitize(v.name)] = elapsed
	}
	tbl.AddNote("one-line dist change moves the parallelism between levels of the nested algorithm (claim C3)")
	return Result{Text: tbl.String(), Metrics: metrics}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case '(', ')', ' ', ',':
		case '*':
			out = append(out, 's')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// mgProblem2 builds the standard 2-D multigrid test problem.
func mgProblem2(c *kf.Ctx, n int) (u, f *darray.Array) {
	spec := darray.Spec{
		Extents: []int{n + 1, n + 1},
		Dists:   []dist.Dist{dist.Star{}, dist.Block{}},
		Halo:    []int{0, 1},
	}
	u = c.NewArray(spec)
	f = c.NewArray(spec)
	u.Zero()
	f.Zero()
	f.FillOwned(func(idx []int) float64 {
		i, j := idx[0], idx[1]
		if i == 0 || i == n || j == 0 || j == n {
			return 0
		}
		return float64((i*31+j*17)%23) - 11
	})
	return u, f
}

// mgProblem3 builds the standard 3-D multigrid test problem under the
// requested distributions.
func mgProblem3(c *kf.Ctx, n int, dx, dy, dz dist.Dist) (u, f *darray.Array) {
	halo := make([]int, 3)
	for i, d := range []dist.Dist{dx, dy, dz} {
		if _, isStar := d.(dist.Star); !isStar {
			halo[i] = 1
		}
	}
	spec := darray.Spec{
		Extents: []int{n + 1, n + 1, n + 1},
		Dists:   []dist.Dist{dx, dy, dz},
		Halo:    halo,
	}
	u = c.NewArray(spec)
	f = c.NewArray(spec)
	u.Zero()
	f.Zero()
	f.FillOwned(func(idx []int) float64 {
		i, j, k := idx[0], idx[1], idx[2]
		if i == 0 || i == n || j == 0 || j == n || k == 0 || k == n {
			return 0
		}
		return float64((i*7+j*5+k*3)%17) - 8
	})
	return u, f
}
