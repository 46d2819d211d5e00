package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/tridiag"
)

// triSystems selects tri's systems: one random system,
// randTridiag(seed, n), when seed > 0; otherwise m constant-coefficient
// (-1, 4, -1) systems whose right-hand sides are (i·j mod 13) − 6.
type triSystems struct {
	seed uint64
	m    int
}

// tri solves the tridiagonal systems ts of n rows, block-distributed over a
// p-processor system (see env.sys) built with opts, by solve, which has
// tridiag.MTri's signature (bs, as and cs are nil for constant
// coefficients). It returns the system, for its Stats and Trace, and the
// virtual elapsed time.
func (e *env) tri(p, n int, ts triSystems, solve func(c *kf.Ctx, xs, fs, bs, as, cs []*darray.Array) error, opts ...core.Option) (*core.System, float64) {
	var host [][]float64 // the random system's f, b, a, c
	if ts.seed > 0 {
		b, a, cc, f := randTridiag(ts.seed, n)
		host = [][]float64{f, b, a, cc}
	}
	return e.run([]int{p}, func(c *kf.Ctx) error {
		spec := darray.Spec{Extents: []int{n}, Dists: []dist.Dist{dist.Block{}}}
		if host != nil {
			x := c.NewArray(spec)
			v := make([][]*darray.Array, len(host))
			for k, h := range host {
				arr := c.NewArray(spec)
				arr.OwnedRuns(func(idx []int, vals []float64) { copy(vals, h[idx[0]:]) })
				v[k] = []*darray.Array{arr}
			}
			return solve(c, []*darray.Array{x}, v[0], v[1], v[2], v[3])
		}
		xs, fs := make([]*darray.Array, ts.m), make([]*darray.Array, ts.m)
		for j := range ts.m {
			fs[j] = c.NewArray(spec)
			fs[j].FillOwned(func(idx []int) float64 { return float64((idx[0]*j)%13) - 6 })
			xs[j] = c.NewArray(spec)
		}
		return solve(c, xs, fs, nil, nil, nil)
	}, opts...)
}

// triMarked solves tri's random system by tridiag.TriTraced, which marks
// the algorithm's steps in the trace.
func triMarked(c *kf.Ctx, xs, fs, bs, as, cs []*darray.Array) error {
	return tridiag.TriTraced(c, xs[0], fs[0], bs[0], as[0], cs[0])
}

// pipelined solves tri's constant-coefficient systems together through
// mapping (tridiag.MTriCMapped).
func pipelined(mapping tridiag.Mapping) func(c *kf.Ctx, xs, fs, _, _, _ []*darray.Array) error {
	return func(c *kf.Ctx, xs, fs, _, _, _ []*darray.Array) error {
		return tridiag.MTriCMapped(c, xs, fs, -1, 4, -1, mapping)
	}
}

// e2Tri sweeps the substructured solver over processor counts on two cost
// models: communication-dominated (iPSC/2) and balanced. The shape the
// paper implies: the algorithm scales while blocks are big, and latency
// (log2 p tree steps) caps the win on slow networks.
func e2Tri(e *env) Result {
	const n = 2048
	tbl := report.NewTable("substructured tridiagonal solve, n=2048",
		"processors", "iPSC/2 time (s)", "iPSC/2 speedup", "balanced time (s)", "balanced speedup", "msgs")
	var t1i, t1b float64
	metrics := map[string]float64{}
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		_, ti := e.tri(p, n, triSystems{seed: 31}, tridiag.MTri, core.Cost(machine.IPSC2()))
		sys, tb := e.tri(p, n, triSystems{seed: 31}, tridiag.MTri, core.Cost(machine.Balanced()))
		if p == 1 {
			t1i, t1b = ti, tb
		}
		tbl.AddRow(p, ti, t1i/ti, tb, t1b/tb, sys.Stats().MsgsSent)
		metrics[fmt.Sprintf("speedup_ipsc2_p%d", p)] = t1i / ti
		metrics[fmt.Sprintf("speedup_balanced_p%d", p)] = t1b / tb
	}
	tbl.AddNote("reduction tree costs 2·log2(p) latency-bound steps; big blocks amortize them")
	return Result{Text: tbl.String(), Metrics: metrics}
}

// e3Pipeline measures claim C4 on the tridiagonal kernel: m systems through
// the pipelined solver versus m one-at-a-time solves, sweeping m. Only the
// pipelined runs trace (tracing is host-side cost only).
func e3Pipeline(e *env) Result {
	const p, n = 8, 256
	tbl := report.NewTable("pipelined vs one-at-a-time, p=8, n=256 per system (iPSC/2 costs)",
		"systems", "one-at-a-time (s)", "pipelined (s)", "ratio", "pipe utilization")
	metrics := map[string]float64{}
	oneAtATime := func(c *kf.Ctx, xs, fs, _, _, _ []*darray.Array) error {
		for j := range xs {
			if err := tridiag.TriC(c, xs[j], fs[j], -1, 4, -1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, msys := range []int{1, 2, 4, 8, 16, 32} {
		_, tSeq := e.tri(p, n, triSystems{m: msys}, oneAtATime)
		sys, tPipe := e.tri(p, n, triSystems{m: msys}, pipelined(tridiag.ShuffleMapping), core.Trace())
		util := sys.Trace.MeanUtilization(tPipe)
		tbl.AddRow(msys, tSeq, tPipe, tSeq/tPipe, util)
		metrics[fmt.Sprintf("ratio_m%d", msys)] = tSeq / tPipe
	}
	tbl.AddNote("the ratio grows with m as the pipeline fills (paper Figure 5 discussion)")
	return Result{Text: tbl.String(), Metrics: metrics}
}
