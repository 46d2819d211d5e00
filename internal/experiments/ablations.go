package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/jacobi"
	"repro/internal/kf"
	"repro/internal/linalg"
	"repro/internal/machine"
	"repro/internal/perfest"
	"repro/internal/report"
	"repro/internal/tridiag"
)

// a1Mapping is the dataflow-mapping ablation: the paper picks the
// shuffle/unshuffle mapping of Figure 5 because its disjoint processor
// groups pipeline multiple systems without contention. This experiment
// runs the same pipelined solve under the naive left-packed mapping
// (low-index processors serve every tree level) and quantifies the
// difference.
func a1Mapping(e *env) Result {
	const p, n = 8, 128
	tbl := report.NewTable("pipelined solve of m systems, p=8, n=128 (iPSC/2 costs)",
		"systems", "shuffle (s)", "left-packed (s)", "packed/shuffle")
	metrics := map[string]float64{}
	for _, msys := range []int{1, 4, 16, 32} {
		_, tS := e.tri(p, n, triSystems{m: msys}, pipelined(tridiag.ShuffleMapping))
		_, tP := e.tri(p, n, triSystems{m: msys}, pipelined(tridiag.PackedMapping))
		tbl.AddRow(msys, tS, tP, tP/tS)
		metrics[fmt.Sprintf("ratio_m%d", msys)] = tP / tS
	}
	tbl.AddNote("paper: the shuffle/unshuffle mapping 'is advantageous when there are multiple tridiagonal systems'")
	return Result{Text: tbl.String(), Metrics: metrics}
}

// a2Estimator exercises the performance-estimation tool the paper's
// Section 2 promises ("we plan to address this issue by providing
// performance estimation tools"): static predictions of message counts,
// volumes and virtual time for the Jacobi iteration and the tridiagonal
// solve, compared against the simulator's measurements.
func a2Estimator(e *env) Result {
	tbl := report.NewTable("static performance estimates vs simulated measurements (iPSC/2 costs)",
		"program", "msgs est", "msgs meas", "bytes est", "bytes meas", "time est (s)", "time meas (s)", "time err")
	metrics := map[string]float64{}
	cost := machine.IPSC2()

	// Jacobi: n=32, 2x2 grid, 10 iterations.
	{
		const n, p, iters = 32, 2, 10
		est := perfest.Jacobi(cost, n, p, iters)
		x0, f := jacobi.Problem(n)
		sys := e.sys([]int{p, p}, core.Cost(cost))
		res := must(jacobi.KF1(sys.Machine, sys.Procs, x0, f, iters))
		st := sys.Stats()
		// Exclude the verification gather/reduce from the measured
		// messages: the estimator predicts the iteration loop only.
		iterMsgs := st.MsgsSent - int64(perfest.GatherMsgs(p*p)) - int64(perfest.AllReduceMsgs(p*p))
		iterBytes := st.BytesSent - int64(perfest.GatherBytes(p*p, n*n)) - int64(perfest.AllReduceBytes(p*p))
		terr := relErr(est.Time, res.Elapsed)
		tbl.AddRow("jacobi 32^2 x10 on 2x2", est.Msgs, iterMsgs, est.Bytes, iterBytes, est.Time, res.Elapsed, terr)
		metrics["jacobi_msg_exact"] = boolMetric(int64(est.Msgs) == iterMsgs)
		metrics["jacobi_byte_exact"] = boolMetric(int64(est.Bytes) == iterBytes)
		metrics["jacobi_time_err"] = terr
	}

	// Tridiagonal solve: n=2048, p=8.
	{
		const n, p = 2048, 8
		est := perfest.TriSolve(cost, n, p)
		sys, t := e.tri(p, n, triSystems{seed: 31}, tridiag.MTri, core.Cost(cost))
		st := sys.Stats()
		terr := relErr(est.Time, t)
		tbl.AddRow("tri n=2048 on p=8", est.Msgs, st.MsgsSent, est.Bytes, st.BytesSent, est.Time, t, terr)
		metrics["tri_msg_exact"] = boolMetric(int64(est.Msgs) == st.MsgsSent)
		metrics["tri_byte_exact"] = boolMetric(int64(est.Bytes) == st.BytesSent)
		metrics["tri_time_err"] = terr
	}
	tbl.AddNote("message counts and volumes predict exactly; time within the model's overlap slack")
	return Result{Text: tbl.String(), Metrics: metrics}
}

func relErr(est, meas float64) float64 {
	if meas == 0 {
		return 0
	}
	d := est - meas
	if d < 0 {
		d = -d
	}
	return d / meas
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// a3Cyclic is the distribution experiment the paper attaches to the cyclic
// pattern ("especially useful in numerical linear algebra"): dense LU
// factorization with block versus cyclic column distribution. Block
// retires the owners of early columns; cyclic keeps every processor busy
// to the end.
func a3Cyclic(e *env) Result {
	const n, p = 96, 4
	tbl := report.NewTable("dense LU of a 96x96 matrix, 4 processors (balanced machine)",
		"column distribution", "virtual time (s)", "busy max/min", "factor agreement")
	metrics := map[string]float64{}
	a := randMatrix(3, n)
	var luRef []float64
	for _, v := range []struct {
		name string
		d    dist.Dist
	}{
		{"block", dist.Block{}},
		{"cyclic", dist.Cyclic{}},
	} {
		var flat []float64
		sys, elapsed := e.run([]int{p}, func(c *kf.Ctx) error {
			ad := c.NewArray(darray.Spec{
				Extents: []int{n, n},
				Dists:   []dist.Dist{dist.Star{}, v.d},
			})
			ad.OwnedRuns(func(idx []int, vals []float64) { copy(vals, a[idx[0]*n+idx[1]:]) })
			if err := linalg.LU(c, ad); err != nil {
				return err
			}
			out := ad.GatherTo(c.NextScope(), 0)
			if c.GridIndex() == 0 {
				flat = out
			}
			return nil
		}, core.Cost(machine.Balanced()), core.Trace())
		agreement := 0.0
		if luRef == nil {
			luRef = flat
		} else {
			agreement = maxAbsDiff(luRef, flat)
		}
		min, max := 1e300, 0.0
		for q := 0; q < p; q++ {
			bt := sys.Trace.BusyTime(q)
			if bt < min {
				min = bt
			}
			if bt > max {
				max = bt
			}
		}
		tbl.AddRow(v.name, elapsed, max/min, agreement)
		metrics["time_"+v.name] = elapsed
		metrics["imbalance_"+v.name] = max / min
	}
	tbl.AddNote("paper: 'a cyclic distribution, especially useful in numerical linear algebra'")
	return Result{Text: tbl.String(), Metrics: metrics}
}

// randMatrix builds a diagonally dominant n×n matrix from a seed.
func randMatrix(seed uint64, n int) []float64 {
	a := make([]float64, n*n)
	next := splitmix(seed)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				a[i*n+j] = next()
				if a[i*n+j] < 0 {
					rowSum -= a[i*n+j]
				} else {
					rowSum += a[i*n+j]
				}
			}
		}
		a[i*n+i] = rowSum + 2
	}
	return a
}
