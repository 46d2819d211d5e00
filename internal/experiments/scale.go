package experiments

import (
	"fmt"

	"repro/internal/adi"
	"repro/internal/core"
	"repro/internal/progs"
	"repro/internal/report"
)

// The scaling experiments (S1-S6) all ask the same question — does the
// same program mean the same thing on a different machine? — so their
// workloads come from the shared program registry (internal/progs):
// registry-built programs carry the (name, args) identity that lets an ipc
// System execute them inside its worker processes.

// s1Scale64 pushes the runtime past the paper's 4-16 processor runs: Jacobi
// on 2x2, 4x4 and 8x8 (64-processor) grids, plus a 64-processor pipelined
// ADI run — and proves the inspector/executor machinery is semantically
// invisible at that scale by comparing the same Program on two 8x8 systems,
// one replaying compiled schedules and one (core.DirectScheduling) deriving
// all communication directly, and requiring identical virtual times,
// message counts, byte counts and results.
func s1Scale64(e *env) Result {
	const n, iters = 128, 4
	prog := must(progs.Jacobi(n, iters))
	tbl := report.NewTable("Jacobi n=128, 4 iterations (iPSC/2 costs), compiled schedules",
		"grid", "procs", "time (s)", "speedup vs 2x2", "msgs", "bytes")
	metrics := map[string]float64{}

	var t2 float64
	for _, p := range []int{2, 4, 8} {
		r := runLast(core.MustSystem(core.Grid(p, p)), prog)
		if p == 2 {
			t2 = r.Elapsed
		}
		tbl.AddRow(fmt.Sprintf("%dx%d", p, p), p*p, r.Elapsed, t2/r.Elapsed, r.Stats.MsgsSent, r.Stats.BytesSent)
		metrics[fmt.Sprintf("jacobi_time_p%d", p*p)] = r.Elapsed
		metrics[fmt.Sprintf("jacobi_msgs_p%d", p*p)] = float64(r.Stats.MsgsSent)
	}

	// Schedule-replay equivalence at 64 processors: the compiled path must
	// be bit-identical to direct derivation.
	cmp := must(core.Compare(prog,
		e.explicit(core.Grid(8, 8)),
		e.explicit(core.Grid(8, 8), core.DirectScheduling())))
	metrics["jacobi64_schedule_identical"] = boolMetric(cmp.Identical && cmp.TimesIdentical)

	// 64-processor pipelined ADI (madi): every 8-processor grid slice
	// pipelines its lines through the substructured solver.
	par := adi.Params{N: 64, A: 1, B: 1, Iters: 2}
	acmp := must(core.Compare(must(progs.ADI(par, true)),
		e.explicit(core.Grid(8, 8)),
		e.explicit(core.Grid(8, 8), core.DirectScheduling())))
	metrics["adi64_schedule_identical"] = boolMetric(acmp.Identical && acmp.TimesIdentical)
	metrics["adi64_time"] = acmp.A.Elapsed
	metrics["adi64_msgs"] = float64(acmp.A.Stats.MsgsSent)

	tbl.AddNote("8x8 schedule replay vs direct derivation: jacobi identical=%v, madi identical=%v",
		metrics["jacobi64_schedule_identical"] == 1, metrics["adi64_schedule_identical"] == 1)
	tbl.AddNote("64-proc pipelined ADI (n=64, 2 iters): %.4g s, %d msgs",
		acmp.A.Elapsed, acmp.A.Stats.MsgsSent)
	return Result{Text: tbl.String(), Metrics: metrics}
}
