package experiments

import (
	"repro/internal/adi"
	"repro/internal/core"
	"repro/internal/perfest"
	"repro/internal/progs"
	"repro/internal/report"
)

// s2Transport256 scales the runtime to 256 simulated processors (a 16x16
// grid) and proves the transport layer is semantically invisible: the same
// Jacobi and pipelined-ADI Programs run once on the shared-memory mailbox
// system and once on a 4-node x 64-processor federation (core.Compare),
// and must produce bit-identical solutions, virtual times and message
// statistics — the loosely-coupled model's promise that an algorithm's
// meaning lives in its messages, not in the machinery delivering them. A
// third run on the cross-process "ipc" transport (worker processes over
// Unix sockets) must match the same baseline bit-for-bit. The
// federation's link censuses are then validated exactly against perfest's
// combinatorial prediction of the node-interconnect traffic.
func s2Transport256(e *env) Result {
	const n, p, nodes, iters = 256, 16, 4, 3
	metrics := map[string]float64{}

	shared := e.explicit(core.Grid(p, p))
	fed := e.explicit(core.Grid(p, p), core.Transport("federated"), core.Nodes(nodes))
	ipc := e.explicit(core.Grid(p, p), core.Transport("ipc"), core.Nodes(nodes))
	sameRun := func(cmp core.Comparison) float64 {
		return boolMetric(cmp.Identical && cmp.TimesIdentical)
	}

	tbl := report.NewTable("256-processor transport equivalence (iPSC/2 costs)",
		"program", "transport", "time (s)", "msgs", "bytes")

	// Jacobi across transports.
	jp := must(progs.Jacobi(n, iters))
	cmpJ := must(core.Compare(jp, shared, fed))
	tbl.AddRow("jacobi 16x16", "shared", cmpJ.A.Elapsed, cmpJ.A.Stats.MsgsSent, cmpJ.A.Stats.BytesSent)
	tbl.AddRow("jacobi 16x16", "federated 4x64", cmpJ.B.Elapsed, cmpJ.B.Stats.MsgsSent, cmpJ.B.Stats.BytesSent)
	cmpJI := core.CompareRuns(cmpJ.A, must(ipc.RunProgram(jp)))
	tbl.AddRow("jacobi 16x16", "ipc 4x64", cmpJI.B.Elapsed, cmpJI.B.Stats.MsgsSent, cmpJI.B.Stats.BytesSent)
	metrics["s2_jacobi_ipc_identical"] = sameRun(cmpJI)
	metrics["s2_jacobi_identical"] = sameRun(cmpJ)
	metrics["s2_jacobi_time_p256"] = cmpJ.A.Elapsed
	metrics["s2_jacobi_msgs_p256"] = float64(cmpJ.A.Stats.MsgsSent)

	// Pipelined ADI (the paper's madi) across transports.
	par := adi.Params{N: 64, A: 1, B: 1, Iters: 2}
	ap := must(progs.ADI(par, true))
	cmpA := must(core.Compare(ap, shared, fed))
	tbl.AddRow("madi 16x16", "shared", cmpA.A.Elapsed, cmpA.A.Stats.MsgsSent, cmpA.A.Stats.BytesSent)
	tbl.AddRow("madi 16x16", "federated 4x64", cmpA.B.Elapsed, cmpA.B.Stats.MsgsSent, cmpA.B.Stats.BytesSent)
	cmpAI := core.CompareRuns(cmpA.A, must(ipc.RunProgram(ap)))
	tbl.AddRow("madi 16x16", "ipc 4x64", cmpAI.B.Elapsed, cmpAI.B.Stats.MsgsSent, cmpAI.B.Stats.BytesSent)
	metrics["s2_adi_ipc_identical"] = sameRun(cmpAI)
	metrics["s2_adi_identical"] = sameRun(cmpA)
	metrics["s2_adi_time_p256"] = cmpA.A.Elapsed

	// Scaling: the same problem on 64 and 256 processors.
	s64 := runLast(core.MustSystem(core.Grid(8, 8)), jp)
	metrics["s2_speedup_64_to_256"] = s64.Elapsed / cmpJ.A.Elapsed
	tbl.AddNote("jacobi n=%d, %d iters: 8x8 %.4gs -> 16x16 %.4gs (%.2fx)",
		n, iters, s64.Elapsed, cmpJ.A.Elapsed, s64.Elapsed/cmpJ.A.Elapsed)

	// Link census: the per-iteration inter-node traffic must match
	// perfest's combinatorial prediction exactly.
	diff, got, want := jacobiSweepLinks(fed, n, p, nodes, iters)
	metrics["s2_internode_match"] = boolMetric(got == want)
	metrics["s2_internode_msgs_per_iter"] = float64(got[0])
	tbl.AddNote("inter-node traffic per iteration: %d msgs / %d bytes (perfest predicts %d / %d)",
		got[0], got[1], want[0], want[1])

	// Per-link structure of the per-iteration halo pattern (the same
	// differencing cancels the epilogue's asymmetric reduce/gather
	// funnel): adjacent node pairs trade identical counts in both
	// directions, non-adjacent pairs never talk.
	symmetric := 1.0
	for a := 0; a < nodes; a++ {
		for b := 0; b < nodes; b++ {
			dm, db := diff.Msgs[a][b], diff.Bytes[a][b]
			rm, rb := diff.Msgs[b][a], diff.Bytes[b][a]
			switch {
			case a == b:
			case a+1 == b || b+1 == a:
				if dm == 0 || dm != rm || db != rb {
					symmetric = 0
				}
			default:
				if dm != 0 || db != 0 {
					symmetric = 0
				}
			}
		}
	}
	metrics["s2_links_symmetric"] = symmetric

	tbl.AddNote("transport equivalence: jacobi identical=%v (ipc %v), madi identical=%v (ipc %v)",
		metrics["s2_jacobi_identical"] == 1, metrics["s2_jacobi_ipc_identical"] == 1,
		metrics["s2_adi_identical"] == 1, metrics["s2_adi_ipc_identical"] == 1)
	return Result{Text: tbl.String(), Metrics: metrics}
}

// jacobiSweepLinks runs Jacobi (n x n points) on the federation sys of p x p
// processors for iters and for iters+2 sweeps, closes sys, and differences
// the two runs' link censuses, which cancels the one-off reduce/gather
// epilogue: diff is two sweeps' per-link traffic. got is one sweep's
// inter-node (messages, bytes), and want perfest.JacobiInterNode's exact
// enumeration of it.
func jacobiSweepLinks(sys *core.System, n, p, nodes, iters int) (diff *core.LinkCensus, got, want [2]int) {
	runA := must(sys.RunProgram(must(progs.Jacobi(n, iters))))
	runB := runLast(sys, must(progs.Jacobi(n, iters+2)))
	diff = runB.Links.Sub(runA.Links)
	msgs, bytes := diff.Total()
	got = [2]int{int(msgs) / 2, int(bytes) / 2}
	want[0], want[1] = perfest.JacobiInterNode(n, p, nodes)
	return diff, got, want
}
