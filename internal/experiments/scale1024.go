package experiments

import (
	"fmt"
	"reflect"

	"repro/internal/adi"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/perfest"
	"repro/internal/progs"
	"repro/internal/report"
)

// s3Hierarchical1024 scales the runtime to 1024 simulated processors (a
// 32x32 grid) under a hierarchical cost model that prices the node
// interconnect: inter-node messages pay 4x the latency and 8x the byte
// period of intra-node ones (core.LinkCosts). Sweeping the federation
// across 1, 4, 16 and 64 nodes, the same Jacobi and pipelined ADI Programs
// must produce bit-identical solutions and message/byte censuses on every
// transport — the program's meaning lives in its messages — while the
// federated virtual times diverge from the shared baseline by exactly the
// inter-node surcharge the performance estimator predicts statically: to
// floating-point tolerance for Jacobi (whose halo recurrence perfest
// evaluates exactly) and to a documented critical-path tolerance for the
// madi pipeline. The elapsed-versus-nodes curve is the NUMA knee:
// whole-row federations pay one boundary ghost per iteration, but once
// nodes outnumber grid rows (64 nodes = half-row nodes) every dimension-0
// exchange and the intra-row seams cross the interconnect and the curve
// turns sharply up.
func s3Hierarchical1024(*env) Result {
	const (
		n, p, iters = 256, 32, 3
		adiN        = 64
		adiTol      = 0.25 // madi pipeline overlap slack; Jacobi is exact
	)
	const linkLat, linkByte = 4, 8
	cost := machine.IPSC2().WithInterNode(linkLat, linkByte)
	nodeSweep := []int{1, 4, 16, 64}
	metrics := map[string]float64{}
	tbl := report.NewTable("1024-processor hierarchical federation (iPSC/2 costs, inter-node 4x latency / 8x byte period)",
		"program", "nodes", "time (s)", "vs shared", "surcharge predicted", "identical")

	// fed declares one swept federation: the shared iPSC/2 model plus
	// the interconnect pricing, layered on by LinkCosts.
	fed := func(nodes int) []core.Option {
		return []core.Option{core.Grid(p, p),
			core.Transport("federated"), core.Nodes(nodes),
			core.LinkCosts(linkLat, linkByte)}
	}

	// Jacobi across the node sweep.
	jp := must(progs.Jacobi(n, iters))
	shared := runLast(core.MustSystem(core.Grid(p, p), core.Cost(cost)), jp)
	tbl.AddRow("jacobi 32x32", "shared", shared.Elapsed, 1.0, 0.0, true)
	metrics["s3_jacobi_time_shared"] = shared.Elapsed
	allIdentical, jacobiExact := 1.0, 1.0
	var fed16 core.Run
	for _, nodes := range nodeSweep {
		run := runLast(core.MustSystem(fed(nodes)...), jp)
		if nodes == 16 {
			fed16 = run
		}
		cmp := core.CompareRuns(shared, run)
		if !cmp.Identical {
			allIdentical = 0
		}
		pred := perfest.JacobiFederatedSurcharge(cost, n, p, iters, nodes)
		got := run.Elapsed - shared.Elapsed
		if !surchargeExact(pred, got) {
			jacobiExact = 0
		}
		tbl.AddRow("jacobi 32x32", nodes, run.Elapsed, run.Elapsed/shared.Elapsed, pred, cmp.Identical)
		metrics[fmt.Sprintf("s3_jacobi_time_nodes%d", nodes)] = run.Elapsed
		metrics[fmt.Sprintf("s3_jacobi_surcharge_nodes%d", nodes)] = got
	}
	metrics["s3_jacobi_identical"] = allIdentical
	metrics["s3_jacobi_surcharge_exact"] = jacobiExact

	// Cross-process spot check: the ipc transport under the same
	// interconnect pricing must reproduce the federated 16-node run
	// bit-for-bit — values, censuses, per-link traffic AND virtual times
	// (both charge cost.LinkMessageTime on exactly the same messages).
	ipcRun := runLast(core.MustSystem(core.Grid(p, p),
		core.Transport("ipc"), core.Nodes(16),
		core.LinkCosts(linkLat, linkByte)), jp)
	cmpIPC := core.CompareRuns(fed16, ipcRun)
	linksEqual := fed16.Links != nil && reflect.DeepEqual(fed16.Links, ipcRun.Links)
	metrics["s3_jacobi_ipc_identical"] = boolMetric(
		cmpIPC.Identical && cmpIPC.TimesIdentical && linksEqual)
	tbl.AddRow("jacobi 32x32", "ipc 16", ipcRun.Elapsed, ipcRun.Elapsed/shared.Elapsed,
		perfest.JacobiFederatedSurcharge(cost, n, p, iters, 16),
		cmpIPC.Identical && cmpIPC.TimesIdentical)
	tbl.AddNote("cross-process check: ipc at 16 nodes matches federated 16 bit-for-bit (values/census/links/times) = %v",
		metrics["s3_jacobi_ipc_identical"] == 1)

	// Per-iteration link census on the swept federations against the
	// estimator's exact enumeration — including the intra-row seams that
	// only exist past the whole-row regime.
	censusMatch := 1.0
	for _, nodes := range []int{4, 64} {
		_, got, want := jacobiSweepLinks(core.MustSystem(fed(nodes)...), n, p, nodes, iters)
		if got != want {
			censusMatch = 0
		}
		tbl.AddNote("inter-node traffic per iteration at %d nodes: %d msgs / %d bytes (perfest predicts %d / %d)",
			nodes, got[0], got[1], want[0], want[1])
	}
	metrics["s3_internode_census_match"] = censusMatch

	// Pipelined ADI (madi) across the node sweep.
	par := adi.Params{N: adiN, A: 1, B: 1, Iters: 2}
	ap := must(progs.ADI(par, true))
	adiShared := runLast(core.MustSystem(core.Grid(p, p), core.Cost(cost)), ap)
	tbl.AddRow("madi 32x32", "shared", adiShared.Elapsed, 1.0, 0.0, true)
	metrics["s3_adi_time_shared"] = adiShared.Elapsed
	adiIdentical, adiSurchargeOK := 1.0, 1.0
	for _, nodes := range nodeSweep {
		run := runLast(core.MustSystem(fed(nodes)...), ap)
		cmp := core.CompareRuns(adiShared, run)
		if !cmp.Identical {
			adiIdentical = 0
		}
		got := run.Elapsed - adiShared.Elapsed
		pred := 2 * perfest.ADIFederatedSurcharge(cost, adiN, p, nodes) // 2 iterations
		switch {
		case nodes == 1:
			if got != 0 {
				adiSurchargeOK = 0
			}
		default:
			if !(got > 0) || relErr(pred, got) > adiTol {
				adiSurchargeOK = 0
			}
		}
		tbl.AddRow("madi 32x32", nodes, run.Elapsed, run.Elapsed/adiShared.Elapsed, pred, cmp.Identical)
		metrics[fmt.Sprintf("s3_adi_time_nodes%d", nodes)] = run.Elapsed
		metrics[fmt.Sprintf("s3_adi_surcharge_nodes%d", nodes)] = got
		metrics[fmt.Sprintf("s3_adi_surcharge_pred_nodes%d", nodes)] = pred
	}
	metrics["s3_adi_identical"] = adiIdentical
	metrics["s3_adi_surcharge_ok"] = adiSurchargeOK

	// The NUMA knee: normalized slowdown along the sweep. Whole-row
	// federations (4, 16 nodes) pay nearly the same boundary toll; the
	// split-row federation (64 nodes) turns the curve up.
	knee := metrics["s3_jacobi_time_nodes64"] - metrics["s3_jacobi_time_nodes16"]
	shoulder := metrics["s3_jacobi_time_nodes16"] - metrics["s3_jacobi_time_nodes4"]
	metrics["s3_jacobi_knee"] = boolMetric(knee > 4*shoulder && knee > 0)
	tbl.AddNote("jacobi NUMA knee: slowdown step 16->64 nodes = %.4gs vs 4->16 = %.4gs", knee, shoulder)
	tbl.AddNote("surcharges: jacobi exact=%v (tol 1e-9), madi within %.0f%%=%v",
		jacobiExact == 1, adiTol*100, adiSurchargeOK == 1)

	return Result{Text: tbl.String(), Metrics: metrics}
}
