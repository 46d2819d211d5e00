package experiments

import (
	"reflect"

	"repro/internal/adi"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/progs"
	"repro/internal/report"
)

// s5ChaosRecovery runs the 256-processor workloads of S2 — Jacobi and
// pipelined ADI on a 16x16 grid over a 4-node federation — under a sweep of
// seeded fault scenarios (message drops, delays, duplications, a brownout
// window, a node outage) and holds the runtime to the loosely-coupled
// model's promise extended to lossy links: whenever a run completes, its
// values and message census are bit-identical to the fault-free run,
// because retransmission and duplicate absorption preserve exactly the
// message streams the program means — only virtual time honestly pays for
// the faults. Each scenario's fault/recovery report (injected vs recovered
// counts, retry histogram) is a deterministic function of the seed: the
// experiment reruns one scenario on the same pooled system and requires the
// second report and values to reproduce the first exactly.
func s5ChaosRecovery(e *env) Result {
	const p, n, nodes, iters = 16, 256, 4, 3
	jp := must(progs.Jacobi(n, iters))
	metrics := map[string]float64{}

	// Fault-free federated baseline.
	fed := e.explicit(core.Grid(p, p), core.Transport("federated"), core.Nodes(nodes))
	base := must(fed.RunProgram(jp))

	scenarios := []chaos.Scenario{
		{Name: "drop-1pct", Seed: 42, Drop: 0.01},
		{Name: "drop-5pct", Seed: 42, Drop: 0.05},
		{Name: "delay", Seed: 42, Delay: 0.2, DelayMax: 2e-3},
		{Name: "dup-drop", Seed: 7, Drop: 0.02, Dup: 0.05},
		{Name: "storm", Seed: 1989, Drop: 0.03, Dup: 0.03, Delay: 0.1, DelayMax: 1e-3,
			Brownouts: []chaos.Brownout{{Src: -1, Dst: -1, Start: 1e-3, End: 3e-3, Extra: 5e-4}},
			Outages:   []chaos.Outage{{Node: 1, Start: 2e-3, End: 4e-3}}},
	}

	tbl := report.NewTable("256-processor chaos recovery (chaos:federated, 4 nodes, iPSC/2 costs)",
		"scenario", "time (s)", "injected", "recovered", "retry rounds", "identical")

	tbl.AddRow("fault-free", base.Elapsed, int64(0), int64(0), int64(0), "ref")

	allIdentical := true
	var totalInjected, totalRecovered int64
	var repeatOK bool
	for i, sc := range scenarios {
		sys := e.explicit(core.Grid(p, p), core.Transport("chaos:federated"), core.Nodes(nodes), core.Chaos(sc))
		run := must(sys.RunProgram(jp))
		rep, _ := sys.ChaosReport()
		cmp := core.CompareRuns(base, run)
		identical := cmp.Identical
		allIdentical = allIdentical && identical
		totalInjected += rep.Injected()
		totalRecovered += rep.Recovered()
		tbl.AddRow(sc.Name, run.Elapsed, rep.Injected(), rep.Recovered(), rep.RetryRounds, identical)
		metrics["s5_"+sc.Name+"_identical"] = boolMetric(identical)
		metrics["s5_"+sc.Name+"_injected"] = float64(rep.Injected())

		if i == len(scenarios)-1 {
			// Seed reproducibility on a pooled system: the second run must
			// replay the exact same faults and recoveries — report and
			// values bit-identical to the first.
			again := must(sys.RunProgram(jp))
			rep2, _ := sys.ChaosReport()
			cmp2 := core.CompareRuns(run, again)
			repeatOK = reflect.DeepEqual(rep, rep2) && cmp2.Identical && cmp2.TimesIdentical
			tbl.AddNote("repeat of %q (seed %d): report identical=%v, run identical=%v",
				sc.Name, sc.Seed, reflect.DeepEqual(rep, rep2), cmp2.Identical && cmp2.TimesIdentical)
			if h := rep.RetryHistogram; len(h) > 0 {
				tbl.AddNote("%q retry histogram (deliveries by attempt): %v", sc.Name, h[1:])
			}
		}
	}

	// Pipelined ADI (madi) under the storm scenario: the tightly pipelined
	// wavefront must also ride out drops, duplicates and the outage.
	par := adi.Params{N: 64, A: 1, B: 1, Iters: 2}
	ap := must(progs.ADI(par, true))
	baseADI := must(fed.RunProgram(ap))
	sysADI := e.explicit(core.Grid(p, p), core.Transport("chaos:federated"), core.Nodes(nodes), core.Chaos(scenarios[len(scenarios)-1]))
	runADI := must(sysADI.RunProgram(ap))
	repADI, _ := sysADI.ChaosReport()
	cmpADI := core.CompareRuns(baseADI, runADI)
	allIdentical = allIdentical && cmpADI.Identical
	totalInjected += repADI.Injected()
	totalRecovered += repADI.Recovered()
	tbl.AddRow("storm (madi)", runADI.Elapsed, repADI.Injected(), repADI.Recovered(), repADI.RetryRounds, cmpADI.Identical)
	metrics["s5_madi_storm_identical"] = boolMetric(cmpADI.Identical)

	metrics["s5_all_identical"] = boolMetric(allIdentical)
	metrics["s5_repeat_identical"] = boolMetric(repeatOK)
	metrics["s5_injected_total"] = float64(totalInjected)
	metrics["s5_recovered_total"] = float64(totalRecovered)
	tbl.AddNote("across all scenarios: %d faults injected, %d recovered (drops retransmitted + dups absorbed); values bit-identical to fault-free: %v",
		totalInjected, totalRecovered, allIdentical)
	return Result{Text: tbl.String(), Metrics: metrics}
}
