package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/perfest"
	"repro/internal/progs"
	"repro/internal/report"
)

// s4LinkAsymmetry sweeps per-link cost asymmetry — the interconnects real
// federations have and uniform multipliers cannot express: one slow uplink
// between two nodes, or a fast backbone pair in an otherwise uniform
// fabric. The same Jacobi Program (64 processors, 8x8 grid, 4 whole-row
// nodes) is compared (core.CompareRuns against one shared baseline run)
// between a flat shared machine and federations whose 0->1 uplink
// degrades through 1x, 2x, 8x and 32x the
// uniform link price, plus one federation whose 1<->2 backbone is repriced
// down to intra-node cost. Asymmetry never changes the program's meaning —
// values and message censuses stay bit-identical in every cell — and the
// virtual times move exactly, and in exactly the direction, the
// performance estimator's finish-time recurrence predicts: a slower uplink
// drags the whole clock (elapsed is a max over the steady-state halo
// recurrence, so the slowest crossing is load-bearing), while a faster
// backbone among equally priced peers buys nothing — the bottleneck stays
// at the untouched links, and the simulator and estimator agree it stays.
// Every elapsed time matches perfest.JacobiFederatedTime to floating-point
// tolerance, per-pair overrides included.
func s4LinkAsymmetry(*env) Result {
	const (
		n, p, nodes, iters = 128, 8, 4, 3
		linkLat, linkByte  = 4.0, 8.0
	)
	prog := must(progs.Jacobi(n, iters))
	metrics := map[string]float64{}
	tbl := report.NewTable("link asymmetry at 64 processors, 4 nodes (iPSC/2 costs, uniform inter-node 4x/8x)",
		"variant", "time (s)", "surcharge vs shared", "predicted", "identical")

	shared := runLast(core.MustSystem(core.Grid(p, p)), prog)
	tbl.AddRow("shared", shared.Elapsed, 0.0, 0.0, true)
	metrics["s4_time_shared"] = shared.Elapsed

	// variant runs prog on a federation priced by the given link
	// overrides, renders the bit-identity verdict against the one shared
	// baseline run (core.CompareRuns — the sweep side of the Compare
	// API), and validates the elapsed time against perfest's recurrence
	// under the matching cost model.
	identicalAll, exactAll := 1.0, 1.0
	variant := func(label string, links ...core.LinkSpec) core.Run {
		cmp := core.CompareRuns(shared, runLast(core.MustSystem(core.Grid(p, p),
			core.Transport("federated"), core.Nodes(nodes),
			core.LinkCosts(linkLat, linkByte, links...)), prog))
		if !cmp.Identical {
			identicalAll = 0
		}
		// Mirror the option stack into a cost model for the estimator.
		cost := machine.IPSC2().WithInterNode(linkLat, linkByte)
		for _, l := range links {
			cost = cost.WithLink(l.Src, l.Dst, machine.LinkCost{Latency: l.Latency, Byte: l.Byte})
		}
		got := cmp.B.Elapsed - cmp.A.Elapsed
		pred := perfest.JacobiFederatedSurcharge(cost, n, p, iters, nodes)
		if !surchargeExact(pred, got) {
			exactAll = 0
		}
		tbl.AddRow(label, cmp.B.Elapsed, got, pred, cmp.Identical)
		metrics["s4_time_"+label] = cmp.B.Elapsed
		metrics["s4_surcharge_"+label] = got
		return cmp.B
	}

	// Slow uplink sweep: the 0->1 link degrades while everything else
	// keeps the uniform price. k=1 is the uniform federation.
	uplinkSweep := []float64{1, 2, 8, 32}
	var uniform core.Run
	monotone, strict := 1.0, 0.0
	prev := 0.0
	for i, k := range uplinkSweep {
		label := fmt.Sprintf("uplink%gx", k)
		run := variant(label, core.LinkSpec{Src: 0, Dst: 1, Latency: linkLat * k, Byte: linkByte * k})
		if i == 0 {
			uniform = run
		} else {
			if run.Elapsed < prev {
				monotone = 0
			}
			if run.Elapsed > uniform.Elapsed {
				strict = 1
			}
		}
		prev = run.Elapsed
	}
	metrics["s4_uplink_monotone"] = monotone
	metrics["s4_uplink_slows"] = strict

	// Fast backbone: the 1<->2 pair repriced to intra-node cost; the
	// other links keep the uniform price. The curve must never bend up —
	// and because the elapsed time is a max over the halo recurrence, a
	// single cheap link among equally priced peers cannot bend it down
	// either: the bottleneck stays at the untouched 0<->1 and 2<->3
	// boundaries, which perfest's recurrence predicts exactly.
	backbone := variant("backbone",
		core.LinkSpec{Src: 1, Dst: 2, Latency: 1, Byte: 1},
		core.LinkSpec{Src: 2, Dst: 1, Latency: 1, Byte: 1})
	metrics["s4_backbone_helps"] = boolMetric(backbone.Elapsed <= uniform.Elapsed)
	metrics["s4_backbone_gain"] = uniform.Elapsed - backbone.Elapsed

	metrics["s4_identical"] = identicalAll
	metrics["s4_perfest_exact"] = exactAll
	tbl.AddNote("all censuses bit-identical=%v; every time matches perfest.JacobiFederatedTime to 1e-9=%v",
		identicalAll == 1, exactAll == 1)
	tbl.AddNote("slow uplink direction: monotone=%v, strictly slower than uniform=%v; backbone gain %.4gs (the max-recurrence bottleneck stays at the untouched links)",
		monotone == 1, strict == 1, metrics["s4_backbone_gain"])
	return Result{Text: tbl.String(), Metrics: metrics}
}

// surchargeExact reports whether a measured federation surcharge got
// matches the prediction pred to 1e-9. Zero measured surcharge only
// matches a zero prediction — relErr's measured==0 convention must not let
// a transport that stopped charging links pass as "exact".
func surchargeExact(pred, got float64) bool {
	return (pred == 0 && got == 0) || (got != 0 && relErr(pred, got) <= 1e-9)
}
