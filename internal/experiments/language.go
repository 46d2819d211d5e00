package experiments

import (
	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/jacobi"
	"repro/internal/kf"
	"repro/internal/loc"
	"repro/internal/machine"
	"repro/internal/report"
)

// e1Jacobi compares the three Jacobi implementations (Listings 1-3):
// bitwise-identical results, and — claim C2 — matching virtual execution
// time and communication volume for KF1 versus hand message passing.
func e1Jacobi(e *env) Result {
	const n, niter = 32, 10
	x0, f := jacobi.Problem(n)
	seq := jacobi.Sequential(x0, f, niter)

	tbl := report.NewTable("Jacobi three ways, n=32, 10 iterations, 2x2 processors (iPSC/2 costs)",
		"variant", "virtual time (s)", "msgs", "bytes", "max |diff| vs sequential")

	sysMP := e.sys([]int{2, 2})
	mp := must(jacobi.MessagePassing(sysMP.Machine, sysMP.Procs, x0, f, niter))
	sysKF := e.sys([]int{2, 2})
	k1 := must(jacobi.KF1(sysKF.Machine, sysKF.Procs, x0, f, niter))
	dm, dk := maxAbsDiffRows(mp.X, seq), maxAbsDiffRows(k1.X, seq)
	tbl.AddRow("sequential (Listing 1)", 0.0, 0, 0, 0.0)
	tbl.AddRow("message passing (Listing 2)", mp.Elapsed, mp.Stats.MsgsSent, mp.Stats.BytesSent, dm)
	tbl.AddRow("KF1 runtime (Listing 3)", k1.Elapsed, k1.Stats.MsgsSent, k1.Stats.BytesSent, dk)
	ratio := k1.Elapsed / mp.Elapsed
	tbl.AddNote("claim C2: KF1/MP time ratio = %.3f (paper: no difference, given equal code generators)", ratio)

	// Speedup sweep (claim: the constructs do not cost scalability).
	sp := report.NewTable("KF1 Jacobi speedup, n=64, 4 iterations (balanced machine)",
		"processors", "virtual time (s)", "speedup")
	x0b, fb := jacobi.Problem(64)
	var t1 float64
	var s4 float64
	for _, p := range []int{1, 2, 4} {
		sys := e.sys([]int{p, p}, core.Cost(machine.Balanced()))
		res := must(jacobi.KF1(sys.Machine, sys.Procs, x0b, fb, 4))
		if p == 1 {
			t1 = res.Elapsed
		}
		sp.AddRow(p*p, res.Elapsed, t1/res.Elapsed)
		if p == 4 {
			s4 = t1 / res.Elapsed
		}
	}
	return Result{
		Text: tbl.String() + "\n" + sp.String(),
		Metrics: map[string]float64{
			"time_ratio_kf1_mp": ratio,
			"maxdiff_mp":        dm,
			"maxdiff_kf1":       dk,
			"speedup_16p":       s4,
		},
	}
}

// e8CodeSize measures claim C1: statement counts of the three Jacobi
// variants. The paper: "the message passing version of a program is often
// five to ten times longer than the sequential version", while the KF1
// version stays near sequential length.
func e8CodeSize(*env) Result {
	stats := must(loc.Count(jacobi.Source, "Sequential", "MessagePassing", "KF1", "maxReduce"))
	seq := stats["Sequential"].Statements
	// The hand-written version needs its hand-written reduction too.
	mp := stats["MessagePassing"].Statements + stats["maxReduce"].Statements
	k1 := stats["KF1"].Statements
	tbl := report.NewTable("program length (Go statements) of the Jacobi variants",
		"variant", "statements", "ratio vs sequential")
	tbl.AddRow("sequential (Listing 1)", seq, 1.0)
	tbl.AddRow("message passing (Listing 2)", mp, float64(mp)/float64(seq))
	tbl.AddRow("KF1 runtime (Listing 3)", k1, float64(k1)/float64(seq))
	tbl.AddNote("paper claim C1: message passing is 5-10x the sequential version")
	return Result{
		Text: tbl.String(),
		Metrics: map[string]float64{
			"ratio_mp_seq":  float64(mp) / float64(seq),
			"ratio_kf1_seq": float64(k1) / float64(seq),
		},
	}
}

// e9Inspector compares the two communication-derivation paths of Section 2
// on the same shift loop A(i) = A(idx(i)): the compiled stencil exchange
// (static analysis succeeds) versus the inspector/executor runtime
// resolution (the paper's "gather such information on the fly"), measuring
// the traffic overhead of runtime resolution.
func e9Inspector(e *env) Result {
	const n, p = 256, 8
	run := func(irregular bool) (float64, machine.Stats, []float64) {
		var flat []float64
		sys, elapsed := e.run([]int{p}, func(c *kf.Ctx) error {
			a := c.NewArray(darray.Spec{Extents: []int{n}, Dists: []dist.Dist{dist.Block{}}, Halo: []int{1}})
			a.FillOwned(func(idx []int) float64 { return float64(idx[0] * idx[0] % 97) })
			if irregular {
				// Inspector: declare every read index (here the
				// compiler pretends not to know idx(i) = i+1).
				var need []int
				for i := a.Lower(0); i <= a.Upper(0); i++ {
					if i < n-1 {
						need = append(need, i+1)
					}
				}
				gath := c.GatherIrregular(a, need)
				c.Doall1(kf.R(0, n-2), kf.OnOwner1(a), nil, func(cc *kf.Ctx, i int) {
					a.Set1(i, gath.At(i+1))
				})
			} else {
				c.Doall1(kf.R(0, n-2), kf.OnOwner1(a), []kf.LoopOpt{kf.Reads(a)},
					func(cc *kf.Ctx, i int) {
						a.Set1(i, a.Old1(i+1))
					})
			}
			out := a.GatherTo(c.NextScope(), 0)
			if c.P.Rank() == 0 {
				flat = out
			}
			return nil
		})
		return elapsed, sys.Stats(), flat
	}
	tC, sC, fC := run(false)
	tI, sI, fI := run(true)
	diff := maxAbsDiff(fC, fI)
	tbl := report.NewTable("compiled stencil exchange vs inspector/executor (shift loop, n=256, p=8)",
		"path", "virtual time (s)", "msgs", "bytes")
	tbl.AddRow("compiled (static stencil)", tC, sC.MsgsSent, sC.BytesSent)
	tbl.AddRow("inspector/executor (runtime)", tI, sI.MsgsSent, sI.BytesSent)
	tbl.AddNote("identical results (max diff %.1e); runtime resolution costs %.2fx the messages",
		diff, float64(sI.MsgsSent)/float64(sC.MsgsSent))
	return Result{
		Text: tbl.String(),
		Metrics: map[string]float64{
			"maxdiff":    diff,
			"msg_ratio":  float64(sI.MsgsSent) / float64(sC.MsgsSent),
			"byte_ratio": float64(sI.BytesSent) / float64(sC.BytesSent),
		},
	}
}
