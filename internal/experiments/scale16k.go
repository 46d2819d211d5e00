package experiments

import (
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/progs"
	"repro/internal/report"
)

// s6Calendar16384 scales the runtime to 16384 virtual processors (a 128x128
// grid) — the many-more-processors-than-cores regime the calendar executor
// exists for: every rank is a parked continuation between its turns, and
// the worker pool resumes runnable ranks in virtual-time order. The
// experiment pins the executor seam's central invariant before using it:
// the same Jacobi Program must produce bit-identical values, message/byte
// censuses and virtual times on the goroutine and calendar engines (the
// machine is a Kahn network, so results are a function of the program
// alone), including on a single worker, where any lost wakeup would hang
// rather than merely reorder. Then it records the 16384-processor run's
// census — host-side feasibility at a scale the goroutine engine also
// handles, but the calendar engine reaches with bounded host parallelism.
func s6Calendar16384(*env) Result {
	const (
		n, iters = 256, 3
		pSmall   = 32 // 1024-processor engine-parity grid
		pBig     = 128
	)
	metrics := map[string]float64{}
	tbl := report.NewTable("16384 virtual processors on the calendar executor (iPSC/2 costs)",
		"grid", "engine", "time (s)", "msgs", "identical")

	jp := must(progs.Jacobi(n, iters))

	// Engine parity at 1024 processors: goroutine reference vs calendar
	// (default worker pool) vs calendar pinned to one worker.
	ref := runLast(core.MustSystem(core.Grid(pSmall, pSmall)), jp)
	tbl.AddRow("32x32", "goroutine", ref.Elapsed, ref.Stats.MsgsSent, true)
	metrics["s6_time_1024_goroutine"] = ref.Elapsed
	for _, eng := range []struct {
		label   string
		workers int
		key     string
	}{
		{"calendar", 0, "s6_identical_1024_calendar"},
		{"calendar w=1", 1, "s6_identical_1024_calendar_w1"},
	} {
		sys := core.MustSystem(core.Grid(pSmall, pSmall), core.Executor("calendar"))
		if eng.workers > 0 {
			sys.Machine.SetExecutor(machine.NewCalendarExecutor(eng.workers))
		}
		run := runLast(sys, jp)
		cmp := core.CompareRuns(ref, run)
		tbl.AddRow("32x32", eng.label, run.Elapsed, run.Stats.MsgsSent, cmp.Identical)
		metrics[eng.key] = boolMetric(cmp.Identical)
	}

	// The 16384-processor run, on both engines: the calendar engine must
	// reproduce the goroutine engine's run bit-identically at full scale,
	// one iteration to keep the host cost proportionate.
	jpBig := must(progs.Jacobi(n, 1))
	refBig := runLast(core.MustSystem(core.Grid(pBig, pBig), core.Cost(machine.ZeroComm())), jpBig)
	tbl.AddRow("128x128", "goroutine", refBig.Elapsed, refBig.Stats.MsgsSent, true)
	calBig := runLast(core.MustSystem(core.Grid(pBig, pBig), core.Cost(machine.ZeroComm()),
		core.Executor("calendar")), jpBig)
	cmpBig := core.CompareRuns(refBig, calBig)
	tbl.AddRow("128x128", "calendar", calBig.Elapsed, calBig.Stats.MsgsSent, cmpBig.Identical)
	metrics["s6_identical_16384"] = boolMetric(cmpBig.Identical)
	metrics["s6_time_16384"] = calBig.Elapsed
	metrics["s6_msgs_16384"] = float64(calBig.Stats.MsgsSent)
	tbl.AddNote("16384-processor Jacobi iteration: %d messages, %d bytes moved",
		calBig.Stats.MsgsSent, calBig.Stats.BytesSent)

	return Result{Text: tbl.String(), Metrics: metrics}
}
