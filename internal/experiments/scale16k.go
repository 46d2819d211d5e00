package experiments

import (
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/progs"
	"repro/internal/report"
)

// s6Calendar16384 scales the runtime to 16384 virtual processors (a 128x128
// grid) — the many-more-processors-than-cores regime the calendar engine
// exists for: every rank is a parked continuation between its turns, and
// the worker pool resumes runnable ranks in virtual-time order. The
// experiment pins the engine's central invariant before using it: the same
// Jacobi Program must produce bit-identical values, message/byte censuses
// and virtual times whatever the worker count (the machine is a Kahn
// network, so results are a function of the program alone) — a worker per
// rank (the rows labelled "goroutine"), the default min(GOMAXPROCS, n),
// and a single worker, where any lost wakeup would hang rather than merely
// reorder. Then it records the 16384-processor run's census — host-side
// feasibility at a scale a worker per rank also handles, but the default
// reaches with bounded host parallelism.
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
	// on builds a System whose engine runs on workers (0: the default).
	on := func(workers int, opts ...core.Option) *core.System {
		sys := core.MustSystem(opts...)
		sys.Machine.SetExecutor(machine.NewCalendarExecutor(workers))
		return sys
	}

	// Engine parity at 1024 processors: a worker per rank as the reference
	// vs the default worker pool vs one worker.
	ref := runLast(on(pSmall*pSmall, core.Grid(pSmall, pSmall)), jp)
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
		run := runLast(on(eng.workers, core.Grid(pSmall, pSmall)), jp)
		cmp := core.CompareRuns(ref, run)
		tbl.AddRow("32x32", eng.label, run.Elapsed, run.Stats.MsgsSent, cmp.Identical)
		metrics[eng.key] = boolMetric(cmp.Identical)
	}

	// The 16384-processor run on both layouts: the default must reproduce
	// a worker per rank bit-identically at full scale, one iteration to
	// keep the host cost proportionate.
	jpBig := must(progs.Jacobi(n, 1))
	refBig := runLast(on(pBig*pBig, core.Grid(pBig, pBig), core.Cost(machine.ZeroComm())), jpBig)
	tbl.AddRow("128x128", "goroutine", refBig.Elapsed, refBig.Stats.MsgsSent, true)
	calBig := runLast(on(0, core.Grid(pBig, pBig), core.Cost(machine.ZeroComm())), jpBig)
	cmpBig := core.CompareRuns(refBig, calBig)
	tbl.AddRow("128x128", "calendar", calBig.Elapsed, calBig.Stats.MsgsSent, cmpBig.Identical)
	metrics["s6_identical_16384"] = boolMetric(cmpBig.Identical)
	metrics["s6_time_16384"] = calBig.Elapsed
	metrics["s6_msgs_16384"] = float64(calBig.Stats.MsgsSent)
	tbl.AddNote("16384-processor Jacobi iteration: %d messages, %d bytes moved",
		calBig.Stats.MsgsSent, calBig.Stats.BytesSent)

	return Result{Text: tbl.String(), Metrics: metrics}
}
