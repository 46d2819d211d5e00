package progs_test

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/progs"
)

// Every registry program offers a step form beside its body — Jacobi
// (jacobi.KF1Step), ADI and madi (adi.ParallelStep), the diagnostics — and a
// run takes it wherever the transport can answer a receive with "would
// block": its ranks are then resumed by a call, with no stack each. These
// tests hold the step form to the body form — the same program built
// literally, without Step — in everything a run reports.

// bodyForm is p without its step form: a literal program, so an ipc System
// runs it coordinator-side, over the relay.
func bodyForm(p *core.Program) *core.Program {
	return &core.Program{Name: p.Name, Body: p.Body}
}

// sameRun reports how a and b differ in values, census, virtual times and
// link census; "" when they do not.
func sameRun(a, b core.Run) string {
	cmp := core.CompareRuns(a, b)
	links := a.Links == nil && b.Links == nil || sameCensus(a.Links, b.Links)
	if cmp.Identical && cmp.TimesIdentical && links {
		return ""
	}
	return fmt.Sprintf("values=%v census=%v times=%v links=%v", cmp.ValuesIdentical, cmp.CensusIdentical, cmp.TimesIdentical, links)
}

// balanced reports whether a scheduler account adds up for n ranks: every
// park woken, every grant a rank's start or a wake's, every idle token but
// the last of each partition granted again.
func balanced(st machine.CalendarStats, n int) bool {
	return st.Parks == st.Wakes && st.HandoffGrants+st.FromIdleGrants == int64(n)+st.Wakes &&
		st.Idles == st.FromIdleGrants+int64(st.Partitions)
}

// TestStepFormMatchesBody is the identity battery: the step form and the
// body form of Jacobi, ADI and madi, each on a fresh System run twice
// (declaring, then warm),
// give bit-identical values, message census, link census and virtual times
// on shared, priced federated/16 and ipc/4 (where the step form runs inside
// the workers and the body form over the relay, and with a trace both over
// the relay), on a worker per rank (labelled "goroutine": a count above
// the rank count, clamped), the default, 1, 2, 3 and 64 workers, and under
// an active chaos scenario (which cannot answer "would block", so both run
// the body). Both scheduler accounts must balance, and the body form runs
// on a partition per rank. With several ranks per partition the step form
// starts no goroutine per rank, first run included.
func TestStepFormMatchesBody(t *testing.T) {
	progs := []*core.Program{
		mustProg(t, "jacobi", 64, 3),
		mustProg(t, "adi", 64, 1, 1, 1, 2),
		mustProg(t, "madi", 64, 1, 1, 1, 2),
	}
	priced := machine.CostModel{Latency: 1e-6, BytePeriod: 1e-9}.WithInterNode(4, 8)
	lossy := chaos.Scenario{Name: "lossy", Seed: 7, Drop: 0.05, Dup: 0.05, Delay: 0.5, DelayMax: 1e-4}
	const ranks = 64
	type config struct {
		name    string
		opts    []core.Option
		workers int // the engine's worker count; 0: the default
		stepped bool
	}
	var configs []config
	for _, tr := range []struct {
		name string
		opts []core.Option
	}{
		{"shared", nil},
		{"federated16", []core.Option{core.Transport("federated"), core.Nodes(16), core.Cost(priced)}},
	} {
		configs = append(configs, config{tr.name + "/goroutine", tr.opts, math.MaxInt, true},
			config{tr.name + "/calendar", tr.opts, 0, true})
		for _, w := range []int{1, 2, 3, ranks} {
			configs = append(configs, config{fmt.Sprintf("%s/calendar%d", tr.name, w), tr.opts, w, true})
		}
	}
	configs = append(configs,
		config{"ipc4/calendar", []core.Option{core.Transport("ipc"), core.Nodes(4)}, 0, true},
		// A trace keeps the ranks coordinator-side: the step form over the
		// relay, its ranks woken by the ipc readers' deliveries.
		config{"ipc4-relay/calendar2", []core.Option{core.Transport("ipc"), core.Nodes(4), core.Trace()}, 2, true},
		config{"chaos/calendar2", []core.Option{core.Transport("chaos:federated"), core.Nodes(4), core.Chaos(lossy)}, 2, false},
	)
	for _, cf := range configs {
		t.Run(cf.name, func(t *testing.T) {
			for _, steps := range progs {
				body := bodyForm(steps)
				t.Run(steps.Name, func(t *testing.T) {
					build := func() *core.System {
						return mustSysOn(t, cf.workers, append([]core.Option{core.Grid(8, 8)}, cf.opts...)...)
					}
					sysS, sysB := build(), build()
					for run := 0; run < 2; run++ {
						got, err := sysS.RunProgram(steps)
						if err != nil {
							t.Fatal(err)
						}
						want, err := sysB.RunProgram(body)
						if err != nil {
							t.Fatal(err)
						}
						if diff := sameRun(want, got); diff != "" {
							t.Errorf("run %d: step form differs from the body form: %s", run, diff)
						}
						if cf.name == "ipc4/calendar" {
							if got.Exec == nil || got.Calendar != nil {
								t.Errorf("run %d: the step form did not run inside the workers (Exec %v, Calendar %v)", run, got.Exec, got.Calendar)
							}
							continue
						}
						gs, ws := *got.Calendar, *want.Calendar
						if !balanced(gs, ranks) || !balanced(ws, ranks) {
							t.Errorf("run %d: accounts do not balance: step %+v, body %+v", run, gs, ws)
						}
						if ws.Partitions != ranks {
							t.Errorf("run %d: the body form ran on %d partitions, want one per rank", run, ws.Partitions)
						}
						if per := ranks / gs.Partitions; cf.stepped && per > 1 && gs.Starts != 0 {
							t.Errorf("run %d: the step form started %d continuations on partitions of %d ranks", run, gs.Starts, per)
						}
						if !cf.stepped && gs.Starts != ws.Starts {
							t.Errorf("run %d: %d continuations started, body form %d: the step form ran", run, gs.Starts, ws.Starts)
						}
					}
				})
			}
		})
	}
}

// TestEveryRegistryProgramSteps: every program in the registry's schema
// table, built at its arguments' lower bounds, offers a step form, so no
// registry program keeps a stack per rank.
func TestEveryRegistryProgramSteps(t *testing.T) {
	schemas := progs.Schemas()
	if len(schemas) == 0 {
		t.Fatal("the schema table is empty")
	}
	for name, specs := range schemas {
		args := make([]float64, len(specs))
		for i, spec := range specs {
			args[i] = spec.Min
		}
		if p := mustProg(t, name, args...); p.Step == nil {
			t.Errorf("%s has no step form", name)
		}
	}
}

// failing is a test-only program in both forms: its body blocks and fails
// where its step returns and fails. "unfed" waits on a stream nobody feeds;
// "panic" panics in rank 0's step after the receive that parked it. calls
// counts the step's calls.
func failing(kind string) (steps, body *core.Program, calls *atomic.Int64) {
	calls = new(atomic.Int64)
	const tag = 0x57
	at := func(c *kf.Ctx, recv func(src int) bool) bool {
		p := c.P
		switch {
		case kind == "unfed" && p.Rank() == 0:
			return recv(c.G.Size() - 1)
		case kind == "panic" && p.Rank() == 1:
			p.SendValue(0, tag, 1)
		case kind == "panic" && p.Rank() == 0:
			if !recv(1) {
				return false
			}
			panic("step program failed")
		}
		return true
	}
	out := core.Output{Values: []float64{1}}
	steps = &core.Program{
		Name: "failing-" + kind,
		Body: func(c *kf.Ctx) (core.Output, error) {
			at(c, func(src int) bool { c.P.Recv(src, tag); return true })
			return out, nil
		},
		Step: func(c *kf.Ctx, resume bool) (core.Output, bool, error) {
			calls.Add(1)
			if !at(c, func(src int) bool { _, ok := c.P.TryRecv(src, tag); return ok }) {
				return core.Output{}, false, nil
			}
			return out, true, nil
		},
	}
	return steps, bodyForm(steps), calls
}

// TestStepFormFailuresMatchBody: a step rank's failure — a wait nobody
// feeds, a panic in a resumed step — ends the run with the error text of
// the same failure in the body form, byte for byte, on both layouts of the
// engine on shared and federated/4; and the System runs Jacobi, ADI and
// madi next as a fresh System does.
func TestStepFormFailuresMatchBody(t *testing.T) {
	next := []*core.Program{
		mustProg(t, "jacobi", 32, 2),
		mustProg(t, "adi", 32, 1, 1, 1, 2),
		mustProg(t, "madi", 32, 1, 1, 1, 2),
	}
	for _, tr := range []struct {
		name string
		opts []core.Option
	}{
		{"shared", nil},
		{"federated4", []core.Option{core.Transport("federated"), core.Nodes(4)}},
	} {
		for _, l := range layouts {
			opts := append([]core.Option{core.Grid(4, 4)}, tr.opts...)
			fresh := make([]core.Run, len(next))
			for i, p := range next {
				run, err := mustSysOn(t, l.workers, opts...).RunProgram(p)
				if err != nil {
					t.Fatal(err)
				}
				fresh[i] = run
			}
			for _, kind := range []string{"unfed", "panic"} {
				t.Run(tr.name+"/"+l.name+"/"+kind, func(t *testing.T) {
					steps, body, calls := failing(kind)
					_, want := mustSysOn(t, l.workers, opts...).RunProgram(body)
					if want == nil {
						t.Fatal("the body form succeeded")
					}
					sys := mustSysOn(t, l.workers, opts...)
					for run := 0; run < 2; run++ {
						_, got := sys.RunProgram(steps)
						if got == nil || got.Error() != want.Error() {
							t.Fatalf("run %d: step form: %v\nbody form: %v", run, got, want)
						}
					}
					if calls.Load() == 0 {
						t.Fatal("the step form never ran")
					}
					for i, p := range next {
						run, err := sys.RunProgram(p)
						if err != nil {
							t.Fatal(err)
						}
						if diff := sameRun(fresh[i], run); diff != "" {
							t.Errorf("%s after the failure differs from a fresh System's: %s", p.Name, diff)
						}
					}
				})
			}
		}
	}
}

// TestRunCarriesCalendarStats: a run on the coordinator's machine reports
// what the engine's scheduler did — the machine's own CalendarStats — and
// a run inside ipc workers reports none; CompareRuns ignores it. Jacobi's
// first run starts no continuation where a partition holds several ranks:
// its ranks are steps.
func TestRunCarriesCalendarStats(t *testing.T) {
	p := mustProg(t, "jacobi", 32, 1)
	sys := mustSys(t, core.Grid(4, 4))
	run, err := sys.RunProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if run.Calendar == nil || *run.Calendar != sys.Machine.CalendarStats() {
		t.Fatalf("Run.Calendar = %v, machine says %+v", run.Calendar, sys.Machine.CalendarStats())
	}
	if st := run.Calendar; st.Partitions < 16 && st.Starts != 0 {
		t.Errorf("first run on %d partitions of 16 ranks started %d continuations", st.Partitions, st.Starts)
	}
	other := run
	other.Calendar = &machine.CalendarStats{Parks: run.Calendar.Parks + 1}
	if c := core.CompareRuns(run, other); !c.Identical || !c.TimesIdentical {
		t.Errorf("CompareRuns looked at Calendar: %+v", c)
	}
	ipc := mustSys(t, core.Grid(4, 4), core.Transport("ipc"), core.Nodes(2))
	run, err = ipc.RunProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if run.Exec == nil || run.Calendar != nil {
		t.Errorf("ipc run: Exec %v, Calendar %v; want the workers' account and no calendar", run.Exec, run.Calendar)
	}
}
