package progs_test

import (
	"errors"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adi"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/perfest"
	"repro/internal/progs"
)

// These tests run in an exec-armed binary (importing progs arms worker
// execution), so every ipc System here executes its ranks inside the
// worker processes — the relay path is covered by internal/machine's own
// tests, whose binary is not armed.

func mustSys(t *testing.T, opts ...core.Option) *core.System {
	t.Helper()
	sys, err := core.NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// layouts are the engine's two layouts under the labels they once had as
// engine names: "goroutine" is a worker per rank (a count above the rank
// count is clamped to it), "calendar" the default, min(GOMAXPROCS, n). A
// layout pins the coordinator's machine; the ranks of an ipc System run
// inside its workers at their default.
var layouts = []struct {
	name    string
	workers int
}{{"goroutine", math.MaxInt}, {"calendar", 0}}

// mustSysOn is mustSys with the engine at workers (0: the default).
func mustSysOn(t *testing.T, workers int, opts ...core.Option) *core.System {
	t.Helper()
	sys := mustSys(t, opts...)
	sys.Machine.SetExecutor(machine.NewCalendarExecutor(workers))
	return sys
}

func mustProg(t *testing.T, name string, args ...float64) *core.Program {
	t.Helper()
	p, err := core.BuildProgram(name, args...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func ipcTransport(t *testing.T, sys *core.System) *machine.IPCTransport {
	t.Helper()
	tr, ok := sys.Machine.Transport().(*machine.IPCTransport)
	if !ok {
		t.Fatalf("system transport is %T, want *machine.IPCTransport", sys.Machine.Transport())
	}
	return tr
}

func TestRanksRunInsideWorkers(t *testing.T) {
	// The tentpole's defining property, observed directly: each rank of a
	// distributed run reports the pid of the process that hosted it, and
	// those pids are the worker fleet's — never the coordinator's.
	sys := mustSys(t, core.Grid(2, 2), core.Transport("ipc"), core.Nodes(2))
	run, err := sys.RunProgram(mustProg(t, "hostpid"))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Values) != 4 {
		t.Fatalf("hostpid values = %v, want one per rank", run.Values)
	}
	coord := float64(os.Getpid())
	pids := ipcTransport(t, sys).WorkerPIDs()
	if len(pids) != 2 {
		t.Fatalf("worker fleet pids = %v, want 2", pids)
	}
	for rank, v := range run.Values {
		if v == coord {
			t.Errorf("rank %d ran in the coordinator process", rank)
		}
		node := rank / 2
		if v != float64(pids[node]) {
			t.Errorf("rank %d ran in pid %v, want node %d worker pid %d", rank, v, node, pids[node])
		}
	}
	// The coordinator's own sub-machine never executed a rank: its clocks
	// are untouched while the assembled run carries the workers' times.
	if got := sys.Machine.Elapsed(); got != 0 {
		t.Errorf("coordinator machine elapsed = %v after a distributed run, want 0", got)
	}
}

// TestFleetSharesHostCPUs: a node is a processor, not a host. Every worker
// of a fleet runs with this process's GOMAXPROCS divided by the node count
// (at least one thread) — also when this process inherited a GOMAXPROCS
// variable of its own, which must not reach the workers — and each run's
// own account says so, beside the CPU time every worker spent on it. Run it
// under -cpu 1,2,4 (internal/machine holds the relay-only twin).
func TestFleetSharesHostCPUs(t *testing.T) {
	prog := mustProg(t, "jacobi", 64, 2)
	for _, inherited := range []string{"", "7"} {
		if inherited != "" {
			t.Setenv("GOMAXPROCS", inherited)
		}
		for _, nodes := range []int{1, 2, 4} {
			sys := mustSys(t, core.Grid(4, 4), core.Transport("ipc"), core.Nodes(nodes))
			run, err := sys.RunProgram(prog)
			if err != nil {
				t.Fatal(err)
			}
			want := max(1, runtime.GOMAXPROCS(0)/nodes)
			procs := ipcTransport(t, sys).WorkerProcs()
			if run.Exec == nil || len(run.Exec.Nodes) != nodes || len(procs) != nodes {
				t.Fatalf("nodes=%d: exec stats %+v, worker procs %v", nodes, run.Exec, procs)
			}
			for node, ns := range run.Exec.Nodes {
				if procs[node] != want || ns.Procs != want {
					t.Errorf("GOMAXPROCS=%d (env %q), nodes=%d: node %d reports %d Ps in its Hello and %d in the run's account, want %d",
						runtime.GOMAXPROCS(0), inherited, nodes, node, procs[node], ns.Procs, want)
				}
				if ns.CPUMicros <= 0 {
					t.Errorf("nodes=%d: node %d spent %d µs of CPU on a run", nodes, node, ns.CPUMicros)
				}
			}
			sys.Close()
		}
	}
}

// TestWorkerExecConformance is the transport-invariance verdict with ranks
// in the workers: values, censuses and virtual times bit-identical to a
// shared-memory run, on both layouts of the engine.
func TestWorkerExecConformance(t *testing.T) {
	par := adi.Params{N: 32, A: 1, B: 1, Iters: 2}
	jp, err := progs.Jacobi(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := progs.ADI(par, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range layouts {
		for _, prog := range []*core.Program{jp, ap} {
			t.Run(l.name+"/"+prog.Name, func(t *testing.T) {
				shared := mustSysOn(t, l.workers, core.Grid(4, 4))
				ipc := mustSysOn(t, l.workers, core.Grid(4, 4), core.Transport("ipc"), core.Nodes(4))
				cmp, err := core.Compare(prog, shared, ipc)
				if err != nil {
					t.Fatal(err)
				}
				if !cmp.Identical || !cmp.TimesIdentical {
					t.Errorf("shared vs ipc(workers): values=%v census=%v times=%v",
						cmp.ValuesIdentical, cmp.CensusIdentical, cmp.TimesIdentical)
				}
				if cmp.B.Links == nil {
					t.Error("distributed run has no link census")
				}
				if len(ipcTransport(t, ipc).WorkerPIDs()) != 4 {
					t.Error("distributed run spawned no worker fleet")
				}
			})
		}
	}
}

// TestWorkerExecTCPLoopback is the same conformance row over a TCP
// listener instead of unix sockets (core.ListenAddr).
func TestWorkerExecTCPLoopback(t *testing.T) {
	shared := mustSys(t, core.Grid(2, 2))
	ipc := mustSys(t, core.Grid(2, 2), core.Transport("ipc"), core.Nodes(2),
		core.ListenAddr("127.0.0.1:0"))
	cmp, err := core.Compare(mustProg(t, "jacobi", 32, 2), shared, ipc)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Identical || !cmp.TimesIdentical {
		t.Errorf("shared vs ipc-over-tcp: values=%v census=%v times=%v",
			cmp.ValuesIdentical, cmp.CensusIdentical, cmp.TimesIdentical)
	}
}

// TestDistributedStallMatchesLocal pins the distributed stall verdict to
// the single-process one: the same deliberately deadlocked program must
// fail with the byte-identical error text, and the machine-level cause
// must survive the process boundary for errors.Is.
func TestDistributedStallMatchesLocal(t *testing.T) {
	shared := mustSys(t, core.Grid(2, 2))
	ipc := mustSys(t, core.Grid(2, 2), core.Transport("ipc"), core.Nodes(2))
	prog := mustProg(t, "stall")
	_, localErr := shared.RunProgram(prog)
	if localErr == nil || !errors.Is(localErr, machine.ErrDeadlock) {
		t.Fatalf("shared run of stall program: %v, want a deadlock", localErr)
	}
	_, distErr := ipc.RunProgram(prog)
	if distErr == nil {
		t.Fatal("distributed run of stall program succeeded")
	}
	if !errors.Is(distErr, machine.ErrDeadlock) {
		t.Errorf("distributed stall error does not wrap machine.ErrDeadlock: %v", distErr)
	}
	if localErr.Error() != distErr.Error() {
		t.Errorf("stall error text diverges across the process boundary:\n  local: %s\n  dist:  %s",
			localErr, distErr)
	}
	// The fleet survives the verdict: the same transport runs the next
	// program normally.
	if _, err := ipc.RunProgram(mustProg(t, "jacobi", 32, 1)); err != nil {
		t.Errorf("run after a distributed stall verdict: %v", err)
	}
}

// TestWorkerCrashMidRunNamesNode is the worker-loss path with ranks
// executing remotely: a worker process dying mid-run must surface a
// structured ErrWorkerLost naming the node, and Run must unblock.
func TestWorkerCrashMidRunNamesNode(t *testing.T) {
	ipc := mustSys(t, core.Grid(2, 2), core.Transport("ipc"), core.Nodes(2))
	_, err := ipc.RunProgram(mustProg(t, "crash", 3)) // rank 3 lives on node 1
	if err == nil {
		t.Fatal("run survived its worker crashing")
	}
	if !errors.Is(err, machine.ErrWorkerLost) {
		t.Errorf("crash error does not wrap ErrWorkerLost: %v", err)
	}
	if !strings.Contains(err.Error(), "node 1") {
		t.Errorf("crash error does not name the lost node: %v", err)
	}
}

// TestSystemDoubleCloseDuringRun is the Close regression: closing an ipc
// System twice, concurrently, while a distributed run is in flight must
// not hang or panic — the run aborts and both Closes return cleanly.
func TestSystemDoubleCloseDuringRun(t *testing.T) {
	ipc := mustSys(t, core.Grid(2, 2), core.Transport("ipc"), core.Nodes(2))
	runErr := make(chan error, 1)
	go func() {
		_, err := ipc.RunProgram(mustProg(t, "stall"))
		runErr <- err
	}()
	// Wait until the fleet exists — the run is past setup and in flight.
	tr := ipcTransport(t, ipc)
	for i := 0; len(tr.WorkerPIDs()) < 2 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ipc.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-runErr:
		if err == nil {
			t.Error("stall run reported success")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight run never unblocked after Close")
	}
	if _, err := ipc.RunProgram(mustProg(t, "jacobi", 32, 1)); err == nil {
		t.Error("RunProgram succeeded on a closed system")
	}
}

// TestWireTrafficMatchesPerfEst is the execution-plane payoff, pinned
// exactly: with ranks inside the workers the socket link census is the
// genuine inter-node edge set, so differencing two iteration counts must
// reproduce perfest's combinatorial enumeration bit-for-bit.
func TestWireTrafficMatchesPerfEst(t *testing.T) {
	const n, p, nodes = 256, 16, 4
	ipc := mustSys(t, core.Grid(p, p), core.Transport("ipc"), core.Nodes(nodes))
	runA, err := ipc.RunProgram(mustProg(t, "jacobi", n, 3))
	if err != nil {
		t.Fatal(err)
	}
	runB, err := ipc.RunProgram(mustProg(t, "jacobi", n, 5))
	if err != nil {
		t.Fatal(err)
	}
	diff := runB.Links.Sub(runA.Links)
	if diff == nil {
		t.Fatal("distributed runs produced no link censuses")
	}
	dMsgs, dBytes := diff.Total()
	wantMsgs, wantBytes := perfest.JacobiInterNode(n, p, nodes)
	if int(dMsgs) != 2*wantMsgs || int(dBytes) != 2*wantBytes {
		t.Errorf("wire traffic per 2 iterations = %d msgs / %d bytes, want exactly %d / %d",
			dMsgs, dBytes, 2*wantMsgs, 2*wantBytes)
	}
}

// TestDirectSchedulingRunsInsideWorkers: the derivation mode is state of the
// machine the arrays live on and rides in the Spec the workers rebuild from,
// so a DirectScheduling System on ipc is as eligible for worker execution as
// a scheduled one — pid-verified — and jacobi, adi and madi stay
// bit-identical to a scheduled shared-memory run on both layouts of the
// engine.
func TestDirectSchedulingRunsInsideWorkers(t *testing.T) {
	direct := []core.Option{core.Grid(4, 4), core.Transport("ipc"), core.Nodes(4), core.DirectScheduling()}
	sys := mustSys(t, direct...)
	run, err := sys.RunProgram(mustProg(t, "hostpid"))
	if err != nil {
		t.Fatal(err)
	}
	if run.Exec == nil {
		t.Fatal("DirectScheduling on ipc took the relay path")
	}
	pids := ipcTransport(t, sys).WorkerPIDs()
	if len(pids) != 4 || len(run.Values) != 16 {
		t.Fatalf("fleet pids %v, hostpid values %v", pids, run.Values)
	}
	for rank, v := range run.Values {
		if v != float64(pids[rank/4]) {
			t.Errorf("rank %d ran in pid %v, want node %d worker pid %d", rank, v, rank/4, pids[rank/4])
		}
	}
	par := adi.Params{N: 32, A: 1, B: 1, Iters: 2}
	jp, err := progs.Jacobi(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := progs.ADI(par, false)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := progs.ADI(par, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range layouts {
		for _, prog := range []*core.Program{jp, ap, mp} {
			t.Run(l.name+"/"+prog.Name, func(t *testing.T) {
				shared := mustSysOn(t, l.workers, core.Grid(4, 4))
				ipc := mustSysOn(t, l.workers, direct...)
				cmp, err := core.Compare(prog, shared, ipc)
				if err != nil {
					t.Fatal(err)
				}
				if !cmp.Identical || !cmp.TimesIdentical {
					t.Errorf("scheduled shared vs direct ipc(workers): values=%v census=%v times=%v",
						cmp.ValuesIdentical, cmp.CensusIdentical, cmp.TimesIdentical)
				}
				if cmp.B.Exec == nil {
					t.Error("direct run took the relay path")
				}
			})
		}
	}
}

// TestRelayEligibilityUnchanged: what still shapes a run coordinator-side
// keeps every rank in the coordinator process — a Trace recorder, a
// chaos-wrapped transport, a program with no registry identity.
func TestRelayEligibilityUnchanged(t *testing.T) {
	ipc := []core.Option{core.Grid(2, 2), core.Transport("ipc"), core.Nodes(2)}
	hostpid := mustProg(t, "hostpid")
	literal := &core.Program{Name: "literal", Body: hostpid.Body}
	for name, tc := range map[string]struct {
		sys  *core.System
		prog *core.Program
	}{
		"trace":   {mustSys(t, append(ipc, core.Trace())...), hostpid},
		"chaos":   {mustSys(t, core.Grid(2, 2), core.Transport("chaos:ipc"), core.Nodes(2)), hostpid},
		"literal": {mustSys(t, ipc...), literal},
	} {
		run, err := tc.sys.RunProgram(tc.prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if run.Exec != nil {
			t.Errorf("%s: run executed inside the workers", name)
		}
		for rank, v := range run.Values {
			if v != float64(os.Getpid()) {
				t.Errorf("%s: rank %d ran in pid %v, not the coordinator", name, rank, v)
			}
		}
	}
}

// TestDeclareOnceBitIdenticalToFresh: a System keeps each program family's
// declarations between runs (kf.Declared on the root context; inside an ipc
// worker, on the cached sub-machine of each run spec) and rebuilds them
// when the size changes. Whatever a System ran before — the same program,
// the same family at another size, adi after madi on shared arrays — every
// run must be the run a fresh System produces: values, census, link census
// and virtual times, on every transport and both layouts. The sequence ends
// on the tenth run of a program whose first run opened it.
func TestDeclareOnceBitIdenticalToFresh(t *testing.T) {
	j64, j32 := mustProg(t, "jacobi", 64, 2), mustProg(t, "jacobi", 32, 2)
	a32, m32 := mustProg(t, "adi", 32, 1, 1, 1, 2), mustProg(t, "madi", 32, 1, 1, 1, 2)
	a64, m64 := mustProg(t, "adi", 64, 1, 1, 1, 1), mustProg(t, "madi", 64, 1, 1, 1, 1)
	sequence := []*core.Program{
		j64, j32, j64, // one family at two sizes, and back
		a32, m32, a32, // adi and madi on one set of arrays
		m64, a64, m32, // and across a size change
		j64, j64, j64, j64, j64, j64, j64, // j64's tenth run is its first
	}
	for _, transport := range []struct {
		name string
		opts []core.Option
	}{
		{"shared", nil},
		{"federated", []core.Option{core.Transport("federated"), core.Nodes(4)}},
		{"ipc", []core.Option{core.Transport("ipc"), core.Nodes(4)}},
	} {
		for _, l := range layouts {
			t.Run(transport.name+"/"+l.name, func(t *testing.T) {
				opts := append([]core.Option{core.Grid(4, 4)}, transport.opts...)
				fresh := map[*core.Program]core.Run{}
				for _, p := range sequence {
					if _, ok := fresh[p]; ok {
						continue
					}
					sys, err := core.NewSystem(opts...)
					if err != nil {
						t.Fatal(err)
					}
					sys.Machine.SetExecutor(machine.NewCalendarExecutor(l.workers))
					fresh[p], err = sys.RunProgram(p)
					sys.Close()
					if err != nil {
						t.Fatal(err)
					}
				}
				sys := mustSysOn(t, l.workers, opts...)
				for i, p := range sequence {
					got, err := sys.RunProgram(p)
					if err != nil {
						t.Fatalf("run %d (%s): %v", i, p.Name, err)
					}
					want := fresh[p]
					cmp := core.CompareRuns(want, got)
					links := want.Links == nil && got.Links == nil || sameCensus(want.Links, got.Links)
					if !cmp.Identical || !cmp.TimesIdentical || !links {
						t.Errorf("run %d (%s) differs from a fresh System's: values=%v census=%v times=%v links=%v",
							i, p.Name, cmp.ValuesIdentical, cmp.CensusIdentical, cmp.TimesIdentical, links)
					}
				}
			})
		}
	}
}
