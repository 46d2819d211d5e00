package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
)

// workload is one named set of inputs. setup performs one full set-up
// cycle — reference run, System or server construction, fleet spawn, warm
// runs — and returns the instance the passes drive.
type workload struct {
	Name string
	Why  string
	// setup builds a ready instance; seed drives the workload's only
	// random input.
	setup func(seed int64) (instance, error)
	// primary is the System configuration the workload's time is spent
	// on — the System itself for the direct workloads, the ipc tenant's
	// for the serve ones. The per-workload ladder rows (empty run,
	// construction) are measured on fresh Systems built from it.
	primary []core.Option
	// twin is the in-process sibling of an ipc workload's System: same
	// grid, nodes, pricing and executor on the federated transport. Nil
	// where the System is in-process already.
	twin []core.Option
	// prog is the registry program the workload runs on primary.
	prog progSpec
}

// progSpec is a registry program identity.
type progSpec struct {
	name string
	args []float64
}

func (p progSpec) build() (*core.Program, error) { return core.BuildProgram(p.name, p.args...) }

// instance is a set-up workload. One client goroutine drives it, closed
// loop.
type instance interface {
	// op runs one operation. It clocks the interval a user waits for,
	// records spans around the calls it makes when rec is non-nil, and
	// verifies the outputs against the reference after the clock stops.
	op(rec *recorder, id int) opResult
	// teardown releases everything set-up built: Systems, worker fleets,
	// listeners.
	teardown() error
}

// opResult is the outcome of one op.
type opResult struct {
	wall time.Duration
	// err is why the op failed, nil when it succeeded; mismatch marks a
	// failure that was a bit-identity violation.
	err      error
	mismatch bool
	runs     []taggedRun
	reqs     []reqSample
}

// taggedRun is one program run an op performed; config indexes the
// workload's distinct (program, System) pairs.
type taggedRun struct {
	config int
	run    core.Run
}

// reqSample is one HTTP request of a serve op, on the client's clock and
// with the server's own report of it.
type reqSample struct {
	tenant             int
	client, queue, run time.Duration
	bytes              int
	hit                bool
}

// pricedCost is the hierarchical cost model of the S3 scaling experiment:
// cheap intra-node delivery, inter-node links 4x the latency and 8x the
// byte period.
var pricedCost = machine.CostModel{Latency: 1e-6, BytePeriod: 1e-9}.WithInterNode(4, 8)

var workloads = []workload{
	direct(wInprocJacobi,
		"In-process steady state: 4 Jacobi sweeps on 1024 ranks make plan replay, halo exchange, mailbox match and calendar park/wake most of the op; no socket, no HTTP.",
		progSpec{"jacobi", []float64{256, 4}},
		[]core.Option{core.Grid(32, 32), core.Transport("federated"), core.Nodes(16), core.Cost(pricedCost), core.Executor("calendar")},
		[]core.Option{core.Grid(32, 32), core.Transport("federated"), core.Nodes(16), core.Cost(pricedCost)},
		nil),
	direct(wIPCBulk,
		"The ipc plane under bursty bulk traffic: 966 inter-node messages and 405,552 link bytes per op, nearly all the gather to rank 0 leaving in per-destination batches.",
		progSpec{"jacobi", []float64{256, 1}},
		[]core.Option{core.Grid(32, 32), core.Transport("ipc"), core.Nodes(4), core.Executor("calendar")},
		[]core.Option{core.Grid(32, 32), core.Transport("federated"), core.Nodes(4)},
		[]core.Option{core.Grid(32, 32), core.Transport("federated"), core.Nodes(4), core.Executor("calendar")}),
	direct(wIPCChain,
		"The same ipc layer used the other way: 2,562 inter-node messages of ~54 bytes in serialized tridiagonal dependency chains, where batching cannot help and every hop is on the critical path.",
		progSpec{"adi", []float64{64, 1, 1, 1, 2}},
		[]core.Option{core.Grid(8, 8), core.Transport("ipc"), core.Nodes(4)},
		[]core.Option{core.Grid(8, 8), core.Transport("federated"), core.Nodes(4)},
		[]core.Option{core.Grid(8, 8), core.Transport("federated"), core.Nodes(4)}),
	direct(wScale16k,
		"Executor and per-rank cost at 16,384 ranks (114,173 simulated messages): calendar heap, park/wake and rank start/finish do the work; transports and codec almost none.",
		progSpec{"jacobi", []float64{256, 1}},
		[]core.Option{core.Grid(128, 128), core.Cost(machine.ZeroComm()), core.Executor("calendar")},
		[]core.Option{core.Grid(128, 128), core.Cost(machine.ZeroComm())},
		nil),
	serveWarm,
	serveCold,
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// direct declares a workload whose op is one RunProgram on a warmed System
// built from sut. ref is the in-process reference with the same cost
// structure on the goroutine executor.
func direct(name, why string, prog progSpec, sut, ref, twin []core.Option) workload {
	return workload{
		Name: name, Why: why, primary: sut, twin: twin, prog: prog,
		setup: func(int64) (instance, error) { return setupDirect(prog, sut, ref) },
	}
}

// referenceRun runs p once on a throwaway System built from opts.
func referenceRun(p *core.Program, opts []core.Option) (core.Run, error) {
	sys, err := core.NewSystem(opts...)
	if err != nil {
		return core.Run{}, fmt.Errorf("reference system: %w", err)
	}
	defer sys.Close()
	run, err := sys.RunProgram(p)
	if err != nil {
		return core.Run{}, fmt.Errorf("reference run: %w", err)
	}
	return run, nil
}

// identical is the per-op correctness verdict: values, census and virtual
// times bit-identical to the reference.
func identical(want, got core.Run) bool {
	c := core.CompareRuns(want, got)
	return c.Identical && c.TimesIdentical
}

// warmRuns is how many runs a System gets before it counts as warmed: the
// first builds, the second is the first reused run and installs the
// scratch caches (on ipc, on both sides of the sockets).
const warmRuns = 2

// warmSystem builds a System from opts and warms it with p, checking each
// warm run against want when want has values.
func warmSystem(opts []core.Option, p *core.Program, want *core.Run) (*core.System, error) {
	sys, err := core.NewSystem(opts...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmRuns; i++ {
		run, err := sys.RunProgram(p)
		if err == nil && want != nil && !identical(*want, run) {
			err = fmt.Errorf("warm run %d is not bit-identical to the reference", i)
		}
		if err != nil {
			sys.Close()
			return nil, err
		}
	}
	return sys, nil
}

type directInstance struct {
	spec progSpec
	prog *core.Program
	sys  *core.System
	want core.Run
}

func setupDirect(spec progSpec, sut, ref []core.Option) (instance, error) {
	p, err := spec.build()
	if err != nil {
		return nil, err
	}
	want, err := referenceRun(p, ref)
	if err != nil {
		return nil, err
	}
	sys, err := warmSystem(sut, p, &want)
	if err != nil {
		return nil, err
	}
	return &directInstance{spec: spec, prog: p, sys: sys, want: want}, nil
}

// op is one RunProgram on the warmed System. The clock covers RunProgram
// alone; the traced pass additionally rebuilds the program inside the op
// (what a server does per request) so the trace prices progs beside core.
func (d *directInstance) op(rec *recorder, id int) opResult {
	root := rec.begin("op", -1, id)
	p := d.prog
	if rec != nil {
		s := rec.begin("progs.build", root, id)
		built, err := d.spec.build()
		rec.end(s)
		if err != nil {
			rec.end(root)
			return opResult{err: err}
		}
		p = built
	}
	s := rec.begin("core.run_program", root, id)
	t0 := time.Now()
	run, err := d.sys.RunProgram(p)
	wall := time.Since(t0)
	rec.end(s)
	res := opResult{wall: wall, err: err}
	if err == nil {
		s = rec.begin("core.compare_runs", root, id)
		ok := identical(d.want, run)
		rec.end(s)
		res.runs = []taggedRun{{0, run}}
		if !ok {
			res.mismatch = true
			res.err = fmt.Errorf("run is not bit-identical to the reference")
		}
	}
	rec.end(root)
	return res
}

func (d *directInstance) teardown() error { return d.sys.Close() }
