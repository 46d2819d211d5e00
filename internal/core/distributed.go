package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/machine"
	"repro/internal/topology"
)

// This file is the core half of the ipc execution plane: when a registered
// program runs on a bare ipc transport in an exec-armed binary, the ranks
// execute inside the worker processes instead of the coordinator. The
// coordinator ships a runSpec — the program's registry key and args, and
// the System's own Spec.Key — the transport broadcasts it
// (machine.RunDistributed), and each worker's execution hook
// (buildWorkerRun below) resolves that declaration and builds the identical
// sub-machine over its node's rank window through the same Spec.machine
// the coordinator used. Per-rank outcomes come back as opaque records that
// runDistributed reassembles into exactly the Run a coordinator-side
// execution would have produced: values concatenated in rank order, stats
// summed in rank order, elapsed times as maxima, censuses from the
// transport's link counters — bit-identical, because the Kahn-network
// determinism that makes transports interchangeable makes processes
// interchangeable too.
//
// Systems that shape the run coordinator-side keep the relay path: Trace
// needs every event in one process, and a chaos-wrapped transport injects
// faults above the wire (the scenario would have to replicate into every
// worker to mean the same thing). Programs built literally (not via
// BuildProgram) have no registry identity to ship and also run
// coordinator-side.

// runSpec is everything a worker needs to rebuild one distributed run.
type runSpec struct {
	Program string    `json:"program"`
	Args    []float64 `json:"args,omitempty"`
	// System is the coordinator System's Spec.Key, verbatim.
	System json.RawMessage `json:"system"`
}

// rankRecordLen is the fixed prefix of a per-rank result record:
// [outElapsed, clock, flops, msgsSent, bytesSent, msgsRecv, idleTime,
// commTime, nValues], followed by nValues program values. The int64
// counters cross as raw bit patterns (i64bits) — a float64 conversion
// would round counts above 2^53.
const rankRecordLen = 9

func i64bits(v int64) float64 { return math.Float64frombits(uint64(v)) }
func bitsI64(f float64) int64 { return int64(math.Float64bits(f)) }

// distributedTransport returns the bare ipc transport when p is eligible to
// execute inside the workers, nil when the run must stay coordinator-side.
// The type assertion is deliberately on the unwrapped concrete type: a
// chaos wrapper (or any other shaping layer) falls through to the relay
// path.
func (s *System) distributedTransport(p *Program) *machine.IPCTransport {
	if p.key == "" || s.Trace != nil || !machine.WorkerExecEnabled() {
		return nil
	}
	t, _ := s.Machine.Transport().(*machine.IPCTransport)
	return t
}

// remoteRankError reconstructs a worker rank's failure on the coordinator:
// the exact message text, with the machine-level cause (ErrDeadlock)
// restored for errors.Is.
type remoteRankError struct {
	text string
	base error
}

func (e *remoteRankError) Error() string { return e.text }
func (e *remoteRankError) Unwrap() error { return e.base }

func rankError(r machine.RankResult) error {
	if r.ErrClass == machine.RankErrDeadlock {
		return &remoteRankError{text: r.ErrText, base: machine.ErrDeadlock}
	}
	return errors.New(r.ErrText)
}

// runDistributed executes p inside the transport's worker fleet and
// reassembles the Run record a coordinator-side execution would produce;
// RunProgram finishes it.
func (s *System) runDistributed(p *Program, t *machine.IPCTransport) (Run, error) {
	raw, err := json.Marshal(runSpec{Program: p.key, Args: p.args, System: json.RawMessage(s.spec.key)})
	if err != nil {
		return Run{}, fmt.Errorf("encode run spec: %w", err)
	}
	results, err := t.RunDistributed(raw)
	if err != nil {
		return Run{}, err
	}
	var run Run
	var firstErr error
	for rank := range results {
		r := &results[rank]
		if r.ErrClass != machine.RankErrNone && firstErr == nil {
			firstErr = rankError(*r)
		}
		rec := r.Payload
		if len(rec) < rankRecordLen || len(rec) != rankRecordLen+int(rec[8]) {
			return Run{}, fmt.Errorf("malformed result record for rank %d", rank)
		}
		if rec[0] > run.Elapsed {
			run.Elapsed = rec[0]
		}
		if rec[1] > run.MachineElapsed {
			run.MachineElapsed = rec[1]
		}
		// Summed in ascending rank order — the same float64 addition order
		// TotalStats uses — so the aggregate is bit-identical.
		run.Stats = run.Stats.Add(machine.Stats{
			Flops:     bitsI64(rec[2]),
			MsgsSent:  bitsI64(rec[3]),
			BytesSent: bitsI64(rec[4]),
			MsgsRecv:  bitsI64(rec[5]),
			IdleTime:  rec[6],
			CommTime:  rec[7],
		})
		run.Values = append(run.Values, rec[rankRecordLen:]...)
	}
	run.Exec = t.ExecStats()
	return run, firstErr
}

// workerRun hosts one node's share of a distributed run inside a worker
// process; see machine.WorkerRun.
type workerRun struct {
	p  *Program
	g  *topology.Grid
	wt *machine.WorkerTransport
	m  *machine.Machine

	outs []Output // execProgram's table, kept between runs
}

func (r *workerRun) Transport() *machine.WorkerTransport { return r.wt }

// Execute runs the node's rank window to completion and packs one result
// record per local rank.
func (r *workerRun) Execute() []machine.RankResult {
	// The first rank-body error is also in RankErrors; the returned error
	// adds nothing here.
	r.outs, _ = execProgram(r.m, r.g, r.p, r.outs)
	outs := r.outs
	lo, hi := r.wt.LocalRanks()
	errs := r.m.RankErrors()
	results := make([]machine.RankResult, 0, hi-lo)
	for rank := lo; rank < hi; rank++ {
		var out Output
		if idx, ok := r.g.Index(rank); ok {
			out = outs[idx]
		}
		st := r.m.ProcStats(rank)
		rec := make([]float64, 0, rankRecordLen+len(out.Values))
		rec = append(rec,
			out.Elapsed,
			r.m.ProcClock(rank),
			i64bits(st.Flops),
			i64bits(st.MsgsSent),
			i64bits(st.BytesSent),
			i64bits(st.MsgsRecv),
			st.IdleTime,
			st.CommTime,
			float64(len(out.Values)),
		)
		rec = append(rec, out.Values...)
		rr := machine.RankResult{Rank: rank, Payload: rec}
		if err := errs[rank]; err != nil {
			rr.ErrText = err.Error()
			if errors.Is(err, machine.ErrDeadlock) {
				rr.ErrClass = machine.RankErrDeadlock
			} else {
				rr.ErrClass = machine.RankErrGeneric
			}
		}
		results = append(results, rr)
	}
	return results
}

// workerRunCache keeps recently built sub-machines warm inside a worker
// process. The raw spec bytes are the cache key — program, args and the
// System's Spec.Key, which is everything that shaped the build, so equal
// bytes mean an interchangeable sub-machine; the node number keeps
// in-process worker fleets from colliding. A cached hit skips program
// construction, grid and transport setup and machine allocation, which is
// what makes a warm pooled System's runs cheap on the worker side too:
// the coordinator's reset fence already tore the cached transport down,
// and Rebind rewinds it for the new run generation. Entries hold no
// processes or sockets, only the sub-machine's partition goroutines, so a run
// leaving the cache (evicted, or replaced after a failed Rebind) has its
// machine closed.
const workerRunCacheCap = 4

type runCache struct {
	sync.Mutex
	runs  map[string]*workerRun
	order []string // LRU first
}

var workerRunCache runCache

func (c *runCache) get(key string) *workerRun {
	c.Lock()
	defer c.Unlock()
	r := c.runs[key]
	if r != nil {
		c.touch(key)
	}
	return r
}

func (c *runCache) put(key string, r *workerRun) {
	c.Lock()
	defer c.Unlock()
	if c.runs == nil {
		c.runs = make(map[string]*workerRun)
	}
	if old, ok := c.runs[key]; ok {
		old.m.Close()
	} else if !ok && len(c.order) >= workerRunCacheCap {
		c.runs[c.order[0]].m.Close()
		delete(c.runs, c.order[0])
		c.order = c.order[1:]
	}
	c.runs[key] = r
	c.touch(key)
}

func (c *runCache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.order = append(c.order, key)
}

// decodeRunSpec parses a run spec into the program to run and the resolved
// machine declaration to run it on. Resolve is the same one the coordinator
// ran, so a worker refuses exactly what NewSystem would — and, beyond that,
// what only a coordinator can honour.
func decodeRunSpec(raw []byte) (*Program, Spec, error) {
	var rs runSpec
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, Spec{}, fmt.Errorf("decode run spec: %v", err)
	}
	p, err := BuildProgram(rs.Program, rs.Args...)
	if err != nil {
		return nil, Spec{}, err
	}
	var spec Spec
	if err := json.Unmarshal(rs.System, &spec); err != nil {
		return nil, Spec{}, fmt.Errorf("decode run spec system: %v", err)
	}
	if spec, err = spec.Resolve(); err != nil {
		return nil, Spec{}, err
	}
	// Spec.machine applies neither a fault scenario nor a trace sink and
	// builds over the worker's window whatever transport was named; the
	// coordinator keeps such Systems on the relay path
	// (distributedTransport), so one arriving here would silently run as
	// something else. Resolve admits Chaos only under a chaos: name, so the
	// transport check is also the scenario's.
	if spec.Transport != "ipc" {
		return nil, Spec{}, fmt.Errorf("core: a worker runs its share of a bare ipc System, not of transport %q", spec.Transport)
	}
	if spec.Trace {
		return nil, Spec{}, fmt.Errorf("core: a worker cannot record a Trace (a traced System runs its ranks coordinator-side)")
	}
	return p, spec, nil
}

// buildWorkerRun is the worker-side execution hook: parse the spec, rebuild
// the program from the registry, and stand up the sub-machine over this
// node's rank window — or rebind a cached one when this worker has run the
// identical spec before.
func buildWorkerRun(h *machine.WorkerHost, raw []byte) (machine.WorkerRun, error) {
	key := fmt.Sprintf("%d\x00%s", h.Node(), raw)
	if r := workerRunCache.get(key); r != nil {
		if err := h.Rebind(r.wt); err == nil {
			return r, nil
		}
	}
	p, spec, err := decodeRunSpec(raw)
	if err != nil {
		return nil, err
	}
	g := topology.New(spec.Grid...)
	wt, err := h.NewTransport(g.Size(), spec.Nodes)
	if err != nil {
		return nil, err
	}
	r := &workerRun{p: p, g: g, wt: wt, m: spec.machine(wt)}
	workerRunCache.put(key, r)
	return r, nil
}

// EnableWorkerExec arms the process for worker-side execution: ipc
// coordinators in this process spawn exec-capable workers, and when the
// process is itself spawned as a worker it enters the daemon loop here
// (never returning). It must run after every RegisterProgram the process
// will ever need — internal/progs calls it from its init, after its own
// registrations, which is the ordering Go initialization guarantees.
// Idempotent.
func EnableWorkerExec() {
	if !machine.WorkerExecEnabled() {
		machine.EnableWorkerExec(buildWorkerRun)
	}
}
