package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/topology"
)

// This file is the core half of the ipc execution plane: when a registered
// program runs on a bare ipc transport in an exec-armed binary, the ranks
// execute inside the worker processes instead of the coordinator. The
// coordinator serializes everything a worker needs to rebuild the run — the
// program's registry key and args, the grid shape, the federation's node
// count, the executor name and the full cost model — into a runSpec, the
// transport ships it (machine.RunDistributed), and each worker's execution
// hook (buildWorkerRun below) constructs the identical sub-machine over its
// node's rank window. Per-rank outcomes come back as opaque records that
// runDistributed reassembles into exactly the Run a coordinator-side
// execution would have produced: values concatenated in rank order, stats
// summed in rank order, elapsed times as maxima, censuses from the
// transport's link counters — bit-identical, because the Kahn-network
// determinism that makes transports interchangeable makes processes
// interchangeable too.
//
// Systems that shape the run coordinator-side keep the relay path: Trace
// needs every event in one process, DirectScheduling flips a process-global
// mode the workers cannot see, and a chaos-wrapped transport injects faults
// above the wire (the scenario would have to replicate into every worker to
// mean the same thing). Programs built literally (not via BuildProgram)
// have no registry identity to ship and also run coordinator-side.

// specLink is one directed inter-node link override in a serialized cost
// model.
type specLink struct {
	Src  int     `json:"src"`
	Dst  int     `json:"dst"`
	Lat  float64 `json:"lat"`
	Byte float64 `json:"byte"`
}

// specCost is the wire form of machine.CostModel. JSON float64 encoding is
// shortest-round-trip, so every finite value crosses bit-exactly — the
// virtual times the workers compute must match a coordinator-side run to
// the last bit.
type specCost struct {
	Flop    float64    `json:"flop"`
	Lat     float64    `json:"lat"`
	Byte    float64    `json:"byte"`
	Send    float64    `json:"send"`
	Recv    float64    `json:"recv"`
	HasIn   bool       `json:"hasInter,omitempty"`
	InLat   float64    `json:"interLat,omitempty"`
	InByte  float64    `json:"interByte,omitempty"`
	InLinks []specLink `json:"interLinks,omitempty"`
}

func encodeCost(c machine.CostModel) specCost {
	sc := specCost{Flop: c.FlopTime, Lat: c.Latency, Byte: c.BytePeriod, Send: c.SendOverhead, Recv: c.RecvOverhead}
	if in := c.InterNode; in != nil {
		sc.HasIn = true
		sc.InLat, sc.InByte = in.Default.Latency, in.Default.Byte
		for k, v := range in.Links {
			sc.InLinks = append(sc.InLinks, specLink{Src: k[0], Dst: k[1], Lat: v.Latency, Byte: v.Byte})
		}
		sort.Slice(sc.InLinks, func(i, j int) bool {
			a, b := sc.InLinks[i], sc.InLinks[j]
			if a.Src != b.Src {
				return a.Src < b.Src
			}
			return a.Dst < b.Dst
		})
	}
	return sc
}

func (sc specCost) model() machine.CostModel {
	c := machine.CostModel{FlopTime: sc.Flop, Latency: sc.Lat, BytePeriod: sc.Byte, SendOverhead: sc.Send, RecvOverhead: sc.Recv}
	if sc.HasIn {
		c = c.WithInterNode(sc.InLat, sc.InByte)
		for _, l := range sc.InLinks {
			c = c.WithLink(l.Src, l.Dst, machine.LinkCost{Latency: l.Lat, Byte: l.Byte})
		}
	}
	return c
}

// runSpec is everything a worker needs to rebuild one distributed run.
type runSpec struct {
	Program  string    `json:"program"`
	Args     []float64 `json:"args,omitempty"`
	Shape    []int     `json:"shape"`
	Nodes    int       `json:"nodes"`
	Executor string    `json:"executor,omitempty"`
	Cost     specCost  `json:"cost"`
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
	if p.key == "" || s.Trace != nil || s.direct || !machine.WorkerExecEnabled() {
		return nil
	}
	t, ok := s.Machine.Transport().(*machine.IPCTransport)
	if !ok {
		return nil
	}
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
// reassembles the Run record a coordinator-side execution would produce.
func (s *System) runDistributed(p *Program, t *machine.IPCTransport) (Run, error) {
	spec := runSpec{
		Program:  p.key,
		Args:     p.args,
		Shape:    s.Procs.Shape(),
		Nodes:    t.Nodes(),
		Executor: s.executor,
		Cost:     encodeCost(s.Machine.Cost()),
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return Run{}, fmt.Errorf("core: program %q: encode run spec: %w", p.Name, err)
	}
	results, err := t.RunDistributed(raw)
	if err != nil {
		return Run{}, fmt.Errorf("core: program %q: %w", p.Name, err)
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
			return Run{}, fmt.Errorf("core: program %q: malformed result record for rank %d", p.Name, rank)
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
	if firstErr != nil {
		return Run{}, fmt.Errorf("core: program %q: %w", p.Name, firstErr)
	}
	if run.Elapsed == 0 {
		run.Elapsed = run.MachineElapsed
	}
	run.Links = s.linkCensus()
	run.Exec = t.ExecStats()
	s.runs.Add(1)
	return run, nil
}

// workerRun hosts one node's share of a distributed run inside a worker
// process; see machine.WorkerRun.
type workerRun struct {
	p  *Program
	g  *topology.Grid
	wt *machine.WorkerTransport
	m  *machine.Machine
}

func (r *workerRun) Transport() *machine.WorkerTransport { return r.wt }

// Execute runs the node's rank window to completion and packs one result
// record per local rank.
func (r *workerRun) Execute() []machine.RankResult {
	outs := make([]Output, r.g.Size())
	// The first rank-body error is also in RankErrors; Exec's return adds
	// nothing here.
	_ = kf.Exec(r.m, r.g, func(c *kf.Ctx) error {
		out, err := r.p.Body(c)
		if idx, ok := r.g.Index(c.P.Rank()); ok {
			outs[idx] = out
		}
		return err
	})
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
// process. The raw spec bytes are the cache key — they carry everything
// that shaped the build (program, args, shape, nodes, executor, cost), so
// equal bytes mean an interchangeable sub-machine; the node number keeps
// in-process worker fleets from colliding. A cached hit skips program
// construction, grid and transport setup and machine allocation, which is
// what makes a warm pooled System's runs cheap on the worker side too:
// the coordinator's reset fence already tore the cached transport down,
// and Rebind rewinds it for the new run generation. Entries are plain
// memory (no processes, no sockets), so eviction is just forgetting.
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
	if _, ok := c.runs[key]; !ok && len(c.order) >= workerRunCacheCap {
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
	var spec runSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("decode run spec: %v", err)
	}
	p, err := BuildProgram(spec.Program, spec.Args...)
	if err != nil {
		return nil, err
	}
	if len(spec.Shape) == 0 || spec.Nodes <= 0 {
		return nil, fmt.Errorf("run spec has no machine shape")
	}
	for _, e := range spec.Shape {
		if e <= 0 {
			return nil, fmt.Errorf("run spec grid shape %v invalid", spec.Shape)
		}
	}
	g := topology.New(spec.Shape...)
	wt, err := h.NewTransport(g.Size(), spec.Nodes)
	if err != nil {
		return nil, err
	}
	m := machine.NewWithTransport(wt, spec.Cost.model())
	if spec.Executor != "" {
		ex, err := machine.NewExecutorByName(spec.Executor)
		if err != nil {
			return nil, err
		}
		m.SetExecutor(ex)
	}
	r := &workerRun{p: p, g: g, wt: wt, m: m}
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
