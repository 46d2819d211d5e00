// Package core is the one entry point user code declares a simulated
// machine through — the paper's "only one real processor declaration is
// allowed in the whole program", taken literally: the declaration is one
// value, Spec, and everything else is derived from it. Functional options
// fill it,
//
//	sys, err := core.NewSystem(
//	    core.Grid(4, 4),                    // the processor array
//	    core.Transport("federated"),        // delivery substrate, by registry name
//	    core.Nodes(4),                      // federation shape
//	    core.LinkCosts(4, 8),               // price the node interconnect
//	    core.Trace(),                       // record per-processor timelines
//	)
//
// Spec.Resolve applies the defaults and refuses conflicts, Spec.Build
// constructs the System, Spec.Key is its identity for pooling (kfserve) and
// what ipc workers rebuild their share of the machine from. Every option is
// independent and optional except Grid. Transports are resolved by name
// through the registry in internal/machine, so a new substrate reaches
// every caller of core with a single Register call and zero facade edits.
//
// Programs separate the computation from the machine: declare once, run on
// any System, and Compare two systems' runs for the loosely-coupled model's
// central invariant — a program's meaning lives in its messages, so values
// and message censuses must be bit-identical across transports while
// virtual times honestly reflect what each machine charges. See Program,
// Run and Compare.
//
// The underlying pieces remain in internal/machine (the simulated
// multicomputer), internal/topology (processor arrays), internal/dist and
// internal/darray (distributed data), and internal/kf (the language
// runtime: parsubs, doall loops, on-clauses).
package core

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/topology"
	"repro/internal/trace"
)

// System is a simulated machine built from one resolved Spec — the paper's
// single machine declaration, from which the runtime derives everything
// else: transport, federation shape, cost model, engine, derivation mode,
// trace recorder and pool identity all read that one value.
//
// Run and RunProgram are the system's execution surface. The exported
// Machine and Procs fields are the low-level handles for driver wrappers
// that predate Programs (jacobi.KF1(sys.Machine, sys.Procs, ...)); every
// option is state of the machine itself, so code driving the Machine
// directly runs under the same declaration — only the per-run trace reset
// is Run/RunProgram's.
type System struct {
	// Machine is the simulated multicomputer.
	Machine *machine.Machine
	// Procs is the full processor array ("the real estate agent").
	Procs *topology.Grid
	// Trace records per-processor timelines when the Trace option is on.
	Trace *trace.Recorder

	spec Spec         // the resolved declaration the system was built from
	runs atomic.Int64 // completed runs; see Warmed
	outs []Output     // runLocal's per-rank Output table, kept between runs
}

// Option fills one part of a Spec under construction. Options are applied
// in order; later options override earlier ones where they overlap.
type Option func(*Spec) error

// Grid declares the processor array shape, e.g. Grid(4) or Grid(2, 4); the
// machine has exactly prod(shape) processors. Exactly what the paper's
// processor declaration says, and the one option every System needs.
func Grid(shape ...int) Option {
	g := append([]int(nil), shape...)
	return func(s *Spec) error {
		if len(g) == 0 {
			return fmt.Errorf("core: Grid needs at least one extent")
		}
		s.Grid = g
		return nil
	}
}

// Transport selects the message-delivery substrate by its name
// (machine.NewTransportByName).
// Unknown names surface as errors from NewSystem.
func Transport(name string) Option {
	return func(s *Spec) error {
		if name == "" {
			return fmt.Errorf("core: Transport needs a non-empty name (registered: %v)", machine.TransportNames())
		}
		s.Transport = name
		return nil
	}
}

// Executor is kept for callers written when the engine had registry
// names: it accepts "calendar", the one engine, sets nothing, and rejects
// any other name. ROADMAP item 7 deletes it with its last callers.
func Executor(name string) Option {
	return func(s *Spec) error {
		if name != "calendar" {
			return fmt.Errorf("core: unknown executor %q: there is one engine, \"calendar\"", name)
		}
		return nil
	}
}

// Nodes sets the federation shape: the processors are partitioned into n
// equal nodes joined by counted inter-node links. It requires a federating
// transport — Nodes(2) on a transport without nodes is a configuration
// conflict reported by NewSystem — and n must divide the processor count.
func Nodes(n int) Option {
	return func(s *Spec) error {
		if n < 1 {
			return fmt.Errorf("core: Nodes must be at least 1, got %d", n)
		}
		s.Nodes = n
		return nil
	}
}

// Cost sets the virtual-time cost model. The zero value keeps selecting
// the preset, as it always has.
func Cost(cm machine.CostModel) Option {
	return func(s *Spec) error {
		s.Cost = cm
		return nil
	}
}

// LinkCosts prices the node interconnect of a federating transport: every
// inter-node message pays the cost model's Latency and BytePeriod scaled
// by the given multipliers (links of a real federation are slower than
// intra-node delivery, so useful values are > 1), with per-directed-link
// overrides for asymmetric interconnects. It layers onto whatever Cost
// selected and requires a transport that federates. Note that a
// single-node federation (Nodes(1), the federated default) has no
// inter-node links, so the pricing is accepted but charged nowhere — the
// degenerate zero-surcharge case node sweeps deliberately include; set
// Nodes(n >= 2) for the interconnect to exist.
func LinkCosts(latency, bytePeriod float64, links ...LinkSpec) Option {
	ic := &Interconnect{Latency: latency, Byte: bytePeriod, Links: append([]LinkSpec(nil), links...)}
	return func(s *Spec) error {
		s.Interconnect = ic
		return nil
	}
}

// ListenAddr sets an explicit TCP listen address (host:port, port 0 for an
// ephemeral port) for the ipc transport's worker listener, replacing the
// default Unix domain socket — for hosts where UDS is unavailable or a
// fixed port must be allowed through a filter. It requires the ipc
// transport (bare or chaos-wrapped); the KF_IPC_ADDR environment variable
// sets the same default without a code change.
func ListenAddr(addr string) Option {
	return func(s *Spec) error {
		if addr == "" {
			return fmt.Errorf("core: ListenAddr needs a non-empty TCP address")
		}
		s.Listen = addr
		return nil
	}
}

// Chaos installs a fault-injection scenario (see internal/chaos) on the
// system's transport. It requires a chaos-wrapped transport — select one
// with Transport("chaos:<base>"), e.g. Transport("chaos:federated") — and
// reports a configuration error otherwise. The scenario is validated and
// its retry-policy defaults applied by NewSystem; per-run and cumulative
// fault/recovery reports are read back with System.ChaosReport and
// System.ChaosTotalReport.
func Chaos(sc chaos.Scenario) Option {
	return func(s *Spec) error {
		s.Chaos = &sc
		return nil
	}
}

// Trace attaches a per-processor timeline recorder, available as
// System.Trace after construction.
func Trace() Option {
	return func(s *Spec) error {
		s.Trace = true
		return nil
	}
}

// DirectScheduling makes the system derive all collective communication
// directly on every call instead of replaying compiled schedules — the
// verification mode of the inspector/executor split. Runs on a direct
// system must be bit-identical to scheduled ones; Compare a system with
// and without this option to check.
func DirectScheduling() Option {
	return func(s *Spec) error {
		s.Direct = true
		return nil
	}
}

// NewSystem builds a simulated system from the given options: they fill a
// Spec, and Spec.Build resolves and constructs it. Grid is required;
// everything else defaults. Conflicting or invalid options are reported as
// errors, never panics — see Spec.Resolve and Spec.Build for which.
func NewSystem(opts ...Option) (*System, error) {
	var s Spec
	for _, opt := range opts {
		if err := opt(&s); err != nil {
			return nil, err
		}
	}
	return s.Build()
}

// MustSystem is NewSystem for benchmarks, experiments and tools whose
// configuration is static and whose only sensible response to a
// misconfiguration is to stop: it panics on error.
func MustSystem(opts ...Option) *System {
	sys, err := NewSystem(opts...)
	if err != nil {
		panic(err)
	}
	return sys
}

// TransportName returns the transport's registry name.
func (s *System) TransportName() string { return s.spec.Transport }

// Nodes returns the federation's node count (1 on non-federating
// transports).
func (s *System) Nodes() int { return s.spec.Nodes }

// PoolKey returns the system's pool identity — its Spec's Key, under which
// a warmed-System pool files it.
func (s *System) PoolKey() string { return s.spec.key }

// RunCount returns how many runs (Run or RunProgram) have completed
// successfully on this system.
func (s *System) RunCount() int64 { return s.runs.Load() }

// Warmed reports whether the system has completed at least one run — its
// compiled schedules, loop plans and size-classed buffer pools are
// populated, so the next run replays instead of compiling. The warmed-pool
// hit metrics in internal/serve are counted off this.
func (s *System) Warmed() bool { return s.runs.Load() > 0 }

// Close ends the goroutines the machine keeps for its ranks between runs
// (machine.Machine.Close) and releases any external resources the system's
// transport holds — for the cross-process "ipc" transport that means
// shutting down its worker processes and removing the socket directory.
// Callers can defer a Close on every system unconditionally; a System
// dropped unclosed has its rank continuations ended by the garbage collector,
// but not its worker processes. Idempotent, and safe during a run.
func (s *System) Close() error {
	var err error
	if c, ok := s.Machine.Transport().(io.Closer); ok {
		err = c.Close()
	}
	s.Machine.Close()
	return err
}

// unwrapTransport sees through a chaos wrapper to the base transport, so
// capability checks (does it federate? does it count links?) answer for the
// transport that actually delivers.
func unwrapTransport(tr machine.Transport) machine.Transport {
	if ct, ok := tr.(*machine.ChaosTransport); ok {
		return ct.Base()
	}
	return tr
}

// ChaosReport returns the fault/recovery report of the most recent run on a
// chaos-wrapped transport, and whether the system has one. Call it after
// Run/RunProgram and before the next run (each run resets the per-run
// report).
func (s *System) ChaosReport() (chaos.Report, bool) {
	if ct, ok := s.Machine.Transport().(*machine.ChaosTransport); ok {
		return ct.Report(), true
	}
	return chaos.Report{}, false
}

// ChaosTotalReport returns the fault/recovery report accumulated over every
// run since the system's scenario was installed, including the most recent
// one.
func (s *System) ChaosTotalReport() (chaos.Report, bool) {
	if ct, ok := s.Machine.Transport().(*machine.ChaosTransport); ok {
		return ct.TotalReport(), true
	}
	return chaos.Report{}, false
}

// Run executes body as a parallel subroutine over the full processor array
// and returns the virtual elapsed time. Like the machine's clocks and
// counters, the trace recorder (when attached) is reset at the start, so
// a System runs any number of programs in sequence, each cleanly.
func (s *System) Run(body func(c *kf.Ctx) error) (float64, error) {
	if s.Trace != nil {
		s.Trace.Reset()
	}
	if err := kf.Exec(s.Machine, s.Procs, body); err != nil {
		return 0, err
	}
	s.runs.Add(1)
	return s.Machine.Elapsed(), nil
}

// Stats returns the aggregate machine counters from the last Run.
func (s *System) Stats() machine.Stats { return s.Machine.TotalStats() }
