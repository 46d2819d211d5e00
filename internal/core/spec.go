package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/machine"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Spec is the System declaration as a value — the one description every
// layer reads: options fill it, kfserve decodes a request into it, Build
// constructs the System from it, a warmed-System pool files the System
// under its Key, and the ipc execution plane ships that same Key to the
// workers, which decode it and rebuild their share of the machine. The zero
// value of every field but Grid means "the default"; Resolve is the only
// place defaults are written down.
type Spec struct {
	// Grid is the processor array shape; the machine has prod(Grid)
	// processors.
	Grid []int `json:"grid"`
	// Transport is a transport name (machine.NewTransportByName); Nodes is
	// the federation's node count.
	Transport string `json:"transport"`
	Nodes     int    `json:"nodes"`
	// Cost is the full virtual-time cost model, interconnect pricing
	// included once Resolve has folded Interconnect into it.
	Cost machine.CostModel `json:"cost"`
	// Direct selects direct derivation of collectives over schedule replay
	// (machine.SetDirect); Trace attaches a timeline recorder.
	Direct bool `json:"direct,omitempty"`
	Trace  bool `json:"trace,omitempty"`
	// Chaos is the fault scenario of a chaos-wrapped transport, nil for
	// none.
	Chaos *chaos.Scenario `json:"chaos,omitempty"`

	// Interconnect is a LinkCosts declaration. Resolve folds it into Cost —
	// which is what the identity covers — and leaves it in place as the
	// record that links were priced, which Build needs a transport to judge.
	Interconnect *Interconnect `json:"-"`
	// Listen is the ipc worker listener's TCP address (ListenAddr). Where
	// the sockets live does not shape a run, so it is not part of the
	// identity either.
	Listen string `json:"-"`

	key string // the canonical JSON, set by Resolve
}

// Interconnect is the argument list of one LinkCosts option: the default
// multipliers every inter-node link charges and the per-link overrides.
type Interconnect struct {
	Latency, Byte float64
	Links         []LinkSpec
}

// LinkSpec overrides the price of one directed inter-node link inside a
// LinkCosts option: the latency and byte-period multipliers messages
// crossing from node Src to node Dst pay instead of the sweep's defaults —
// a slow uplink, or a fast backbone pair.
type LinkSpec struct {
	Src     int     `json:"src"`
	Dst     int     `json:"dst"`
	Latency float64 `json:"latency"`
	Byte    float64 `json:"byte"`
}

// Resolve returns the declaration with every default applied — the shared
// transport, one node, the iPSC/2-like cost preset —
// the LinkCosts pricing folded into the cost model, and Key computed. It
// reports every conflict that can be judged without building a transport;
// unregistered names, node counts that do not divide the grid and
// capabilities a transport lacks come from Build. Resolving a resolved Spec
// changes nothing, which is how an ipc worker re-validates the declaration
// it was sent.
func (s Spec) Resolve() (Spec, error) {
	if len(s.Grid) == 0 {
		return s, fmt.Errorf("core: no processor grid declared (use core.Grid)")
	}
	for _, e := range s.Grid {
		if e <= 0 {
			return s, fmt.Errorf("core: Grid extents must be positive, got %v", s.Grid)
		}
	}
	if s.Nodes < 0 {
		return s, fmt.Errorf("core: Nodes must be at least 1, got %d", s.Nodes)
	}
	if s.Transport == "" {
		s.Transport = "shared"
	}
	if s.Nodes == 0 {
		s.Nodes = 1
	}
	if s.Cost.IsZero() {
		s.Cost = machine.IPSC2()
	}
	if ic := s.Interconnect; ic != nil {
		// Written as !(x > 0) so a NaN multiplier fails too.
		if !(ic.Latency > 0 && ic.Byte > 0) {
			return s, fmt.Errorf("core: LinkCosts multipliers must be positive, got (%g, %g)", ic.Latency, ic.Byte)
		}
		s.Cost = s.Cost.WithInterNode(ic.Latency, ic.Byte)
		for _, l := range ic.Links {
			if l.Src < 0 || l.Src >= s.Nodes || l.Dst < 0 || l.Dst >= s.Nodes {
				return s, fmt.Errorf("core: LinkSpec %d->%d outside the federation's %d nodes", l.Src, l.Dst, s.Nodes)
			}
			if l.Src == l.Dst {
				return s, fmt.Errorf("core: LinkSpec %d->%d prices an intra-node path, which never crosses a link", l.Src, l.Dst)
			}
			if !(l.Latency > 0 && l.Byte > 0) {
				return s, fmt.Errorf("core: LinkSpec %d->%d multipliers must be positive, got (%g, %g)", l.Src, l.Dst, l.Latency, l.Byte)
			}
			s.Cost = s.Cost.WithLink(l.Src, l.Dst, machine.LinkCost{Latency: l.Latency, Byte: l.Byte})
		}
	}
	if s.Chaos != nil && !strings.HasPrefix(s.Transport, machine.ChaosPrefix) {
		return s, fmt.Errorf("core: Chaos set but transport %q injects nothing: select a chaos-wrapped transport, e.g. Transport(%q)", s.Transport, machine.ChaosPrefix+s.Transport)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		// Only a non-finite cost term gets here; no layer could price it.
		return s, fmt.Errorf("core: declaration has no canonical form: %w", err)
	}
	s.key = string(raw)
	return s, nil
}

// Key returns the resolved declaration's canonical JSON (empty until Resolve
// has run). Equal keys mean Systems that are interchangeable for running
// programs — same values, censuses and virtual times, same derivation mode,
// trace and fault scenario — which is what a warmed-System pool needs before
// it serves one request's run from a System another request built: spelling
// a default out or reordering a LinkCosts link list keeps the key, any other
// difference, down to one directed link override, changes it. The same
// string is the `system` part of the run spec an ipc worker decodes.
func (s Spec) Key() string { return s.key }

// machine builds the simulated multicomputer the resolved declaration
// describes over tr: its cost model and derivation mode. It is the one
// construction path coordinator (Build) and ipc worker (buildWorkerRun)
// share, so the two cannot price or derive differently.
func (s Spec) machine(tr machine.Transport) *machine.Machine {
	m := machine.NewWithTransport(tr, s.Cost)
	m.SetDirect(s.Direct)
	return m
}

// Build resolves the declaration and constructs its System, reporting what
// only a transport can answer: an unregistered name, a node count that does
// not divide the processor count, a federation or pricing on a transport
// without nodes, a listen address on one that spawns no workers.
func (s Spec) Build() (*System, error) {
	s, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	g := topology.New(s.Grid...)
	tr, err := machine.NewTransportByName(s.Transport, g.Size(), s.Nodes)
	if err != nil {
		return nil, err
	}
	// Capability checks see through the chaos wrapper: chaos:shared must
	// fail federation-only options exactly like shared does.
	_, federates := unwrapTransport(tr).(linkCounters)
	if s.Nodes > 1 && !federates {
		return nil, fmt.Errorf("core: Nodes(%d) set but transport %q does not federate", s.Nodes, s.Transport)
	}
	// A Cost model that already carries interconnect prices is legal
	// anywhere (they are simply never charged); declaring LinkCosts on a
	// transport with no links is the conflict.
	if s.Interconnect != nil && !federates {
		return nil, fmt.Errorf("core: LinkCosts set but transport %q does not federate (inter-node links would never be crossed)", s.Transport)
	}
	if s.Chaos != nil {
		// Resolve checked the name carries the chaos prefix, which the
		// registry always answers with the wrapper.
		if err := tr.(*machine.ChaosTransport).SetScenario(*s.Chaos); err != nil {
			return nil, err
		}
	}
	if s.Listen != "" {
		ipc, ok := unwrapTransport(tr).(*machine.IPCTransport)
		if !ok {
			return nil, fmt.Errorf("core: ListenAddr set but transport %q spawns no workers: it requires the ipc transport", s.Transport)
		}
		ipc.SetListenAddr(s.Listen)
	}
	m := s.machine(tr)
	sys := &System{Machine: m, Procs: g, spec: s}
	if s.Trace {
		sys.Trace = trace.NewRecorder(g.Size())
		m.SetSink(sys.Trace)
	}
	return sys, nil
}
