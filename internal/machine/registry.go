package machine

import (
	"fmt"
	"strings"
)

// NewTransportByName builds the named transport with n endpoints in `nodes`
// nodes: "shared", "federated" or "ipc". The facade (internal/core), the
// conformance suite and the benchmark tools all resolve transports by
// these names. The shared mailbox array accepts nodes <= 1 and rejects
// anything larger; the federating transports take nodes <= 0 as one node
// and need nodes to divide n. A "chaos:<base>" name builds the base
// transport and wraps it in a ChaosTransport (inactive until SetScenario
// installs faults). Unknown names, malformed chaos: prefixes and invalid
// (n, nodes) combinations return errors, never panics — a bad name or node
// count is a configuration mistake — and an unknown name's error lists the
// alternatives.
func NewTransportByName(name string, n, nodes int) (Transport, error) {
	if strings.HasPrefix(name, ChaosPrefix) {
		base := strings.TrimPrefix(name, ChaosPrefix)
		if base == "" {
			return nil, fmt.Errorf("machine: transport %q names no base to wrap: use \"chaos:<base>\" with a registered base (registered: %v)", name, TransportNames())
		}
		if strings.HasPrefix(base, ChaosPrefix) {
			return nil, fmt.Errorf("machine: transport %q nests the %q prefix: the chaos wrapper applies exactly once (registered: %v)", name, ChaosPrefix, TransportNames())
		}
		bt, err := NewTransportByName(base, n, nodes)
		if err != nil {
			return nil, err
		}
		return NewChaosTransport(bt), nil
	}
	switch name {
	case "shared", "federated", "ipc":
	default:
		return nil, fmt.Errorf("machine: unknown transport %q (registered: %v)", name, TransportNames())
	}
	if n <= 0 {
		return nil, fmt.Errorf("machine: transport needs a positive endpoint count, got %d", n)
	}
	if name == "shared" {
		if nodes > 1 {
			return nil, fmt.Errorf("machine: the shared transport does not federate: %d nodes requested (use the \"federated\" transport)", nodes)
		}
		return NewSharedTransport(n), nil
	}
	if nodes <= 0 {
		nodes = 1
	}
	if name == "ipc" {
		if n%nodes != 0 {
			return nil, fmt.Errorf("machine: an ipc federation of %d processors needs a node count dividing it, got %d", n, nodes)
		}
		return NewIPCTransport(n, nodes), nil
	}
	if n%nodes != 0 {
		return nil, fmt.Errorf("machine: a federation of %d processors needs a node count dividing it, got %d", n, nodes)
	}
	return NewFederatedTransport(n, nodes), nil
}

// TransportNames returns the resolvable transport names, sorted: every
// bundled base plus its chaos-wrapped "chaos:<base>" variant, so the
// conformance battery (and any name-driven tooling) exercises the fault
// layer automatically.
func TransportNames() []string {
	return []string{"chaos:federated", "chaos:ipc", "chaos:shared", "federated", "ipc", "shared"}
}
