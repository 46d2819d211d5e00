package machine

import (
	"strings"
	"testing"
)

func TestRegistryHasBundledTransports(t *testing.T) {
	names := TransportNames()
	for _, want := range []string{"shared", "federated"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing bundled transport %q (have %v)", want, names)
		}
	}
}

func TestRegistryResolvesByName(t *testing.T) {
	tr, err := NewTransportByName("shared", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.(*SharedTransport); !ok {
		t.Errorf("shared resolved to %T", tr)
	}
	tr, err = NewTransportByName("federated", 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	ft, ok := tr.(*FederatedTransport)
	if !ok {
		t.Fatalf("federated resolved to %T", tr)
	}
	if ft.Size() != 8 {
		t.Errorf("federated size %d, want 8", ft.Size())
	}
}

func TestRegistryLookupFailuresAreErrorsNotPanics(t *testing.T) {
	if _, err := NewTransportByName("no-such-transport", 4, 1); err == nil {
		t.Error("unknown transport name accepted")
	} else if !strings.Contains(err.Error(), "no-such-transport") {
		t.Errorf("error should name the missing transport: %v", err)
	}
	if _, err := NewTransportByName("shared", 4, 2); err == nil {
		t.Error("shared transport accepted a 2-node federation")
	}
	if _, err := NewTransportByName("federated", 4, 3); err == nil {
		t.Error("federated transport accepted a node count not dividing n")
	}
	if _, err := NewTransportByName("federated", 0, 1); err == nil {
		t.Error("federated transport accepted zero endpoints")
	}
	if _, err := NewTransportByName("shared", -1, 1); err == nil {
		t.Error("shared transport accepted negative endpoints")
	}
}

func TestRegistryNodeDefaults(t *testing.T) {
	// nodes <= 1 means "no federation": shared accepts it, federated
	// builds a single-node federation.
	for _, nodes := range []int{0, 1} {
		if _, err := NewTransportByName("shared", 4, nodes); err != nil {
			t.Errorf("shared with %d nodes: %v", nodes, err)
		}
		if _, err := NewTransportByName("federated", 4, nodes); err != nil {
			t.Errorf("federated with %d nodes: %v", nodes, err)
		}
	}
}

func TestRegistryChaosVariants(t *testing.T) {
	// Every bundled base comes with a chaos-wrapped variant for free.
	names := TransportNames()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, base := range []string{"shared", "federated"} {
		if !have[ChaosPrefix+base] {
			t.Errorf("registry missing %q (have %v)", ChaosPrefix+base, names)
		}
	}

	tr, err := NewTransportByName("chaos:shared", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := tr.(*ChaosTransport)
	if !ok {
		t.Fatalf("chaos:shared resolved to %T", tr)
	}
	if _, ok := ct.Base().(*SharedTransport); !ok {
		t.Errorf("chaos:shared wraps %T, want SharedTransport", ct.Base())
	}
	tr, err = NewTransportByName("chaos:federated", 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	ct = tr.(*ChaosTransport)
	if ct.Size() != 8 || ct.Nodes() != 2 {
		t.Errorf("chaos:federated size/nodes = %d/%d, want 8/2", ct.Size(), ct.Nodes())
	}
}

func TestRegistryChaosPrefixMalformed(t *testing.T) {
	// A bare "chaos:" names no base; the error must say so and list what is
	// registered so the fix is obvious.
	if _, err := NewTransportByName("chaos:", 4, 1); err == nil {
		t.Error("bare chaos: prefix accepted")
	} else if !strings.Contains(err.Error(), "no base") || !strings.Contains(err.Error(), "shared") {
		t.Errorf("bare-prefix error should explain and list registered names: %v", err)
	}
	// The wrapper applies exactly once.
	if _, err := NewTransportByName("chaos:chaos:shared", 4, 1); err == nil {
		t.Error("nested chaos: prefix accepted")
	} else if !strings.Contains(err.Error(), "nests") {
		t.Errorf("nested-prefix error should explain: %v", err)
	}
	// An unknown base inside the prefix reports like any unknown transport.
	if _, err := NewTransportByName("chaos:no-such", 4, 1); err == nil {
		t.Error("chaos-wrapped unknown base accepted")
	} else if !strings.Contains(err.Error(), "no-such") || !strings.Contains(err.Error(), "shared") {
		t.Errorf("unknown-base error should name it and the alternatives: %v", err)
	}
	// Base-level validation still applies through the wrapper.
	if _, err := NewTransportByName("chaos:shared", 4, 2); err == nil {
		t.Error("chaos:shared accepted a 2-node federation")
	}
	if _, err := NewTransportByName("chaos:federated", 4, 3); err == nil {
		t.Error("chaos:federated accepted a node count not dividing n")
	}
}

func TestCostModelIsZero(t *testing.T) {
	if !(CostModel{}).IsZero() {
		t.Error("zero value not IsZero")
	}
	nonzero := []CostModel{
		{FlopTime: 1},
		{Latency: 1},
		{BytePeriod: 1},
		{SendOverhead: 1},
		{RecvOverhead: 1},
		CostModel{}.WithInterNode(4, 8),
		IPSC2(),
		Uniform(),
	}
	for i, c := range nonzero {
		if c.IsZero() {
			t.Errorf("case %d: %+v reported IsZero", i, c)
		}
	}
}
