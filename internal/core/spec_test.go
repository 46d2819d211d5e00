package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/kf"
	"repro/internal/machine"
)

// workerNoop is a registry program for the worker-spec tests (the real
// registrations live in internal/progs, which imports this package).
const workerNoop = "spec-test-noop"

func init() {
	RegisterProgram(workerNoop, func(args []float64) (*Program, error) {
		return &Program{Name: workerNoop, Body: func(c *kf.Ctx) (Output, error) {
			return Output{Values: []float64{float64(c.P.Rank())}}, nil
		}}, nil
	})
}

// encodeRunSpec is the coordinator's half of the run-spec exchange, as
// runDistributed writes it.
func encodeRunSpec(t testing.TB, program string, s Spec) []byte {
	t.Helper()
	raw, err := json.Marshal(runSpec{Program: program, System: json.RawMessage(s.Key())})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWorkerSpecRoundTrip: what a worker decodes is the declaration the
// coordinator resolved — the `system` bytes on the wire are Spec.Key
// verbatim, the decoded Spec re-encodes to the same bytes (so every cost
// term, 1.0/2.8e6 included, crossed bit-exactly), and the machine the
// shared helper builds from it prices and derives like the coordinator's.
func TestWorkerSpecRoundTrip(t *testing.T) {
	up := LinkSpec{Src: 0, Dst: 1, Latency: 16, Byte: 32}
	down := LinkSpec{Src: 1, Dst: 0, Latency: 2, Byte: 1.0 / 3}
	specs := map[string]Spec{
		"defaults":      {Grid: []int{4, 4}, Transport: "ipc", Nodes: 4},
		"priced":        {Grid: []int{8, 8}, Transport: "ipc", Nodes: 4, Interconnect: &Interconnect{Latency: 2, Byte: 2}},
		"links":         {Grid: []int{4}, Transport: "ipc", Nodes: 2, Interconnect: &Interconnect{Latency: 4, Byte: 8, Links: []LinkSpec{up, down}}},
		"links swapped": {Grid: []int{4}, Transport: "ipc", Nodes: 2, Interconnect: &Interconnect{Latency: 4, Byte: 8, Links: []LinkSpec{down, up}}},
		"direct":        {Grid: []int{2, 2}, Transport: "ipc", Nodes: 2, Direct: true, Cost: machine.Balanced()},
	}
	for name, s := range specs {
		s, err := s.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw := encodeRunSpec(t, workerNoop, s)
		if !strings.Contains(string(raw), `"system":`+s.Key()) {
			t.Errorf("%s: run spec does not carry the key verbatim:\n%s\n%s", name, raw, s.Key())
		}
		_, got, err := decodeRunSpec(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Key() != s.Key() {
			t.Errorf("%s: worker's Spec re-encodes differently:\n%s\n%s", name, got.Key(), s.Key())
		}
		m := got.machine(machine.NewFederatedTransport(product(got.Grid), got.Nodes))
		for _, pair := range [][2]int{{0, 0}, {0, 1}, {1, 0}} {
			want := s.Cost.LinkMessageTime(pair[0], pair[1], 1000)
			if have := m.Cost().LinkMessageTime(pair[0], pair[1], 1000); math.Float64bits(have) != math.Float64bits(want) {
				t.Errorf("%s: link %v priced %v by the worker, %v by the coordinator", name, pair, have, want)
			}
		}
		if err := m.Run(func(p *machine.Proc) error {
			if p.Direct() != s.Direct {
				t.Errorf("%s: rank %d derives direct=%v, declared %v", name, p.Rank(), p.Direct(), s.Direct)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Declarations Resolve accepts but only a coordinator can honour: the
	// shared machine helper attaches no trace sink, injects no faults and
	// would build over the worker's window whatever transport was named.
	for name, tc := range map[string]struct {
		spec Spec
		want string
	}{
		"trace":     {Spec{Grid: []int{4}, Transport: "ipc", Nodes: 2, Trace: true}, "Trace"},
		"chaos":     {Spec{Grid: []int{4}, Transport: "chaos:ipc", Nodes: 2, Chaos: &chaos.Scenario{Seed: 1, Drop: 0.5}}, `"chaos:ipc"`},
		"federated": {Spec{Grid: []int{4}, Transport: "federated", Nodes: 2}, `"federated"`},
		"default":   {Spec{Grid: []int{4}}, `"shared"`},
	} {
		s, err := tc.spec.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := decodeRunSpec(encodeRunSpec(t, workerNoop, s)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: worker's answer %v, want a refusal naming %s", name, err, tc.want)
		}
	}
	if a, b := specs["links"], specs["links swapped"]; keyOf(t, a) != keyOf(t, b) {
		t.Error("link order reached the key")
	}
	if !strings.Contains(keyOf(t, specs["defaults"]), `"byte":3.5714285714285716e-7`) {
		t.Errorf("iPSC/2 byte period 1.0/2.8e6 not at shortest round-trip precision: %s", keyOf(t, specs["defaults"]))
	}
}

func product(shape []int) int {
	n := 1
	for _, e := range shape {
		n *= e
	}
	return n
}

// FuzzWorkerSpec feeds the worker's run-spec path — decode, the registry,
// Resolve, the shared machine helper — arbitrary bytes: it must never
// panic, and every refusal must be an error with a text, because the text
// is all a RunAck rejection carries back to the coordinator.
func FuzzWorkerSpec(f *testing.F) {
	valid, err := Spec{Grid: []int{2, 2}, Transport: "ipc", Nodes: 2,
		Interconnect: &Interconnect{Latency: 2, Byte: 3, Links: []LinkSpec{{Src: 0, Dst: 1, Latency: 5, Byte: 7}}}}.Resolve()
	if err != nil {
		f.Fatal(err)
	}
	good := string(encodeRunSpec(f, workerNoop, valid))
	sys := func(system string) string {
		return `{"program":"` + workerNoop + `","system":` + system + `}`
	}
	for _, seed := range []string{
		good,
		good[:len(good)/2], // truncated
		sys(`{"grid":[0,4],"transport":"ipc","nodes":2}`),                                      // zero grid
		sys(`{"grid":[],"transport":"ipc"}`),                                                   // no grid
		sys(`{"grid":[4],"transport":"ipc","nodes":-2}`),                                       // negative nodes
		sys(`{"grid":[4],"transport":"ipc","nodes":3}`),                                        // nodes not dividing
		sys(`{"grid":[4],"transport":"ipc","nodes":2,"executor":"abacus"}`),                    // a field no Spec has
		sys(`{"grid":[4],"nodes":2,"cost":{"flop":NaN,"lat":1,"byte":1,"send":0,"recv":0}}`),   // NaN is not JSON
		sys(`{"grid":[4],"nodes":2,"cost":{"flop":1e999,"lat":1,"byte":1,"send":0,"recv":0}}`), // overflows float64
		sys(`{"grid":[4],"nodes":2,"cost":{"flop":1,"inter":{"lat":2,"byte":2,"links":[{"src":-1,"dst":9,"lat":0,"byte":0}]}}}`),
		sys(`{"grid":[4611686018427387904,4],"transport":"ipc"}`), // processor count overflows int
		sys(`{"grid":[4],"chaos":{"seed":1,"drop":0.5}}`),         // chaos without a chaos transport
		sys(`null`),
		`{"program":"no-such-program","system":` + valid.Key() + `}`,
		`{"program":"` + workerNoop + `"}`,
		``,
		sys(`{"grid":[4],"transport":"ipc","nodes":2,"trace":true}`),                        // a worker records no trace
		sys(`{"grid":[4],"transport":"chaos:ipc","nodes":2,"chaos":{"seed":1,"drop":0.5}}`), // nor injects faults
		sys(`{"grid":[4],"transport":"federated","nodes":2}`),                               // nor runs another transport's System
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		refused := func(err error) {
			if err.Error() == "" {
				t.Errorf("refusal with no text for %q", raw)
			}
		}
		_, spec, err := decodeRunSpec(raw)
		if err != nil {
			refused(err)
			return
		}
		if again, err := spec.Resolve(); err != nil || again.Key() != spec.Key() {
			t.Errorf("accepted Spec is not a fixed point of Resolve: %v\n%s\n%s", err, again.Key(), spec.Key())
		}
		// A worker only ever builds what its coordinator already built, so
		// machine size is not the fuzz's to explore.
		size := 1
		for _, e := range spec.Grid {
			if size > 4096/e {
				return
			}
			size *= e
		}
		tr, err := machine.NewTransportByName("federated", size, spec.Nodes)
		if err != nil {
			refused(err)
			return
		}
		spec.machine(tr).Close()
	})
}
