package darray

import (
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/machine"
	"repro/internal/topology"
)

// Fault-injection face of the schedule-equivalence suite: the same randomized
// scenarios as fuzz_equiv_test.go, run on a chaos-wrapped transport with
// seeded drop/duplicate/delay rates. Two invariants per case:
//
//  1. Values are bit-identical to the fault-free run — retransmission and
//     duplicate absorption restore exactly the message streams the program
//     means, so faults may only cost virtual time.
//  2. Schedule replay stays bit-identical to direct derivation (values,
//     stats, clocks) under faults. The chaos layer draws from per-pair
//     streams in sender program order, so if replay reordered or renamed any
//     message the fault pattern itself would diverge and amplify the
//     difference — faults make this equivalence strictly harder, not softer.

// chaosScenario is the fixed fault mix each fuzz case runs under; rates are
// high enough to fault most cases but far from exhausting the default retry
// budget (eight consecutive losses at 8% is a ~1e-10 event per message).
func chaosScenario(seed int64) chaos.Scenario {
	return chaos.Scenario{
		Name:     "darray-fuzz",
		Seed:     seed,
		Drop:     0.08,
		Dup:      0.08,
		Delay:    0.15,
		DelayMax: 5e-4,
	}
}

// captureChaosRun executes prog on a fresh chaos:shared machine under the
// scenario, in the given derivation mode, and records the same observables
// as captureRun.
func captureChaosRun(t *testing.T, n int, direct bool, sc chaos.Scenario, prog func(p *machine.Proc) []float64) capture {
	t.Helper()
	tr, err := machine.NewTransportByName("chaos:shared", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	ct := tr.(*machine.ChaosTransport)
	if err := ct.SetScenario(sc); err != nil {
		t.Fatal(err)
	}
	m := machine.NewWithTransport(ct, machine.IPSC2())
	m.SetDirect(direct)
	c := capture{
		clocks: make([]float64, n),
		stats:  make([]machine.Stats, n),
		data:   make([][]float64, n),
	}
	if err := m.Run(func(p *machine.Proc) error {
		c.data[p.Rank()] = prog(p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c.clocks[i] = m.ProcClock(i)
		c.stats[i] = m.ProcStats(i)
	}
	return c
}

func TestRandomizedChaosEquivalence(t *testing.T) {
	cases := 20
	if testing.Short() {
		cases = 5
	}
	for ci := 0; ci < cases; ci++ {
		r := &fzRng{s: 0xD1CE ^ uint64(ci)*0x9e3779b97f4a7c15}
		c := genCase(r)
		name := fmt.Sprintf("case%03d/%v_%s", ci, c.gridShape, specName(c.spec))
		g := topology.New(c.gridShape...)
		n := g.Size()
		sc := chaosScenario(int64(1000 + ci))
		prog := func(p *machine.Proc) []float64 { return c.run(p, g) }

		faultFree := captureRun(t, n, true, prog)
		direct := captureChaosRun(t, n, true, sc, prog)
		replay := captureChaosRun(t, n, false, sc, prog)

		for rk := 0; rk < n; rk++ {
			// Invariant 1: faults never change values (clocks honestly move,
			// so only the payloads are compared against fault-free).
			if len(direct.data[rk]) != len(faultFree.data[rk]) {
				t.Fatalf("%s: rank %d payload length %d under faults != %d fault-free",
					name, rk, len(direct.data[rk]), len(faultFree.data[rk]))
			}
			for k := range direct.data[rk] {
				if direct.data[rk][k] != faultFree.data[rk][k] {
					t.Fatalf("%s: rank %d payload[%d] = %v under faults != %v fault-free",
						name, rk, k, direct.data[rk][k], faultFree.data[rk][k])
				}
			}
			// Invariant 2: schedule replay is bit-identical to direct
			// derivation under the same seeded faults — times included.
			if direct.clocks[rk] != replay.clocks[rk] {
				t.Fatalf("%s: rank %d clock %v (direct) != %v (scheduled) under faults",
					name, rk, direct.clocks[rk], replay.clocks[rk])
			}
			if direct.stats[rk] != replay.stats[rk] {
				t.Fatalf("%s: rank %d stats %+v (direct) != %+v (scheduled) under faults",
					name, rk, direct.stats[rk], replay.stats[rk])
			}
			for k := range direct.data[rk] {
				if direct.data[rk][k] != replay.data[rk][k] {
					t.Fatalf("%s: rank %d payload[%d] = %v (direct) != %v (scheduled) under faults",
						name, rk, k, direct.data[rk][k], replay.data[rk][k])
				}
			}
		}
	}
}
