package machine

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// chaosMachine builds a machine over a chaos-wrapped transport running the
// given scenario.
func chaosMachine(t *testing.T, base string, n, nodes int, sc chaos.Scenario) (*Machine, *ChaosTransport) {
	t.Helper()
	tr, err := NewTransportByName(ChaosPrefix+base, n, nodes)
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := tr.(*ChaosTransport)
	if !ok {
		t.Fatalf("chaos:%s resolved to %T", base, tr)
	}
	if err := ct.SetScenario(sc); err != nil {
		t.Fatal(err)
	}
	return NewWithTransport(ct, IPSC2()), ct
}

// ringProgram is a deterministic token-passing workload: every rank circulates
// an accumulating token for the given number of rounds and returns its final
// value. Every message crosses a rank boundary, so on chaos:shared every one
// is fault-eligible.
func ringProgram(n, rounds int) func(p *Proc) float64 {
	return func(p *Proc) float64 {
		next := (p.Rank() + 1) % n
		prev := (p.Rank() + n - 1) % n
		token := []float64{float64(p.Rank() + 1)}
		for i := 0; i < rounds; i++ {
			p.Compute(10)
			p.Send(next, Tag(1), token)
			token = p.Recv(prev, Tag(1))
			token[0] += float64(p.Rank())
		}
		return token[0]
	}
}

// runRing executes the ring on m and returns per-rank final token values.
func runRing(t *testing.T, m *Machine, n, rounds int) []float64 {
	t.Helper()
	vals := make([]float64, n)
	prog := ringProgram(n, rounds)
	if err := m.Run(func(p *Proc) error {
		vals[p.Rank()] = prog(p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestChaosDropRecoveryBitIdenticalValues(t *testing.T) {
	// A lossy link must not change what the program computes: retransmission
	// restores exactly the message streams the fault-free run carries, so
	// values and the machine-level census are bit-identical — only virtual
	// time pays for the retries.
	const n, rounds = 4, 30
	base := New(n, IPSC2())
	want := runRing(t, base, n, rounds)

	m, ct := chaosMachine(t, "shared", n, 1, chaos.Scenario{Name: "drop", Seed: 3, Drop: 0.1})
	got := runRing(t, m, n, rounds)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("values under drops %v != fault-free %v", got, want)
	}
	if bs, cs := base.TotalStats(), m.TotalStats(); bs.MsgsSent != cs.MsgsSent ||
		bs.MsgsRecv != cs.MsgsRecv || bs.BytesSent != cs.BytesSent || bs.Flops != cs.Flops {
		t.Errorf("census moved under drops: %+v vs %+v", cs, bs)
	}
	if m.Elapsed() <= base.Elapsed() {
		t.Errorf("retries must cost virtual time: %v <= fault-free %v", m.Elapsed(), base.Elapsed())
	}

	rep := ct.Report()
	if rep.Drops == 0 {
		t.Fatal("scenario injected no drops; the test exercised nothing")
	}
	if rep.Retransmits == 0 || rep.RetryRounds == 0 {
		t.Errorf("drops recovered without retransmission? %+v", rep)
	}
	// Recovery bookkeeping invariants for a completing run: every recovered
	// message appears once in the histogram, and every retransmission had at
	// least one failed transmission before it.
	var hist int64
	for _, c := range rep.RetryHistogram {
		hist += c
	}
	if hist != rep.Retransmits {
		t.Errorf("histogram sums to %d, want Retransmits=%d", hist, rep.Retransmits)
	}
	if rep.Drops+rep.OutageHolds < rep.Retransmits {
		t.Errorf("more retransmissions (%d) than losses (%d)", rep.Retransmits, rep.Drops+rep.OutageHolds)
	}
	if rep.FirstDrop == nil {
		t.Error("FirstDrop not recorded")
	}
	if rep.Aborted || rep.Failure != nil {
		t.Errorf("completed run reports an abort: %+v", rep)
	}
}

func TestChaosDupAbsorptionExactlyOnce(t *testing.T) {
	// Dup probability 1 duplicates every wire message; the receive side must
	// absorb the copies so the program sees each message exactly once, in
	// order. The duplicate of the stream's final message is never consumed
	// (the receiver stops asking) — Reset sweeps it with the base queues.
	const msgs = 10
	m, ct := chaosMachine(t, "shared", 2, 1, chaos.Scenario{Name: "dup", Seed: 1, Dup: 1})
	err := m.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				p.SendValue(1, Tag(7), float64(i))
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			if v := p.RecvValue(0, Tag(7)); v != float64(i) {
				t.Errorf("message %d: got %v (duplicate leaked or order broken)", i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := ct.Report()
	if rep.Dups != msgs {
		t.Errorf("Dups = %d, want %d", rep.Dups, msgs)
	}
	if rep.Absorbed != msgs-1 {
		t.Errorf("Absorbed = %d, want %d (all but the trailing duplicate)", rep.Absorbed, msgs-1)
	}
	if s := m.TotalStats(); s.MsgsRecv != msgs {
		t.Errorf("program-visible receives %d, want %d", s.MsgsRecv, msgs)
	}
}

// scribblingTransport is a base that owns a payload once Send takes it, as
// the ipc transport does: it records what it was handed, delivers a copy and
// overwrites the original, as a buffer returned to the pool and reused would
// be.
type scribblingTransport struct {
	*SharedTransport
	handed [][]float64 // what each Send was given, copied on entry
}

func (s *scribblingTransport) Send(src, dst int, tag Tag, data []float64, arrival float64) {
	cp := append([]float64(nil), data...)
	s.handed = append(s.handed, cp) // Sends reach the base one at a time, under the chaos lock
	for i := range data {
		data[i] = -1
	}
	s.SharedTransport.Send(src, dst, tag, append([]float64(nil), cp...), arrival)
}

func TestChaosDupCopiedBeforeBaseOwnsPayload(t *testing.T) {
	// A duplicate must carry the message's values, not whatever the base
	// left in a buffer it already owned.
	base := &scribblingTransport{SharedTransport: NewSharedTransport(2)}
	ct := NewChaosTransport(base)
	if err := ct.SetScenario(chaos.Scenario{Name: "dup", Seed: 1, Dup: 1}); err != nil {
		t.Fatal(err)
	}
	m := NewWithTransport(ct, IPSC2())
	want := []float64{1, 2, 3}
	err := m.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, Tag(7), append([]float64(nil), want...))
			return nil
		}
		if got := p.Recv(0, Tag(7)); !reflect.DeepEqual(got, want) {
			t.Errorf("received %v, want %v", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.handed) != 2 {
		t.Fatalf("base was handed %d payloads, want the message and its duplicate", len(base.handed))
	}
	for i, got := range base.handed {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("payload %d handed to the base = %v, want %v", i, got, want)
		}
	}
}

func TestChaosAbortPropagationWakesEveryBlockedReceiver(t *testing.T) {
	// Drop probability 1 on one directed pair makes its message unrecoverable.
	// When the retry budget exhausts, the whole machine must come down
	// cleanly: every blocked receiver wakes (Run returns instead of hanging),
	// the error is ErrFaultAbort, and it names the (sender, receiver, tag)
	// stream that exhausted the budget.
	sc := chaos.Scenario{
		Name:       "black-hole",
		Seed:       1,
		Links:      []chaos.LinkFaults{{Src: 0, Dst: 1, Drop: 1}},
		MaxRetries: 2,
	}
	m, ct := chaosMachine(t, "shared", 4, 1, sc)
	err := m.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.SendValue(1, Tag(5), 42) // dropped forever
			p.Recv(3, Tag(9))          // park so the stall is global
		case 1:
			p.Recv(0, Tag(5)) // the lost message's receiver
		case 2:
			p.Recv(1, Tag(7)) // innocent bystanders, also parked
		case 3:
			p.Recv(2, Tag(8))
		}
		return nil
	})
	if !errors.Is(err, ErrFaultAbort) {
		t.Fatalf("err = %v, want ErrFaultAbort", err)
	}
	if errors.Is(err, ErrDeadlock) {
		t.Errorf("fault abort misreported as deadlock: %v", err)
	}
	for _, want := range []string{"(src=0, dst=1, tag=0x5)", sc.Name} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}

	rep := ct.Report()
	if !rep.Aborted {
		t.Error("report not marked aborted")
	}
	if rep.Failure == nil || rep.Failure.Src != 0 || rep.Failure.Dst != 1 || rep.Failure.Tag != 5 {
		t.Errorf("Failure = %+v, want stream (0, 1, 5)", rep.Failure)
	}
	if rep.Failure != nil && rep.Failure.Attempts != sc.MaxRetries+1 {
		t.Errorf("Failure.Attempts = %d, want %d (budget + the attempt that exhausted it)",
			rep.Failure.Attempts, sc.MaxRetries+1)
	}
	if rep.FirstDrop == nil || *rep.FirstDrop != (chaos.StreamRef{Src: 0, Dst: 1, Tag: 5}) {
		t.Errorf("FirstDrop = %+v, want stream (0, 1, 5)", rep.FirstDrop)
	}
	if reason := ct.DownReason(); reason == nil || !errors.Is(reason, ErrFaultAbort) {
		t.Errorf("DownReason = %v, want the fault abort", reason)
	}
}

func TestChaosFirstDropDeterministicAcrossConcurrentStreams(t *testing.T) {
	// Ranks 0 and 2 both lose a message, racing in wall-clock time to
	// record the loss: which send reaches the chaos layer's lock first is a
	// host-scheduling accident. FirstDrop must instead be the canonical
	// earliest loss in virtual time — rank 2's send at clock zero beats
	// rank 0's post-compute send despite (0, 1) sorting before (2, 3) —
	// identically on both layouts, on every run.
	want := chaos.StreamRef{Src: 2, Dst: 3, Tag: 2}
	for _, l := range layouts {
		engine := l.name
		for i := 0; i < 10; i++ {
			sc := chaos.Scenario{Name: "loss-race", Seed: 7, Drop: 1, MaxRetries: 1}
			m, ct := chaosMachine(t, "shared", 4, 1, sc)
			m.SetExecutor(l.new())
			err := m.Run(func(p *Proc) error {
				switch p.Rank() {
				case 0:
					p.Compute(1e6)
					p.SendValue(1, Tag(2), 1)
				case 1:
					p.Recv(0, Tag(2))
				case 2:
					p.SendValue(3, Tag(2), 2)
				case 3:
					p.Recv(2, Tag(2))
				}
				return nil
			})
			if !errors.Is(err, ErrFaultAbort) {
				t.Fatalf("%s run %d: err = %v, want ErrFaultAbort", engine, i, err)
			}
			rep := ct.Report()
			if rep.FirstDrop == nil || *rep.FirstDrop != want {
				t.Fatalf("%s run %d: FirstDrop = %+v, want %+v", engine, i, rep.FirstDrop, want)
			}
		}
	}
}

func TestChaosSeedReproducibleAcrossPooledRuns(t *testing.T) {
	// Machine.Run resets the transport at the start of every run; on a chaos
	// transport that rewinds the PRNG streams to the seed-defined start, so a
	// pooled machine replays the exact same faults run after run: identical
	// values, identical elapsed time, identical report.
	const n, rounds = 4, 25
	sc := chaos.Scenario{Name: "mix", Seed: 99, Drop: 0.15, Dup: 0.1, Delay: 0.2, DelayMax: 1e-3}
	m, ct := chaosMachine(t, "shared", n, 1, sc)

	vals1 := runRing(t, m, n, rounds)
	rep1 := ct.Report()
	elapsed1 := m.Elapsed()
	if rep1.Injected() == 0 {
		t.Fatal("scenario injected nothing; reproducibility untested")
	}

	vals2 := runRing(t, m, n, rounds)
	rep2 := ct.Report()
	if !reflect.DeepEqual(vals1, vals2) {
		t.Errorf("values diverged across pooled runs: %v vs %v", vals1, vals2)
	}
	if m.Elapsed() != elapsed1 {
		t.Errorf("elapsed diverged across pooled runs: %v vs %v", m.Elapsed(), elapsed1)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Errorf("fault reports diverged across pooled runs:\n%+v\n%+v", rep1, rep2)
	}
	// The cumulative report folds both runs.
	total := ct.TotalReport()
	if total.Sends != 2*rep1.Sends || total.Drops != 2*rep1.Drops {
		t.Errorf("TotalReport %+v is not twice the per-run report %+v", total, rep1)
	}
}

func TestChaosDelayOnlySlowsButNeverReorders(t *testing.T) {
	// Delay probability 1 jitters every wire message. Per-stream FIFO and
	// values must hold; only time moves.
	const n, rounds = 2, 10
	base := New(n, IPSC2())
	want := runRing(t, base, n, rounds)

	m, ct := chaosMachine(t, "shared", n, 1, chaos.Scenario{Name: "jitter", Seed: 5, Delay: 1, DelayMax: 1e-3})
	got := runRing(t, m, n, rounds)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("values under delays %v != fault-free %v", got, want)
	}
	rep := ct.Report()
	if rep.Delays != rep.Sends || rep.Sends == 0 {
		t.Errorf("Delays = %d of %d sends, want all", rep.Delays, rep.Sends)
	}
	if rep.Drops != 0 || rep.Retransmits != 0 || rep.RetryRounds != 0 {
		t.Errorf("delay-only scenario triggered recovery: %+v", rep)
	}
	if m.Elapsed() <= base.Elapsed() {
		t.Errorf("delays must cost virtual time: %v <= %v", m.Elapsed(), base.Elapsed())
	}
}

func TestChaosIntraNodeTrafficNeverFaulted(t *testing.T) {
	// Chaos happens on the wire: on chaos:federated, messages between ranks
	// of the same node never cross a link and must never be faulted — even
	// at drop probability 1.
	m, ct := chaosMachine(t, "federated", 4, 2, chaos.Scenario{Name: "wire-only", Seed: 1, Drop: 1, MaxRetries: 1})
	err := m.Run(func(p *Proc) error {
		// Node 0 holds ranks {0, 1}, node 1 holds {2, 3}: chat within nodes.
		switch p.Rank() {
		case 0:
			p.SendValue(1, Tag(1), 10)
		case 1:
			if v := p.RecvValue(0, Tag(1)); v != 10 {
				t.Errorf("intra-node message corrupted: %v", v)
			}
		case 2:
			p.SendValue(3, Tag(1), 20)
		case 3:
			if v := p.RecvValue(2, Tag(1)); v != 20 {
				t.Errorf("intra-node message corrupted: %v", v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("intra-node traffic was faulted: %v", err)
	}
	rep := ct.Report()
	if rep.Sends != 2 {
		t.Errorf("Sends = %d, want 2 (chaos layer still counts them)", rep.Sends)
	}
	if rep.Injected() != 0 {
		t.Errorf("intra-node messages faulted: %+v", rep)
	}
}

func TestChaosSelfSendNeverFaulted(t *testing.T) {
	m, ct := chaosMachine(t, "shared", 2, 1, chaos.Scenario{Name: "self", Seed: 1, Drop: 1, MaxRetries: 1})
	err := m.Run(func(p *Proc) error {
		p.SendValue(p.Rank(), Tag(3), float64(p.Rank()))
		if v := p.RecvValue(p.Rank(), Tag(3)); v != float64(p.Rank()) {
			t.Errorf("self-send corrupted: %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("self-send was faulted: %v", err)
	}
	if rep := ct.Report(); rep.Injected() != 0 {
		t.Errorf("self-sends faulted: %+v", rep)
	}
}

func TestChaosOutageHoldsUntilRestart(t *testing.T) {
	// A node outage loses messages to/from its ranks during the window, and
	// their retransmissions deliver no earlier than the restart time.
	const restart = 1e-2
	sc := chaos.Scenario{
		Name:    "outage",
		Seed:    1,
		Outages: []chaos.Outage{{Node: 1, Start: 0, End: restart}},
	}
	m, ct := chaosMachine(t, "federated", 4, 2, sc)
	err := m.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.SendValue(2, Tag(4), 3.5) // cross-link into the outage window
		case 2:
			if v := p.RecvValue(0, Tag(4)); v != 3.5 {
				t.Errorf("got %v, want 3.5", v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := ct.Report()
	if rep.OutageHolds == 0 {
		t.Fatal("outage window held nothing; the test exercised nothing")
	}
	if rep.Retransmits == 0 {
		t.Errorf("held message never retransmitted: %+v", rep)
	}
	if clk := m.ProcClock(2); clk < restart {
		t.Errorf("receiver clock %v predates the node restart at %v", clk, restart)
	}
}

func TestChaosDeadlockStillDeadlockWhenNothingHeld(t *testing.T) {
	// With an active scenario but no held messages, a confirmed stall is a
	// true dependency deadlock and must be reported as one — not retried.
	m, ct := chaosMachine(t, "shared", 2, 1, chaos.Scenario{Name: "quiet", Seed: 1, Drop: 0.5})
	err := m.Run(func(p *Proc) error {
		p.Recv((p.Rank()+1)%2, Tag(0)) // nobody ever sends
		return nil
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if errors.Is(err, ErrFaultAbort) {
		t.Errorf("true deadlock misattributed to fault injection: %v", err)
	}
	if rep := ct.Report(); rep.Aborted || rep.Failure != nil {
		t.Errorf("deadlock produced a fault-abort report: %+v", rep)
	}
}

func TestChaosSetScenarioValidates(t *testing.T) {
	tr, err := NewTransportByName("chaos:shared", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ct := tr.(*ChaosTransport)
	if err := ct.SetScenario(chaos.Scenario{Drop: 1.5}); err == nil {
		t.Error("drop probability 1.5 accepted")
	}
	if err := ct.SetScenario(chaos.Scenario{Delay: 0.5}); err == nil {
		t.Error("delay without delay_max accepted")
	}
	// Defaults are applied on install.
	if err := ct.SetScenario(chaos.Scenario{Drop: 0.1}); err != nil {
		t.Fatal(err)
	}
	got := ct.Scenario()
	if got.RecvTimeout != chaos.DefaultRecvTimeout || got.MaxRetries != chaos.DefaultMaxRetries {
		t.Errorf("retry defaults not applied: %+v", got)
	}
}

func TestNewChaosTransportGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("nil base", func() { NewChaosTransport(nil) })
	mustPanic("nested chaos", func() { NewChaosTransport(NewChaosTransport(NewSharedTransport(2))) })
}
