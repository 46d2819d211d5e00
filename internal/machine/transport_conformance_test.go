package machine

import (
	"errors"
	"io"
	"sync/atomic"
	"testing"
)

// The cross-transport conformance battery: every Transport implementation is
// run through the same table of semantic checks — per-(src,dst,tag) FIFO
// ordering, barrier semantics, reset reuse, deadlock detection, abort
// wakeups and cross-transport bit-identical virtual time — so a future
// transport (a real network one, say) plugs into the suite by adding one
// constructor row.

// transportRow is one named transport under test.
type transportRow struct {
	name string
	tr   Transport
}

// conformanceRows enumerates the transport names into the battery's
// table: every transport, at every federation shape it accepts
// out of {1, 2, n} nodes (n must be a multiple of 4, as everywhere in the
// battery). A new transport joins the whole suite by its name in
// TransportNames — no test edits. Transports accepting exactly
// one shape (the shared mailbox array) keep their bare name;
// federating ones get one row per shape.
func conformanceRows(tb testing.TB, n int) []transportRow {
	tb.Helper()
	var rows []transportRow
	for _, name := range TransportNames() {
		var accepted []transportRow
		seen := map[int]bool{}
		for _, shape := range []struct {
			label string
			nodes int
		}{{"1node", 1}, {"2nodes", 2}, {"pernode", n}} {
			if seen[shape.nodes] {
				continue
			}
			seen[shape.nodes] = true
			tr, err := NewTransportByName(name, n, shape.nodes)
			if err != nil {
				continue // this transport rejects the federation shape
			}
			// Transports holding external resources (the IPC transport's
			// worker processes) release them when the test ends, so a
			// battery of many rows never accumulates stray processes.
			if c, ok := tr.(io.Closer); ok {
				tb.Cleanup(func() { c.Close() })
			}
			accepted = append(accepted, transportRow{name: name + "/" + shape.label, tr: tr})
		}
		if len(accepted) == 0 {
			tb.Fatalf("registered transport %q accepts none of the conformance federation shapes", name)
		}
		if len(accepted) == 1 {
			accepted[0].name = name
		}
		rows = append(rows, accepted...)
	}
	return rows
}

func forEachTransport(t *testing.T, n int, f func(t *testing.T, tr Transport)) {
	t.Helper()
	for _, row := range conformanceRows(t, n) {
		t.Run(row.name, func(t *testing.T) { f(t, row.tr) })
	}
}

func TestConformanceFIFOPerStream(t *testing.T) {
	// Messages on one (src, dst, tag) stream arrive in send order, and
	// interleaved tags never bleed into each other.
	forEachTransport(t, 4, func(t *testing.T, tr Transport) {
		m := NewWithTransport(tr, Uniform())
		const rounds = 50
		err := m.Run(func(p *Proc) error {
			dst := (p.Rank() + 1) % 4
			src := (p.Rank() + 3) % 4
			for i := 0; i < rounds; i++ {
				p.SendValue(dst, TagOf(1), float64(i))
				p.SendValue(dst, TagOf(2), float64(100+i))
			}
			// Drain tag 2 first: tag 1's backlog must stay ordered.
			for i := 0; i < rounds; i++ {
				if v := p.RecvValue(src, TagOf(2)); v != float64(100+i) {
					t.Errorf("tag 2 message %d: got %v", i, v)
				}
			}
			for i := 0; i < rounds; i++ {
				if v := p.RecvValue(src, TagOf(1)); v != float64(i) {
					t.Errorf("tag 1 message %d: got %v", i, v)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestConformanceAllPairsTraffic(t *testing.T) {
	// Every ordered processor pair exchanges a distinct payload; all
	// payloads arrive intact (on the federated transports this crosses
	// every link in both directions).
	forEachTransport(t, 8, func(t *testing.T, tr Transport) {
		m := NewWithTransport(tr, Balanced())
		err := m.Run(func(p *Proc) error {
			me := p.Rank()
			n := p.Size()
			for dst := 0; dst < n; dst++ {
				if dst == me {
					continue
				}
				p.Send(dst, TagOf(uint16(me)), []float64{float64(me*1000 + dst)})
			}
			for src := 0; src < n; src++ {
				if src == me {
					continue
				}
				got := p.Recv(src, TagOf(uint16(src)))
				if len(got) != 1 || got[0] != float64(src*1000+me) {
					t.Errorf("pair %d->%d: got %v", src, me, got)
				}
				p.ReleaseBuf(got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestConformanceBarrier(t *testing.T) {
	// No endpoint leaves barrier generation g before every endpoint has
	// entered it, across repeated reusable generations.
	const n, gens = 8, 5
	forEachTransport(t, n, func(t *testing.T, tr Transport) {
		var entered [gens]atomic.Int32
		err := NewWithTransport(tr, Uniform()).Run(func(p *Proc) error {
			rank := p.Rank()
			for g := 0; g < gens; g++ {
				entered[g].Add(1)
				if !tr.Barrier(rank) {
					t.Errorf("rank %d: barrier gen %d reported down", rank, g)
					return nil
				}
				if got := entered[g].Load(); got != n {
					t.Errorf("rank %d left barrier gen %d with %d/%d entered", rank, g, got, n)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestConformanceResetReuse(t *testing.T) {
	// A transport is reusable across Runs — including after an abort left
	// undelivered messages and a raised down flag behind.
	forEachTransport(t, 4, func(t *testing.T, tr Transport) {
		m := NewWithTransport(tr, Uniform())
		for round := 0; round < 3; round++ {
			err := m.Run(func(p *Proc) error {
				next := (p.Rank() + 1) % 4
				prev := (p.Rank() + 3) % 4
				p.SendValue(next, 7, float64(round*10+p.Rank()))
				if v := p.RecvValue(prev, 7); v != float64(round*10+prev) {
					t.Errorf("round %d: got %v", round, v)
				}
				// Leave an undelivered message behind: Reset must drop it.
				p.SendValue(next, 8, -1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// A deadlocking run in between must not poison the next round.
			err = m.Run(func(p *Proc) error {
				if p.Rank() == 0 {
					p.Recv(1, 99)
				}
				return nil
			})
			if !errors.Is(err, ErrDeadlock) {
				t.Fatalf("round %d: err = %v, want ErrDeadlock", round, err)
			}
			if !tr.Down() {
				t.Fatalf("round %d: transport not down after deadlock", round)
			}
		}
	})
}

func TestConformanceDeadlockDetection(t *testing.T) {
	forEachTransport(t, 4, func(t *testing.T, tr Transport) {
		m := NewWithTransport(tr, Uniform())
		// All-blocked cycle.
		err := m.Run(func(p *Proc) error {
			p.Recv((p.Rank()+1)%4, 0)
			return nil
		})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("cycle: err = %v, want ErrDeadlock", err)
		}
		// Peer exits, receiver can never be satisfied.
		err = m.Run(func(p *Proc) error {
			if p.Rank() == 3 {
				p.Recv(0, 0)
			}
			return nil
		})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("peer exit: err = %v, want ErrDeadlock", err)
		}
	})
}

func TestConformanceAbortUnblocksReceiversAndBarrier(t *testing.T) {
	// An Abort from outside the ranks — a host goroutine, as the ipc
	// watcher or System.Close would be — wakes a rank parked in Recv and one
	// parked in Barrier, and both calls report down. Ranks 1 and 3 return at
	// once, so nothing is left to send and no barrier can complete; the
	// barrier waiter is not counted as blocked, so no stall is declared.
	forEachTransport(t, 4, func(t *testing.T, tr Transport) {
		m := NewWithTransport(tr, Uniform())
		started := make(chan struct{}, 2)
		done := make(chan error, 1)
		go func() {
			done <- m.Run(func(p *Proc) error {
				switch p.Rank() {
				case 0:
					started <- struct{}{}
					if _, _, ok := tr.Recv(0, 1, TagOf(5)); ok {
						t.Error("Recv succeeded after abort")
					}
				case 2:
					started <- struct{}{}
					if tr.Barrier(2) {
						t.Error("Barrier succeeded after abort")
					}
				}
				return nil
			})
		}()
		<-started
		<-started
		tr.Abort()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !tr.Down() {
			t.Fatal("transport not down after Abort")
		}
		// Fail-fast after abort, then a Reset clears the flag.
		if _, _, ok := tr.Recv(3, 1, TagOf(6)); ok {
			t.Fatal("Recv succeeded on a down transport")
		}
		tr.Reset()
		if tr.Down() {
			t.Fatal("Reset did not clear the down flag")
		}
	})
}

// conformanceProgram is a nontrivial deterministic workload touching
// point-to-point traffic, fan-in, compute and idle time; the cross-transport
// check requires bit-identical virtual behaviour on every transport.
func conformanceProgram(m *Machine) ([]float64, []Stats, float64, error) {
	n := m.Size()
	values := make([]float64, n)
	err := m.Run(func(p *Proc) error {
		me := p.Rank()
		next := (me + 1) % n
		prev := (me + n - 1) % n
		acc := float64(me)
		for round := 0; round < 6; round++ {
			p.Compute(10 * (1 + (me+round)%3))
			p.Send(next, TagOf(uint16(round)), []float64{acc})
			in := p.Recv(prev, TagOf(uint16(round)))
			acc += in[0] / 2
			p.ReleaseBuf(in)
		}
		// Fan-in to rank 0 and broadcast back.
		if me != 0 {
			p.SendValue(0, TagOf(100), acc)
			acc += p.RecvValue(0, TagOf(101))
		} else {
			sum := acc
			for q := 1; q < n; q++ {
				sum += p.RecvValue(q, TagOf(100))
			}
			for q := 1; q < n; q++ {
				p.SendValue(q, TagOf(101), sum)
			}
			acc = sum
		}
		values[me] = acc
		return nil
	})
	stats := make([]Stats, n)
	for r := 0; r < n; r++ {
		stats[r] = m.ProcStats(r)
	}
	return values, stats, m.Elapsed(), err
}

func TestConformanceCrossTransportIdentical(t *testing.T) {
	// The same program must produce bit-identical values, per-processor
	// statistics and elapsed virtual time on every transport.
	const n = 8
	type result struct {
		values  []float64
		stats   []Stats
		elapsed float64
	}
	var ref *result
	var refName string
	for _, row := range conformanceRows(t, n) {
		m := NewWithTransport(row.tr, IPSC2())
		values, stats, elapsed, err := conformanceProgram(m)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		cur := &result{values: values, stats: stats, elapsed: elapsed}
		if ref == nil {
			ref, refName = cur, row.name
			continue
		}
		if cur.elapsed != ref.elapsed {
			t.Errorf("%s: elapsed %v != %s's %v", row.name, cur.elapsed, refName, ref.elapsed)
		}
		for r := 0; r < n; r++ {
			if cur.values[r] != ref.values[r] {
				t.Errorf("%s: rank %d value %v != %v", row.name, r, cur.values[r], ref.values[r])
			}
			if cur.stats[r] != ref.stats[r] {
				t.Errorf("%s: rank %d stats %+v != %+v", row.name, r, cur.stats[r], ref.stats[r])
			}
		}
	}
}

func TestSharedTransportPingPongZeroAllocs(t *testing.T) {
	// The shared-memory fast path must stay allocation-free in steady
	// state: pooled payload buffers, recycled queue slices, no hidden
	// closure or interface boxing on the hot path.
	m := New(2, ZeroComm())
	err := m.Run(func(p *Proc) error {
		other := 1 - p.Rank()
		pingPong := func() {
			if p.Rank() == 0 {
				p.SendValue(other, 1, 1)
				p.RecvValue(other, 2)
			} else {
				p.RecvValue(other, 1)
				p.SendValue(other, 2, 1)
			}
		}
		pingPong() // warm the pools and queue maps
		if avg := testing.AllocsPerRun(200, pingPong); avg != 0 {
			t.Errorf("warmed shared-transport ping-pong: %v allocs per run, want 0", avg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFederatedTransportSteadyStateAllocs(t *testing.T) {
	// The federated path shares the pooling discipline: a warmed
	// intra-node and inter-node ping-pong both run allocation-free, on
	// flat links and on priced ones (the hierarchical cost model's
	// per-link price lookup on every send).
	for _, tc := range []struct {
		name string
		cost CostModel
	}{
		{"flat", ZeroComm()},
		{"priced", CostModel{Latency: 1e-6, BytePeriod: 1e-9}.WithInterNode(4, 8)},
	} {
		m := NewFederated(8, 2, tc.cost)
		err := m.Run(func(p *Proc) error {
			// Nodes are {0..3} and {4..7}: pairs (0,1) and (4,5) ping-pong
			// inside a node, pairs (2,6) and (3,7) across the link.
			peers := [8]int{1, 0, 6, 7, 5, 4, 2, 3}
			peer := peers[p.Rank()]
			lead := p.Rank() < peer
			pingPong := func() {
				if lead {
					p.SendValue(peer, 1, 1)
					p.RecvValue(peer, 2)
				} else {
					p.RecvValue(peer, 1)
					p.SendValue(peer, 2, 1)
				}
			}
			pingPong()
			if avg := testing.AllocsPerRun(200, pingPong); avg != 0 {
				t.Errorf("warmed %s federated ping-pong (rank %d): %v allocs per run, want 0", tc.name, p.Rank(), avg)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestFederatedLinkCounters(t *testing.T) {
	// Link counters census exactly the inter-node messages: intra-node
	// traffic is never counted, and each directed pair is counted on its
	// own link.
	tr := NewFederatedTransport(4, 2) // node 0: ranks 0,1; node 1: ranks 2,3
	m := NewWithTransport(tr, Uniform())
	err := m.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.Send(1, 1, make([]float64, 10)) // intra-node: not counted
			p.Send(2, 2, make([]float64, 5))  // node 0 -> node 1
			p.Send(3, 3, make([]float64, 7))  // node 0 -> node 1
		case 1:
			p.Recv(0, 1)
		case 2:
			p.Recv(0, 2)
			p.Send(0, 4, make([]float64, 2)) // node 1 -> node 0
		case 3:
			p.Recv(0, 3)
		}
		if p.Rank() == 0 {
			p.Recv(2, 4)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if msgs, bytes := tr.LinkTraffic(0, 1); msgs != 2 || bytes != (5+7)*wordBytes {
		t.Errorf("link 0->1: %d msgs / %d bytes, want 2 / %d", msgs, bytes, (5+7)*wordBytes)
	}
	if msgs, bytes := tr.LinkTraffic(1, 0); msgs != 1 || bytes != 2*wordBytes {
		t.Errorf("link 1->0: %d msgs / %d bytes, want 1 / %d", msgs, bytes, 2*wordBytes)
	}
	if msgs, bytes := tr.InterNodeTraffic(); msgs != 3 || bytes != (5+7+2)*wordBytes {
		t.Errorf("inter-node totals: %d msgs / %d bytes, want 3 / %d", msgs, bytes, (5+7+2)*wordBytes)
	}
	if tr.NodeOf(1) != 0 || tr.NodeOf(2) != 1 || tr.Nodes() != 2 || tr.ProcsPerNode() != 2 {
		t.Error("node topology accessors disagree with the partition")
	}
	// Counters reset with the transport.
	tr.Reset()
	if msgs, bytes := tr.InterNodeTraffic(); msgs != 0 || bytes != 0 {
		t.Errorf("after Reset: %d msgs / %d bytes, want 0 / 0", msgs, bytes)
	}
}

func TestFederatedConstructorValidation(t *testing.T) {
	for _, tc := range []struct{ n, nodes int }{{4, 3}, {4, 0}, {4, -1}, {0, 1}, {4, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFederatedTransport(%d, %d) did not panic", tc.n, tc.nodes)
				}
			}()
			NewFederatedTransport(tc.n, tc.nodes)
		}()
	}
}
