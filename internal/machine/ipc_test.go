package machine

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/wire"
)

// ipcMachine builds a machine over a fresh IPC transport and arranges the
// worker fleet's teardown at test end.
func ipcMachine(t *testing.T, n, nodes int, cost CostModel) (*Machine, *IPCTransport) {
	t.Helper()
	tr := NewIPCTransport(n, nodes)
	t.Cleanup(func() { tr.Close() })
	return NewWithTransport(tr, cost), tr
}

func TestIPCTransportCrossesProcessBoundary(t *testing.T) {
	// The defining property: inter-node traffic really leaves the process.
	// After one cross-node exchange the transport must have live worker
	// processes (distinct from this one) and socket link counters matching
	// the federated census rules exactly.
	m, tr := ipcMachine(t, 4, 2, Uniform())
	if pids := tr.WorkerPIDs(); len(pids) != 0 {
		t.Fatalf("workers before any inter-node send: %v", pids)
	}
	err := m.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.Send(1, 1, make([]float64, 10)) // intra-node: stays in process
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
	pids := tr.WorkerPIDs()
	if len(pids) != 2 {
		t.Fatalf("worker fleet: %v, want one process per node", pids)
	}
	for node, pid := range pids {
		if pid == syscall.Getpid() {
			t.Errorf("node %d worker shares the coordinator's pid", node)
		}
		if err := syscall.Kill(pid, 0); err != nil {
			t.Errorf("node %d worker (pid %d) not alive: %v", node, pid, err)
		}
	}
	if msgs, bytes := tr.LinkTraffic(0, 1); msgs != 2 || bytes != 12*wordBytes {
		t.Errorf("link 0->1 = %d msgs / %d bytes, want 2 / %d", msgs, bytes, 12*wordBytes)
	}
	if msgs, bytes := tr.LinkTraffic(1, 0); msgs != 1 || bytes != 2*wordBytes {
		t.Errorf("link 1->0 = %d msgs / %d bytes, want 1 / %d", msgs, bytes, 2*wordBytes)
	}
	if msgs, _ := tr.LinkTraffic(0, 0); msgs != 0 {
		t.Errorf("intra-node message counted on a link: %d", msgs)
	}
	if msgs, bytes := tr.InterNodeTraffic(); msgs != 3 || bytes != 14*wordBytes {
		t.Errorf("inter-node total = %d msgs / %d bytes, want 3 / %d", msgs, bytes, 14*wordBytes)
	}
}

func TestIPCCloseTearsDownWorkers(t *testing.T) {
	// Close must leave no worker behind: by the time it returns, every
	// spawned process has exited and been reaped.
	m, tr := ipcMachine(t, 4, 4, Uniform())
	if err := m.Run(func(p *Proc) error {
		p.SendValue((p.Rank()+1)%4, 1, 1)
		p.RecvValue((p.Rank()+3)%4, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	pids := tr.WorkerPIDs()
	if len(pids) != 4 {
		t.Fatalf("worker fleet: %v, want 4", pids)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for node, pid := range pids {
		if err := syscall.Kill(pid, 0); err == nil {
			t.Errorf("node %d worker (pid %d) still alive after Close", node, pid)
		}
	}
	if err := tr.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestIPCWorkerCrashSurfacesStructuredError(t *testing.T) {
	// A killed worker must not hang the machine: the next traffic touching
	// its socket takes the transport down with an error that wraps
	// ErrWorkerLost and names the node, surfaced through Machine.Run.
	m, tr := ipcMachine(t, 4, 2, Uniform())
	exchange := func(p *Proc) error {
		peer := (p.Rank() + 2) % 4 // always cross-node
		p.SendValue(peer, 1, float64(p.Rank()))
		p.RecvValue(peer, 1)
		return nil
	}
	if err := m.Run(exchange); err != nil {
		t.Fatal(err)
	}
	pids := tr.WorkerPIDs()
	if err := syscall.Kill(pids[1], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	// The kill is asynchronous; the reader notices on EOF, or the next
	// run's reset fence / send does. Either way the run must fail fast
	// with the structured reason, not deadlock.
	deadline := time.Now().Add(10 * time.Second)
	var err error
	for {
		if err = m.Run(exchange); err != nil || time.Now().After(deadline) {
			break
		}
	}
	if err == nil {
		t.Fatal("machine kept completing runs with a dead worker")
	}
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("run error does not wrap ErrWorkerLost: %v", err)
	}
	if !strings.Contains(err.Error(), "node 1") {
		t.Errorf("error should name the lost node: %v", err)
	}
}

func TestIPCResetDoesNotForgetLostWorker(t *testing.T) {
	// A loss noticed between two runs (the reader hits EOF while no rank is
	// there to see the abort) must survive the next run's reset fence: the
	// fence lowers the down flag and clears the reason, and a run started
	// on a fleet with a dead member would wait forever on frames nobody
	// reflects.
	m, tr := ipcMachine(t, 4, 2, Uniform())
	if err := m.Run(func(p *Proc) error {
		peer := (p.Rank() + 2) % 4
		p.SendValue(peer, 1, 1)
		p.RecvValue(peer, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(tr.WorkerPIDs()[1], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		tr.pmu.Lock()
		dead := tr.conns[1].dead
		tr.pmu.Unlock()
		if dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the reader never noticed the killed worker")
		}
	}
	tr.Reset()
	if !tr.Down() {
		t.Fatal("transport is up after a reset with a dead worker")
	}
	if err := tr.DownReason(); !errors.Is(err, ErrWorkerLost) || !strings.Contains(err.Error(), "node 1") {
		t.Fatalf("down reason after the reset: %v, want ErrWorkerLost naming node 1", err)
	}
}

func TestIPCWorkerExitsOnCoordinatorEOF(t *testing.T) {
	// The orphan-hardening contract at its root: a worker whose socket hits
	// EOF (coordinator died) exits cleanly instead of lingering. Driven
	// in-process against the worker loop itself.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan int, 1)
	go func() { done <- runIPCWorker(3, "tcp", ln.Addr().String()) }()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	var hello wire.Frame
	var scratch []byte
	if err := wire.ReadFrame(c, &hello, &scratch, nil); err != nil || hello.Kind != wire.KindHello || hello.Seq != 3 {
		t.Fatalf("handshake: kind=%v seq=%d err=%v", hello.Kind, hello.Seq, err)
	}
	c.Close() // the coordinator is gone
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("worker exit code %d on coordinator EOF, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker hung after coordinator EOF")
	}
}

func TestIPCWorkerExitsOnShutdownFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan int, 1)
	go func() { done <- runIPCWorker(0, "tcp", ln.Addr().String()) }()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var f wire.Frame
	var scratch []byte
	if err := wire.ReadFrame(c, &f, &scratch, nil); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(c, &scratch, &wire.Frame{Kind: wire.KindShutdown}); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("worker exit code %d on Shutdown, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker hung after Shutdown frame")
	}
}

func TestIPCTransportSteadyStateAllocs(t *testing.T) {
	// The cross-process path shares the pooling discipline: a warmed
	// ping-pong — payloads encoded onto the socket on send, decoded into
	// pooled buffers on delivery — runs allocation-free on both the
	// intra-node and the inter-node pairs.
	m, _ := ipcMachine(t, 8, 2, ZeroComm())
	err := m.Run(func(p *Proc) error {
		// Nodes are {0..3} and {4..7}: pairs (0,1) and (4,5) ping-pong
		// inside a node, pairs (2,6) and (3,7) across the sockets.
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
		for i := 0; i < 10; i++ {
			pingPong() // warm pools, scratch buffers and socket buffers
		}
		if avg := testing.AllocsPerRun(200, pingPong); avg != 0 {
			t.Errorf("warmed ipc ping-pong (rank %d): %v allocs per run, want 0", p.Rank(), avg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChaosOverIPCSmokeScenario(t *testing.T) {
	// The committed smoke scenario over chaos:ipc: faults injected on
	// messages that really cross process boundaries, recovery driven by
	// stall probes that cross them too. Values must come back bit-identical
	// to the fault-free run and the report must reproduce under the seed.
	sc, err := chaos.Load("../../scenarios/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	const n, nodes, rounds = 4, 2, 30
	base, baseTr := ipcMachine(t, n, nodes, IPSC2())
	_ = baseTr
	want := runRing(t, base, n, rounds)

	m, ct := chaosMachine(t, "ipc", n, nodes, sc)
	if c, ok := m.Transport().(interface{ Close() error }); ok {
		t.Cleanup(func() { c.Close() })
	}
	got := runRing(t, m, n, rounds)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("values under %q faults %v != fault-free %v", sc.Name, got, want)
	}
	if bs, cs := base.TotalStats(), m.TotalStats(); bs.MsgsSent != cs.MsgsSent ||
		bs.MsgsRecv != cs.MsgsRecv || bs.BytesSent != cs.BytesSent {
		t.Errorf("census moved under faults: %+v vs %+v", cs, bs)
	}
	rep := ct.Report()
	if rep.Drops+rep.Dups == 0 {
		t.Fatalf("smoke scenario injected nothing over ipc: %+v", rep)
	}
	if rep.Aborted || rep.Failure != nil {
		t.Fatalf("smoke run aborted: %+v", rep)
	}

	// Seed-reproducibility: a fresh chaos:ipc machine under the same
	// scenario injects and recovers identically, report included.
	m2, ct2 := chaosMachine(t, "ipc", n, nodes, sc)
	if c, ok := m2.Transport().(interface{ Close() error }); ok {
		t.Cleanup(func() { c.Close() })
	}
	got2 := runRing(t, m2, n, rounds)
	if !reflect.DeepEqual(got2, got) {
		t.Errorf("rerun values diverged: %v vs %v", got2, got)
	}
	if rep2 := ct2.Report(); !reflect.DeepEqual(rep2, rep) {
		t.Errorf("rerun report diverged:\n first: %+v\nsecond: %+v", rep, rep2)
	}
	if m2.Elapsed() != m.Elapsed() {
		t.Errorf("rerun virtual time diverged: %v vs %v", m2.Elapsed(), m.Elapsed())
	}
}

func TestTransportExecutorMatrixIdentical(t *testing.T) {
	// The full cross-product — every registered transport (ipc and
	// chaos:ipc included) on both layouts of the engine — must produce one
	// single answer: bit-identical values, per-rank statistics (the
	// message/byte census) and elapsed virtual time, pinned against a
	// global reference rather than per-row ones, so a future transport
	// registration is automatically held to the same invariant.
	const n = 8
	type result struct {
		values  []float64
		stats   []Stats
		elapsed float64
	}
	var ref *result
	var refName string
	for _, l := range layouts {
		for _, row := range conformanceRows(t, n) {
			name := l.name + "/" + row.name
			m := NewWithTransport(row.tr, IPSC2())
			m.SetExecutor(l.new())
			values, stats, elapsed, err := conformanceProgram(m)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cur := &result{values: values, stats: stats, elapsed: elapsed}
			if ref == nil {
				ref, refName = cur, name
				continue
			}
			if cur.elapsed != ref.elapsed {
				t.Errorf("%s: elapsed %v != %s's %v", name, cur.elapsed, refName, ref.elapsed)
			}
			for r := 0; r < n; r++ {
				if cur.values[r] != ref.values[r] {
					t.Errorf("%s: rank %d value %v != %v", name, r, cur.values[r], ref.values[r])
				}
				if cur.stats[r] != ref.stats[r] {
					t.Errorf("%s: rank %d stats %+v != %+v", name, r, cur.stats[r], ref.stats[r])
				}
			}
		}
	}
}

func TestIPCDistributedDeadlockNotFooledByInFlightFrames(t *testing.T) {
	// The two-phase probe's reason to exist: a message that has left the
	// sender but not yet reached the receiver's mailbox must veto a stall
	// declaration, and its eventual delivery must un-stick the blocked
	// rank. The workload repeats cross-node handoffs where the receiver
	// blocks before the sender's frame has crossed two sockets; any naive
	// local-snapshot detector would race toward a false ErrDeadlock.
	m, _ := ipcMachine(t, 4, 2, Uniform())
	for round := 0; round < 20; round++ {
		err := m.Run(func(p *Proc) error {
			peer := (p.Rank() + 2) % 4
			if p.Rank() < 2 {
				p.SendValue(peer, 1, float64(p.Rank()))
				p.RecvValue(peer, 2)
			} else {
				p.SendValue(peer, 2, float64(p.Rank()))
				p.RecvValue(peer, 1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// And a genuine cross-process deadlock is still caught.
	err := m.Run(func(p *Proc) error {
		p.Recv((p.Rank()+2)%4, 99) // everyone waits, nobody sends
		return nil
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("true deadlock not detected: %v", err)
	}
}
