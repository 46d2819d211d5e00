package machine

import (
	"bufio"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// peerHarness is node 1 of a two-node fleet with its link to node 0 on an
// in-memory pipe: the test plays node 0 and writes whatever it likes.
type peerHarness struct {
	w    *ipcWorker
	pl   *peerLink
	far  net.Conn
	done chan error
}

func newPeerHarness(t *testing.T) *peerHarness {
	t.Helper()
	near, far := net.Pipe()
	coord, _ := net.Pipe() // a coordinator socket nobody reads: nothing here may write to it
	w := newIPCWorker(1, coord)
	pl := &peerLink{node: 0, c: near, bw: bufio.NewWriter(near)}
	w.peers = []*peerLink{pl, {node: 1}}
	h := &peerHarness{w: w, pl: pl, far: far, done: make(chan error, 1)}
	go func() { h.done <- w.peerLoop(pl) }()
	t.Cleanup(func() { far.Close(); near.Close(); coord.Close() })
	return h
}

// install publishes a fresh 4-rank transport (ranks 2 and 3 local) for gen.
func (h *peerHarness) install(t *testing.T, gen uint64) *WorkerTransport {
	t.Helper()
	wt, err := newWorkerTransport(h.w, 1, 4, 2, gen)
	if err != nil {
		t.Fatal(err)
	}
	h.w.install(gen, wt)
	return wt
}

// dataFrame is one single-message batch 0 -> 2 carrying value.
func dataFrame(gen, seq uint64, value float64) []byte {
	words := []float64{math.Float64frombits(0), math.Float64frombits(2), math.Float64frombits(9), 0.5, math.Float64frombits(1), value}
	return wire.AppendFrame(nil, &wire.Frame{Kind: wire.KindData, Src: 0, Dst: 2, Seq: seq, A: gen, B: 1, Payload: words})
}

func (h *peerHarness) write(t *testing.T, b []byte) {
	t.Helper()
	h.far.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if _, err := h.far.Write(b); err != nil {
		t.Fatalf("peer reader stopped draining its socket: %v", err)
	}
}

func (h *peerHarness) wait(t *testing.T) error {
	t.Helper()
	select {
	case err := <-h.done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("peer reader wedged")
		return nil
	}
}

func pending(wt *WorkerTransport, dst, src int, tag Tag) int {
	mb := &wt.boxes[dst-wt.lo]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.depthLocked(msgKey{src: src, tag: tag})
}

// TestPeerReaderDropsStaleGenerations: frames of a generation older than
// the installed run — a failed or rejected run's stragglers — are dropped
// without touching the counters, and the current generation's frames behind
// them are delivered; the link ending is not an error.
func TestPeerReaderDropsStaleGenerations(t *testing.T) {
	h := newPeerHarness(t)
	wt := h.install(t, 5)
	h.write(t, dataFrame(4, 17, 1)) // stale: any sequence number, no FIFO check
	h.write(t, dataFrame(3, 1, 1))
	h.write(t, dataFrame(5, 1, 42))
	h.write(t, dataFrame(5, 2, 43))
	h.far.Close()
	if err := h.wait(t); err != nil {
		t.Fatalf("peer reader: %v", err)
	}
	if got := pending(wt, 2, 0, 9); got != 2 {
		t.Errorf("delivered %d current-generation messages, want 2", got)
	}
	if got := h.pl.recv.Load(); got != 2 {
		t.Errorf("recv counter = %d, want 2 (stale frames must not count)", got)
	}
}

// TestPeerReaderHoldsFramesThatOutrunTheirSpec: a frame of a generation
// this worker has no spec for yet parks the reader — it is neither dropped
// nor delivered into the old run — until the spec is installed; if that
// spec is rejected instead, the frame is dropped.
func TestPeerReaderHoldsFramesThatOutrunTheirSpec(t *testing.T) {
	h := newPeerHarness(t)
	old := h.install(t, 1)
	go func() {
		h.far.Write(dataFrame(2, 1, 7))
		h.far.Write(dataFrame(3, 1, 8))
		h.far.Close()
	}()
	// The reader is (or will be) parked on generation 2; nothing may land
	// in generation 1's mailboxes however long we look.
	for i := 0; i < 50; i++ {
		if pending(old, 2, 0, 9) != 0 {
			t.Fatal("a generation-2 frame was delivered into generation 1's run")
		}
		time.Sleep(time.Millisecond)
	}
	h.w.install(2, nil) // generation 2 rejected: its frame dies
	wt3 := h.install(t, 3)
	if err := h.wait(t); err != nil {
		t.Fatalf("peer reader: %v", err)
	}
	if pending(old, 2, 0, 9) != 0 || pending(wt3, 2, 0, 9) != 1 {
		t.Errorf("generation 1 got %d messages, generation 3 got %d; want 0 and 1",
			pending(old, 2, 0, 9), pending(wt3, 2, 0, 9))
	}
}

// TestPeerReaderRejectsGarbage: bytes no well-behaved peer sends end the
// reader with an error at once — it neither hangs nor spins nor delivers.
func TestPeerReaderRejectsGarbage(t *testing.T) {
	misrouted := wire.AppendFrame(nil, &wire.Frame{Kind: wire.KindData, Seq: 1, A: 1, B: 1,
		Payload: []float64{math.Float64frombits(2), math.Float64frombits(3), 0, 0, 0}}) // src 2 is not node 0's
	overrun := wire.AppendFrame(nil, &wire.Frame{Kind: wire.KindData, Seq: 1, A: 1, B: 2,
		Payload: []float64{0, math.Float64frombits(2), 0, 0, math.Float64frombits(99)}})
	for name, b := range map[string][]byte{
		"impossible length": {0xde, 0xad, 0xbe, 0xef, 1, 2, 3},
		"short body":        {3, 0, 0, 0, 1, 2, 3},
		"control frame":     wire.AppendFrame(nil, &wire.Frame{Kind: wire.KindAbort, Seq: 1}),
		"bad kind":          append([]byte{wire.HeaderLen, 0, 0, 0, 200}, make([]byte, wire.HeaderLen-1)...),
		"sequence gap":      dataFrame(1, 2, 1),
		"misrouted message": misrouted,
		"overrunning batch": overrun,
	} {
		t.Run(name, func(t *testing.T) {
			h := newPeerHarness(t)
			wt := h.install(t, 1)
			go h.far.Write(b)
			if err := h.wait(t); err == nil {
				t.Error("peer reader accepted it")
			}
			if pending(wt, 2, 0, 9)+pending(wt, 3, 2, 0) != 0 {
				t.Error("garbage reached a mailbox")
			}
		})
	}
}
