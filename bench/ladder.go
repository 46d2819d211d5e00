package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/jacobi"
	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/serve"
	"repro/internal/wire"
)

// The ladder: one microbenchmark per layer, each beside the floor it is
// read against. Every row times calls into a layer's public functions from
// outside, in batches, and reports the median batch — a preempted batch
// moves the mean, not the median.

const (
	ladderBatches = 7 // the first is warm-up and dropped
	ladderMinTime = 20 * time.Millisecond
)

// timeLoop calls f in batches and returns the median cost of one call in
// nanoseconds and the number of timed calls. The batch size is calibrated
// on the warm-up batch so one batch lasts about ladderMinTime.
func timeLoop(f func()) (ns float64, calls int) {
	per := 1
	for {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		if d := time.Since(t0); d >= ladderMinTime/2 || per >= 1<<24 {
			break
		}
		per *= 4
	}
	var batches []float64
	for b := 1; b < ladderBatches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		batches = append(batches, float64(time.Since(t0))/float64(per))
	}
	return median(batches), per * len(batches)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// wireLadder prices the frame codec: a small frame (8 payload words, the
// size class of ADI's chain messages) and a bulk one (512 words, a gather
// block), against an in-cache memcpy of the bulk frame's bytes.
func wireLadder(m metrics) error {
	var pooled [512]float64
	acquire := func(n int) []float64 { return pooled[:n] }
	var allocs uint64
	var frames int
	for _, c := range []struct {
		class string
		words int
	}{{"small", 8}, {"bulk", 512}} {
		f := wire.Frame{Kind: wire.KindData, Src: 3, Dst: 700, Tag: 42, Seq: 7, Arrival: 1.5, Payload: make([]float64, c.words)}
		for i := range f.Payload {
			f.Payload[i] = float64(i) + 0.25
		}
		buf := make([]byte, 0, wire.EncodedLen(&f))
		before := mallocs()
		enc, n1 := timeLoop(func() { buf = wire.AppendFrame(buf[:0], &f) })
		var out wire.Frame
		var derr error
		dec, n2 := timeLoop(func() { _, derr = wire.DecodeFrame(buf, &out, acquire) })
		allocs += mallocs() - before
		frames += n1 + n2
		if derr != nil {
			return fmt.Errorf("wire ladder: %w", derr)
		}
		if len(out.Payload) != c.words || out.Payload[c.words-1] != f.Payload[c.words-1] {
			return fmt.Errorf("wire ladder: %s frame did not round-trip", c.class)
		}
		m.set("wire.encode_ns_"+c.class, enc, n1)
		m.set("wire.decode_ns_"+c.class, dec, n2)
		if c.class == "bulk" {
			// Encoded bytes through one encode plus one decode.
			m.setNote("wire.codec_gb_s_bulk", 2*float64(len(buf))/(enc+dec), n1+n2,
				fmt.Sprintf("%d-byte frame", len(buf)))
			src, dst := make([]byte, len(buf)), make([]byte, len(buf))
			cp, n := timeLoop(func() { copy(dst, src) })
			m.setNote("floor.memcpy_gb_s", float64(len(buf))/cp, n, "same bytes, in cache")
		}
	}
	// Whole allocations over hundreds of thousands of frames: the codec
	// itself makes none, so this reads 0 unless it starts to.
	m.set("wire.allocs_per_frame", float64(allocs/uint64(frames)), frames)
	return nil
}

// floorFrameLen is the size of the frames the socket floors bounce: the
// encoded one-word Data frame the relay ping-pong sends per message.
var floorFrameLen = wire.EncodedLen(&wire.Frame{Payload: []float64{1}})

// socketRTT measures a ping-pong of floorFrameLen bytes over a bare
// socket pair — no machine, no codec: the kernel's price for one round
// trip between two goroutines of this process.
func socketRTT(network, addr string) (us float64, n int, err error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		buf := make([]byte, floorFrameLen)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				if err == io.EOF {
					err = nil
				}
				echoed <- err
				return
			}
			if _, err := c.Write(buf); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := net.Dial(network, ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	buf := make([]byte, floorFrameLen)
	var ioErr error
	ns, n := timeLoop(func() {
		if _, err := c.Write(buf); err != nil {
			ioErr = err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			ioErr = err
		}
	})
	c.Close()
	if err := <-echoed; err != nil && ioErr == nil {
		ioErr = err
	}
	return ns / 1e3, n, ioErr
}

// pingPong bounces one value between ranks 0 and 1 of m and returns rank
// 0's time per round trip in nanoseconds, median over batches, plus heap
// allocations per round trip over the timed batches.
func pingPong(m *machine.Machine, per int) (ns, allocs float64, n int, err error) {
	var batches []float64
	var allocated uint64
	err = m.Run(func(p *machine.Proc) error {
		other := 1 - p.Rank()
		for b := 0; b < ladderBatches; b++ {
			if p.Rank() == 0 && b == 1 {
				allocated = mallocs()
			}
			t0 := time.Now()
			for i := 0; i < per; i++ {
				if p.Rank() == 0 {
					p.SendValue(other, 1, 1)
					p.RecvValue(other, 2)
				} else {
					p.RecvValue(other, 1)
					p.SendValue(other, 2, 1)
				}
			}
			if p.Rank() == 0 && b > 0 {
				batches = append(batches, float64(time.Since(t0))/float64(per))
			}
		}
		if p.Rank() == 0 {
			allocated = mallocs() - allocated
		}
		return nil
	})
	n = per * len(batches)
	if err != nil || n == 0 {
		return 0, 0, 0, fmt.Errorf("ping-pong: %v", err)
	}
	return median(batches), float64(allocated) / float64(n), n, nil
}

// machineLadder prices one simulated message round trip on each in-process
// delivery path, and the two kernels the Jacobi workloads are made of.
func machineLadder(m metrics) error {
	for _, c := range []struct {
		metric string
		opts   []core.Option
	}{
		{"machine.shared_rtt_ns", nil},
		{"machine.federated_rtt_ns", []core.Option{core.Transport("federated"), core.Nodes(2)}},
		// Two ranks on the calendar engine: every receive parks the rank
		// and the matching send wakes it — one park->wake handoff per leg.
		{"machine.calendar_rtt_ns", []core.Option{core.Executor("calendar")}},
	} {
		opts := append([]core.Option{core.Grid(2), core.Cost(machine.ZeroComm())}, c.opts...)
		sys, err := core.NewSystem(opts...)
		if err != nil {
			return err
		}
		ns, allocs, n, err := pingPong(sys.Machine, 20000)
		sys.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", c.metric, err)
		}
		m.set(c.metric, ns, n)
		if c.opts == nil {
			m.set("machine.rtt_allocs", allocs, n)
		}
	}

	// One ghost exchange of a 256x256 block array on a 2x2 grid.
	sys, err := core.NewSystem(core.Grid(2, 2), core.Cost(machine.ZeroComm()))
	if err != nil {
		return err
	}
	defer sys.Close()
	const haloPer = 2000
	var batches []float64
	_, err = sys.Run(func(c *kf.Ctx) error {
		a := c.NewArray(darray.Spec{
			Extents: []int{256, 256},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
			Halo:    []int{1, 1},
		})
		a.Fill(func([]int) float64 { return 1 })
		for b := 0; b < ladderBatches; b++ {
			t0 := time.Now()
			for i := 0; i < haloPer; i++ {
				a.ExchangeHalo(c.NextScope())
			}
			if c.P.Rank() == 0 && b > 0 {
				batches = append(batches, float64(time.Since(t0))/haloPer)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("darray.halo_exchange_us: %w", err)
	}
	m.set("darray.halo_exchange_us", median(batches)/1e3, haloPer*len(batches))

	// One KF1 Jacobi sweep, n=64 on the same 2x2 grid; each call runs
	// jacobiPer sweeps, so the build and the gather are amortized away.
	const jacobiPer = 500
	x0, f := jacobi.Problem(64)
	batches = batches[:0]
	for b := 0; b < ladderBatches; b++ {
		t0 := time.Now()
		if _, err := jacobi.KF1(sys.Machine, sys.Procs, x0, f, jacobiPer); err != nil {
			return fmt.Errorf("kf.jacobi_iter_us_4p: %w", err)
		}
		if b > 0 {
			batches = append(batches, float64(time.Since(t0))/jacobiPer)
		}
	}
	m.set("kf.jacobi_iter_us_4p", median(batches)/1e3, jacobiPer*len(batches))
	return nil
}

// ipcLadder prices what stands between the ipc plane and the hardware: the
// bare socket floors, and the relay-mode round trip a literal closure
// still pays (every message framed, written to a worker, reflected back).
func ipcLadder(m metrics) error {
	dir, err := os.MkdirTemp("", "kfbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	uds, n, err := socketRTT("unix", filepath.Join(dir, "floor.sock"))
	if err != nil {
		return fmt.Errorf("floor.uds_rtt_us: %w", err)
	}
	note := fmt.Sprintf("%d-byte frame", floorFrameLen)
	m.setNote("floor.uds_rtt_us", uds, n, note)
	tcp, n, err := socketRTT("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("floor.tcp_rtt_us: %w", err)
	}
	m.setNote("floor.tcp_rtt_us", tcp, n, note)

	sys, err := core.NewSystem(core.Grid(2), core.Transport("ipc"), core.Nodes(2), core.Cost(machine.ZeroComm()))
	if err != nil {
		return err
	}
	defer sys.Close()
	ns, _, n, err := pingPong(sys.Machine, 300)
	if err != nil {
		return fmt.Errorf("machine.ipc_relay_rtt_us: %w", err)
	}
	m.set("machine.ipc_relay_rtt_us", ns/1e3, n)
	m.setNote("machine.ipc_relay_over_uds", ns/1e3/uds, n, fmt.Sprintf("base floor.uds_rtt_us = %.2f us", uds))
	return nil
}

// forkProbeFlag makes a re-exec of this binary exit as soon as main
// starts: what one fork/exec of a worker costs before it does anything.
const forkProbeFlag = "-fork-probe"

// constructLadder prices System construction and teardown on opts — from
// NewSystem to the first run done, then Close — against the fork/exec
// floor of the worker fleet it spawns.
func constructLadder(m metrics, opts []core.Option, prog progSpec, workers int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	const cycles = 9
	var forks, constructs, closes []float64
	for i := 0; i < cycles; i++ {
		t0 := time.Now()
		if err := exec.Command(exe, forkProbeFlag).Run(); err != nil {
			return fmt.Errorf("floor.fork_exec_ms: %w", err)
		}
		forks = append(forks, ms(time.Since(t0)))
	}
	p, err := prog.build()
	if err != nil {
		return err
	}
	for i := 0; i < cycles; i++ {
		t0 := time.Now()
		sys, err := core.NewSystem(opts...)
		if err != nil {
			return err
		}
		if _, err := sys.RunProgram(p); err != nil {
			sys.Close()
			return fmt.Errorf("core.construct_ms: %w", err)
		}
		t1 := time.Now()
		constructs = append(constructs, ms(t1.Sub(t0)))
		if err := sys.Close(); err != nil {
			return fmt.Errorf("core.close_ms: %w", err)
		}
		closes = append(closes, ms(time.Since(t1)))
	}
	fork := median(forks)
	m.set("floor.fork_exec_ms", fork, cycles)
	m.set("core.construct_ms", median(constructs), cycles)
	m.set("core.close_ms", median(closes), cycles)
	m.setNote("core.construct_over_fork", median(constructs)/(float64(workers)*fork), cycles,
		fmt.Sprintf("base %d x floor.fork_exec_ms = %.2f ms", workers, float64(workers)*fork))
	return nil
}

// sampleRuns runs p on a System built and warmed from opts for about
// budget (at least ten runs) and returns the wall time of each in ms.
func sampleRuns(opts []core.Option, p *core.Program, budget time.Duration) ([]float64, error) {
	sys, err := warmSystem(opts, p, nil)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	var out []float64
	for start := time.Now(); len(out) < 10 || time.Since(start) < budget; {
		t0 := time.Now()
		if _, err := sys.RunProgram(p); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, nil
}

// serveLadder prices the layers of one kfserve request from the outside
// in: a no-op program over loopback, the same through the handler without
// a socket, a warm pool checkout, an uncontended scheduler slot.
func serveLadder(m metrics, s *serveInstance) error {
	noop := serve.RunRequest{Program: "hostpid", Grid: []int{1}}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	ns, n := timeLoop(func() {
		_, _, err := s.request(nil, -1, 0, -1, noop)
		keep(err)
	})
	m.set("serve.noop_request_us", ns/1e3, n)

	payload, err := json.Marshal(noop)
	if err != nil {
		return err
	}
	h := s.srv.Handler()
	ns, n = timeLoop(func() {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(payload)))
		if rr.Code != http.StatusOK {
			keep(fmt.Errorf("handler: status %d: %s", rr.Code, bytes.TrimSpace(rr.Body.Bytes())))
		}
	})
	m.set("serve.noop_handler_us", ns/1e3, n)

	pool := serve.NewPool(1)
	defer pool.Close()
	build := func() (*core.System, error) { return core.NewSystem(core.Grid(1)) }
	ns, n = timeLoop(func() {
		lease, err := pool.Checkout("noop", build)
		if err != nil {
			keep(err)
			return
		}
		lease.Return()
	})
	m.set("serve.pool_hit_us", ns/1e3, n)

	sched := serve.NewScheduler(1, 0)
	ctx := context.Background()
	ns, n = timeLoop(func() {
		if err := sched.Acquire(ctx); err != nil {
			keep(err)
			return
		}
		sched.Release()
	})
	m.set("serve.sched_acquire_ns", ns, n)
	if firstErr != nil {
		return fmt.Errorf("serve ladder: %w", firstErr)
	}
	return nil
}
