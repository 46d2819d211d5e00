package machine

import "fmt"

// Stats accumulates per-processor activity counters over one Run.
type Stats struct {
	// Flops is the number of floating point operations charged via
	// Compute.
	Flops int64
	// MsgsSent and BytesSent count outgoing traffic.
	MsgsSent  int64
	BytesSent int64
	// MsgsRecv counts completed receives.
	MsgsRecv int64
	// IdleTime is virtual time spent waiting for messages that had not
	// yet arrived.
	IdleTime float64
	// CommTime is virtual time spent in send and receive overheads.
	CommTime float64
}

// Add returns the element-wise sum of two Stats.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Flops:     s.Flops + o.Flops,
		MsgsSent:  s.MsgsSent + o.MsgsSent,
		BytesSent: s.BytesSent + o.BytesSent,
		MsgsRecv:  s.MsgsRecv + o.MsgsRecv,
		IdleTime:  s.IdleTime + o.IdleTime,
		CommTime:  s.CommTime + o.CommTime,
	}
}

// wordBytes is the simulated size of one float64 array element on the wire.
const wordBytes = 8

// Proc is one processor of a simulated multicomputer. A Proc is only valid
// inside the body passed to Machine.Run, on its own goroutine.
type Proc struct {
	m     *Machine
	rank  int
	clock float64
	stats Stats
	// local is the first tier of the size-classed message buffer pool:
	// the processor's free buffers, touched only by the owning goroutine,
	// so the symmetric steady state (halo exchanges, ping-pongs — every
	// release backs an equal-sized later acquire) recycles without taking
	// a lock. One list for every class, at most localKeep of a class, in
	// no order: a halo rank's few buffers do not pay for a list per class,
	// and taking one out moves the last into its place.
	// Overflow and misses go through the machine-wide tier, which
	// rebalances capacity between processors whose send and receive size
	// profiles differ. See sharedPool.
	local [][]float64
	// scratch holds per-processor state registered by runtime subsystems
	// (solver scratch, root contexts) so derived state survives across
	// calls without globals or locks: a handful of keys in the whole tree,
	// so a slice searched by key. See Scratch.
	scratch []scratchEntry
	// missed says the processor's last TryRecv found no message: a step
	// that returns unfinished must have one to wait for.
	missed bool
	_      [7]byte // pads a Proc to two cache lines: no two ranks' clocks share one
}

// scratchEntry is one Scratch registration.
type scratchEntry struct{ key, val any }

// AcquireBuf returns a message payload buffer of length n with unspecified
// contents, reusing a previously released buffer when one is available in
// the processor's free lists or the machine-wide pool. Pass the filled
// buffer to SendOwned, or return it with ReleaseBuf.
func (p *Proc) AcquireBuf(n int) []float64 {
	if n <= 0 {
		return nil
	}
	c := sizeClass(n)
	if c >= numClasses {
		return make([]float64, n)
	}
	// First tier: the processor's own buffers, exact class outward, the
	// newest first. Larger classes are legal backing (capacity rides the
	// message to its receiver's pool, it is never wasted).
	best, bestClass := -1, numClasses
	for i := len(p.local) - 1; i >= 0 && bestClass != c; i-- {
		if bc := capClass(cap(p.local[i])); bc >= c && bc < bestClass {
			best, bestClass = i, bc
		}
	}
	if best >= 0 {
		buf, last := p.local[best], len(p.local)-1
		p.local[best], p.local[last] = p.local[last], nil
		p.local = p.local[:last]
		return buf[:n]
	}
	// Second tier: the machine-wide classed lists.
	if buf, ok := p.m.bufs.take(c); ok {
		return buf[:n]
	}
	// Allocate the full class size so the buffer files cleanly wherever
	// it is eventually released.
	return make([]float64, 1<<c)[:n]
}

// ReleaseBuf returns a buffer to the pool. It is only safe for buffers no
// longer referenced anywhere else: a payload obtained from Recv that the
// caller has fully consumed, or an AcquireBuf buffer that was never sent.
// Releasing is optional; unreleased buffers are simply garbage collected.
//
// The buffer is filed by capacity class: the first localKeep of a class
// stay on the releasing processor, the rest flow to the machine-wide tier
// so capacity cannot strand on a processor that never sends that class —
// the property that keeps asymmetric traffic (irregular gathers whose
// serve and request sizes differ) allocation-free in steady state.
func (p *Proc) ReleaseBuf(buf []float64) {
	c := capClass(cap(buf))
	if c < 0 {
		return
	}
	held := 0
	if len(p.local) >= localKeep { // a shorter list holds fewer of any class
		for _, b := range p.local {
			if capClass(cap(b)) == c {
				held++
			}
		}
	}
	if held == localKeep {
		p.m.bufs.put(c, buf)
		return
	}
	if len(p.local) == cap(p.local) {
		// Grow by localGrow, not by append's doubling: the list is about
		// as long as the processor's traffic needs.
		grown := make([][]float64, len(p.local), len(p.local)+localGrow)
		copy(grown, p.local)
		p.local = grown
	}
	p.local = append(p.local, buf)
}

// Scratch returns the processor's scratch value registered under key,
// creating it with mk on first use. It is the pool hook runtime subsystems
// use to keep reusable buffers and compiled state per simulated processor
// (the tridiagonal solver's line-solve scratch, for example) without
// package-level globals. Only the owning goroutine may call it.
//
// Scratch values survive Machine.Run resets — like the message buffer pool
// they must hold only reusable capacity, never per-Run semantic state. The
// registrations are a slice searched by key: the whole tree uses a handful
// of keys. State that is the same on many processors belongs in
// Intern instead.
func (p *Proc) Scratch(key any, mk func() any) any {
	for i := range p.scratch {
		if p.scratch[i].key == key {
			return p.scratch[i].val
		}
	}
	v := mk()
	p.scratch = append(p.scratch, scratchEntry{key: key, val: v})
	return v
}

func (p *Proc) reset() {
	p.clock = 0
	p.stats = Stats{}
	p.missed = false
}

// Rank returns the processor's machine-wide rank in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of processors in the machine.
func (p *Proc) Size() int { return p.m.n }

// Machine returns the machine the processor belongs to.
func (p *Proc) Machine() *Machine { return p.m }

// Direct reports whether the processor's machine derives collectives
// directly instead of replaying compiled schedules; see Machine.SetDirect.
func (p *Proc) Direct() bool { return p.m.direct }

// Clock returns the processor's current virtual time.
func (p *Proc) Clock() float64 { return p.clock }

// Stats returns a copy of the processor's activity counters.
func (p *Proc) Stats() Stats { return p.stats }

// Compute advances the processor's clock by flops floating point operations
// under the machine's cost model. Negative values are ignored.
func (p *Proc) Compute(flops int) { p.ComputeEach(flops, 1) }

// ComputeEach is n calls of Compute(flops): n separate clock additions
// (floating-point addition does not associate, so one charge of n·flops
// would not land on the same virtual time) and, under a trace, n compute
// events. A compiled loop charges all its cells with one call.
func (p *Proc) ComputeEach(flops, n int) {
	if flops <= 0 || n <= 0 {
		return
	}
	d := float64(flops) * p.m.cost.FlopTime
	p.stats.Flops += int64(flops) * int64(n)
	if p.m.sink == nil {
		clock := p.clock
		for ; n > 0; n-- {
			clock += d
		}
		p.clock = clock
		return
	}
	for ; n > 0; n-- {
		start := p.clock
		p.clock += d
		p.emit(Event{Proc: p.rank, Kind: EvCompute, Start: start, End: p.clock, Peer: -1})
	}
}

// Send transmits a copy of data to processor dst under the given tag. The
// send is asynchronous: it occupies the sender for SendOverhead virtual
// seconds and the message arrives at dst after the model's latency and
// transfer time. Sending to oneself is allowed (loopback with the same
// costs). The data slice is copied, so the caller may reuse it immediately.
func (p *Proc) Send(dst int, tag Tag, data []float64) {
	buf := p.AcquireBuf(len(data))
	copy(buf, data)
	p.SendOwned(dst, tag, buf)
}

// SendOwned transmits data to processor dst, transferring ownership of the
// slice: the caller must not touch data afterwards. Combined with
// AcquireBuf it is the zero-copy, zero-allocation send path the runtime's
// packed collectives use; Send is the copying convenience on top of it.
func (p *Proc) SendOwned(dst int, tag Tag, data []float64) {
	if dst < 0 || dst >= p.m.n {
		panic(fmt.Sprintf("machine: proc %d sending to invalid rank %d", p.rank, dst))
	}
	start := p.clock
	p.clock += p.m.cost.SendOverhead
	p.stats.CommTime += p.m.cost.SendOverhead
	bytes := len(data) * wordBytes
	arrival := p.clock + p.m.tr.MessageTime(p.m.cost, p.rank, dst, bytes)
	p.m.tr.Send(p.rank, dst, tag, data, arrival)
	p.stats.MsgsSent++
	p.stats.BytesSent += int64(bytes)
	p.emit(Event{Proc: p.rank, Kind: EvSend, Start: start, End: p.clock, Peer: dst, Bytes: bytes})
}

// SendValue transmits a single float64; a convenience wrapper around Send.
func (p *Proc) SendValue(dst int, tag Tag, v float64) {
	buf := p.AcquireBuf(1)
	buf[0] = v
	p.SendOwned(dst, tag, buf)
}

// Recv blocks until a message from src with the given tag is available and
// returns its payload. The processor's clock advances to at least the
// message's arrival time (accumulating idle time if it waited) plus the
// receive overhead.
//
// If the machine deadlocks while waiting, Recv panics with an abort value
// that Machine.Run converts into an error wrapping ErrDeadlock; user code
// should not attempt to recover it.
func (p *Proc) Recv(src int, tag Tag) []float64 {
	p.checkSrc(src)
	data, arrival, ok := p.m.tr.Recv(p.rank, src, tag)
	if !ok {
		p.abort(src, tag)
	}
	return p.received(src, data, arrival)
}

// TryRecv is Recv that never parks: it returns the message from src with
// the given tag if one is available, with the clock, counters and events
// Recv gives it, and reports false if the receive would block. A false
// leaves the wait published (the machine's stall detection sees it), and
// the caller must repeat the same receive before any other: a step rank
// (see StepFunc) after returning from its step, any other rank after Wait.
// On a transport that cannot answer "would block" (an active chaos
// scenario) TryRecv blocks as Recv does. A transport that went down aborts
// the processor as Recv does, with the same error.
func (p *Proc) TryRecv(src int, tag Tag) ([]float64, bool) {
	p.checkSrc(src)
	var data []float64
	var arrival float64
	var st recvState
	if s := p.m.stepper; s != nil {
		data, arrival, st = s.tryRecv(p.rank, src, tag)
	} else {
		data, arrival, st = blockingRecv(p.m.tr, p.rank, src, tag)
	}
	p.missed = st == recvWait
	switch st {
	case recvWait:
		return nil, false
	case recvDown:
		p.abort(src, tag)
	}
	return p.received(src, data, arrival), true
}

// Wait parks the processor until the receive its last TryRecv could not
// complete may proceed, or the transport goes down; the caller then repeats
// that TryRecv. A wake may come early, so the caller loops. TryRecv
// followed by Wait until the TryRecv succeeds is Recv. A step rank must not
// call Wait: it returns from its step instead, and the engine parks it.
func (p *Proc) Wait() { p.m.exec.Park(p.rank) }

// checkSrc panics on a receive from outside the machine.
func (p *Proc) checkSrc(src int) {
	if src < 0 || src >= p.m.n {
		panic(fmt.Sprintf("machine: proc %d receiving from invalid rank %d", p.rank, src))
	}
}

// abort ends the processor's run because the transport went down while it
// waited on (src, tag).
func (p *Proc) abort(src int, tag Tag) {
	// Attribute the abort: a transport that took itself down for a
	// richer reason than deadlock (a chaos retry budget exhausting)
	// reports it through the DownReasoner extension.
	cause := error(ErrDeadlock)
	if dr, isDR := p.m.tr.(DownReasoner); isDR {
		if r := dr.DownReason(); r != nil {
			cause = r
		}
	}
	panic(procAbort{err: fmt.Errorf("processor %d waiting on (src=%d, tag=%#x): %w", p.rank, src, tag, cause)})
}

// received accounts a completed receive of data from src, which arrived at
// the given virtual time, and returns data.
func (p *Proc) received(src int, data []float64, arrival float64) []float64 {
	if arrival > p.clock {
		p.stats.IdleTime += arrival - p.clock
		p.emit(Event{Proc: p.rank, Kind: EvIdle, Start: p.clock, End: arrival, Peer: src})
		p.clock = arrival
	}
	start := p.clock
	p.clock += p.m.cost.RecvOverhead
	p.stats.CommTime += p.m.cost.RecvOverhead
	p.stats.MsgsRecv++
	p.emit(Event{Proc: p.rank, Kind: EvRecv, Start: start, End: p.clock, Peer: src, Bytes: len(data) * wordBytes})
	return data
}

// RecvValue receives a single float64; a convenience wrapper around Recv.
// The payload buffer never escapes, so it is recycled into the processor's
// pool.
func (p *Proc) RecvValue(src int, tag Tag) float64 {
	return p.value(src, p.Recv(src, tag))
}

// TryRecvValue is RecvValue's TryRecv: false if the receive would block.
func (p *Proc) TryRecvValue(src int, tag Tag) (float64, bool) {
	d, ok := p.TryRecv(src, tag)
	if !ok {
		return 0, false
	}
	return p.value(src, d), true
}

// value unpacks a scalar message from src and recycles its buffer.
func (p *Proc) value(src int, d []float64) float64 {
	if len(d) != 1 {
		panic(fmt.Sprintf("machine: proc %d expected scalar message from %d, got %d values", p.rank, src, len(d)))
	}
	v := d[0]
	p.ReleaseBuf(d)
	return v
}

// Mark records a zero-length annotation in the processor's trace timeline.
func (p *Proc) Mark(label string) {
	p.emit(Event{Proc: p.rank, Kind: EvMark, Start: p.clock, End: p.clock, Peer: -1, Label: label})
}

// AdvanceTo moves the processor's clock forward to time t if t is in the
// future; used by collective operations that synchronize clocks.
func (p *Proc) AdvanceTo(t float64) {
	if t > p.clock {
		p.stats.IdleTime += t - p.clock
		p.emit(Event{Proc: p.rank, Kind: EvIdle, Start: p.clock, End: t, Peer: -1})
		p.clock = t
	}
}

func (p *Proc) emit(e Event) {
	if p.m.sink != nil {
		p.m.sink.Record(e)
	}
}
