// Package coll provides deterministic message-based collective operations
// over a processor grid: barrier, broadcast, reductions and gathers. All
// collectives are built from point-to-point sends along a binomial tree over
// the grid's row-major enumeration, so their virtual-time cost reflects what
// a real message-passing implementation would pay.
//
// Every processor in the grid must call the same collective with the same
// scope; scopes keep concurrent collectives on disjoint grids (and
// successive collectives on the same grid) from confusing each other's
// messages. Collectives derive their internal tags from structural positions
// only, so they compose safely with the kf runtime's scope discipline.
package coll

import (
	"repro/internal/machine"
	"repro/internal/topology"
)

// index returns p's row-major index within g, panicking if p is not a
// member: calling a collective from outside its grid is a programming error.
func index(p *machine.Proc, g *topology.Grid) int {
	idx, ok := g.Index(p.Rank())
	if !ok {
		panic("coll: processor is not a member of the collective's grid")
	}
	return idx
}

// Barrier synchronizes all processors of g: no processor leaves before every
// processor has entered. Virtual clocks are synchronized to the barrier's
// completion time by the message pattern itself (gather-to-root then
// broadcast).
func Barrier(p *machine.Proc, g *topology.Grid, sc machine.Scope) {
	AllReduce(p, g, sc, 0, func(a, b float64) float64 { return a })
}

// Cursor is a reduction in progress on one processor: the tree stride it
// has reached and the value it has combined so far. The zero value is a
// reduction not yet begun.
type Cursor struct {
	stride int
	acc    float64
}

// Reduce combines one value from every processor with op (assumed
// associative and commutative) and returns the result on the root (row-major
// index 0); other processors receive their partial value and must not use
// the result. The reduction runs up a binomial tree. Reduce is ReduceStep
// driven to the end, waiting wherever a receive would block.
func Reduce(p *machine.Proc, g *topology.Grid, sc machine.Scope, v float64, op func(a, b float64) float64) float64 {
	var cur Cursor
	for {
		if r, ok := ReduceStep(p, g, sc, v, op, &cur); ok {
			return r
		}
		p.Wait()
	}
}

// ReduceStep advances the reduction Reduce performs from cur, without
// parking: it returns Reduce's result and true once this processor's part
// is done, and false when a receive would block (p.TryRecv), with cur
// holding the place to resume from on the next call with the same
// arguments. v is read on the first call only.
func ReduceStep(p *machine.Proc, g *topology.Grid, sc machine.Scope, v float64, op func(a, b float64) float64, cur *Cursor) (float64, bool) {
	me := index(p, g)
	n := g.Size()
	if cur.stride == 0 {
		cur.stride, cur.acc = 1, v
	}
	// Binomial tree: at round r, nodes with me % 2^(r+1) == 0 receive
	// from me + 2^r; the others send their partial value and are done.
	for ; cur.stride < n; cur.stride *= 2 {
		stride := cur.stride
		if me%(2*stride) != 0 {
			p.SendValue(g.RankAt(me-stride), sc.Tag(uint16(stride)), cur.acc)
			cur.stride = n
			break
		}
		if src := me + stride; src < n {
			w, ok := p.TryRecvValue(g.RankAt(src), sc.Tag(uint16(stride)))
			if !ok {
				return 0, false
			}
			cur.acc = op(cur.acc, w)
		}
	}
	return cur.acc, true
}

// Broadcast sends v from the root (row-major index 0) down a binomial tree;
// every processor returns the root's value. It is BroadcastStep repeated,
// waiting, until it completes.
func Broadcast(p *machine.Proc, g *topology.Grid, sc machine.Scope, v float64) float64 {
	for {
		if r, ok := BroadcastStep(p, g, sc, v); ok {
			return r
		}
		p.Wait()
	}
}

// BroadcastStep is Broadcast without parking: false when this processor's
// receive would block (p.TryRecv). A processor sends only after its
// receive, so a broadcast in progress keeps no state: the next call with
// the same arguments resumes it.
func BroadcastStep(p *machine.Proc, g *topology.Grid, sc machine.Scope, v float64) (float64, bool) {
	me := index(p, g)
	n := g.Size()
	// Every node but the root receives once, at the lowest stride where
	// it is not a multiple of twice the stride; the root "receives" above
	// the whole tree.
	recvStride := 1
	if me != 0 {
		for ; me%(2*recvStride) == 0; recvStride *= 2 {
		}
		w, ok := p.TryRecvValue(g.RankAt(me-recvStride), sc.Tag(uint16(0x8000)|uint16(recvStride)))
		if !ok {
			return 0, false
		}
		v = w
	} else {
		for recvStride < n {
			recvStride *= 2
		}
	}
	// Forward downward: strides below the receive stride.
	for stride := recvStride / 2; stride >= 1; stride /= 2 {
		dst := me + stride
		if me%(2*stride) == 0 && dst < n {
			p.SendValue(g.RankAt(dst), sc.Tag(uint16(0x8000)|uint16(stride)), v)
		}
	}
	return v, true
}

// AllReduce combines one value from every processor with op and returns the
// combined result on all processors (reduce to root, then broadcast). It
// is AllReduceStep driven to the end.
func AllReduce(p *machine.Proc, g *topology.Grid, sc machine.Scope, v float64, op func(a, b float64) float64) float64 {
	var cur Cursor
	for {
		if r, ok := AllReduceStep(p, g, sc, v, op, &cur); ok {
			return r
		}
		p.Wait()
	}
}

// AllReduceStep is AllReduce without parking: ReduceStep, then
// BroadcastStep of its result, false while either's receive would block.
func AllReduceStep(p *machine.Proc, g *topology.Grid, sc machine.Scope, v float64, op func(a, b float64) float64, cur *Cursor) (float64, bool) {
	r, ok := ReduceStep(p, g, sc, v, op, cur)
	if !ok {
		return 0, false
	}
	return BroadcastStep(p, g, sc, r)
}

// Sum is an AllReduce with addition.
func Sum(p *machine.Proc, g *topology.Grid, sc machine.Scope, v float64) float64 {
	return AllReduce(p, g, sc, v, func(a, b float64) float64 { return a + b })
}

// Max is an AllReduce with maximum.
func Max(p *machine.Proc, g *topology.Grid, sc machine.Scope, v float64) float64 {
	return AllReduce(p, g, sc, v, maxOf)
}

// MaxStep is Max's AllReduceStep.
func MaxStep(p *machine.Proc, g *topology.Grid, sc machine.Scope, v float64, cur *Cursor) (float64, bool) {
	return AllReduceStep(p, g, sc, v, maxOf, cur)
}

func maxOf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// GatherSlices collects a variable-length slice from every processor onto
// the root (row-major index 0), concatenated in row-major grid order. Only
// the root's return value is meaningful; other processors return nil.
// Lengths may differ across processors (they are sent along with the data).
func GatherSlices(p *machine.Proc, g *topology.Grid, sc machine.Scope, data []float64) [][]float64 {
	me := index(p, g)
	n := g.Size()
	if me != 0 {
		p.Send(g.RankAt(0), sc.Tag(uint16(me)), data)
		return nil
	}
	out := make([][]float64, n)
	out[0] = append([]float64(nil), data...)
	for i := 1; i < n; i++ {
		out[i] = p.Recv(g.RankAt(i), sc.Tag(uint16(i)))
	}
	return out
}

// BroadcastSlice sends data from the processor at row-major index root to
// every member of g, returning the broadcast values on all processors. The
// tree is rooted by index rotation, so any member may be the source.
func BroadcastSlice(p *machine.Proc, g *topology.Grid, sc machine.Scope, root int, data []float64) []float64 {
	me := index(p, g)
	n := g.Size()
	// Virtual index relative to the root.
	vme := (me - root + n) % n
	real := func(v int) int { return g.RankAt((v + root) % n) }
	if vme != 0 {
		stride := 1
		for ; vme%(2*stride) == 0; stride *= 2 {
		}
		data = p.Recv(real(vme-stride), sc.Tag(uint16(0x4000)|uint16(stride)))
		for s := stride / 2; s >= 1; s /= 2 {
			if vme+s < n {
				p.Send(real(vme+s), sc.Tag(uint16(0x4000)|uint16(s)), data)
			}
		}
		return data
	}
	top := 1
	for top < n {
		top *= 2
	}
	for s := top / 2; s >= 1; s /= 2 {
		if s < n {
			p.Send(real(s), sc.Tag(uint16(0x4000)|uint16(s)), data)
		}
	}
	return data
}
