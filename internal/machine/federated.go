package machine

import (
	"fmt"
	"sync"
)

// link is one directed inter-node channel. Delivery holds the link lock,
// so messages crossing the same node pair are handed to the destination
// node in send order — an honest stand-in for a FIFO network link — and the
// counters census every byte that would cross the interconnect.
type link struct {
	mu    sync.Mutex
	msgs  int64
	bytes int64
}

// linkSet is the node partition of a federated machine and its interconnect
// census: n processors in nnodes equal nodes (node k owns ranks
// [k*n/nnodes, (k+1)*n/nnodes)), one counted link per directed node pair,
// and the per-link message pricing. FederatedTransport and IPCTransport
// embed it beside the local plane.
type linkSet struct {
	nnodes  int
	perNode int
	links   []link // directed node pairs, row-major [src*nnodes+dst]
}

func (ls *linkSet) initLinks(n, nnodes int) {
	if nnodes <= 0 || n%nnodes != 0 {
		panic(fmt.Sprintf("machine: federation of %d processors needs a positive node count dividing it, got %d", n, nnodes))
	}
	ls.nnodes = nnodes
	ls.perNode = n / nnodes
	ls.links = make([]link, nnodes*nnodes)
}

// Nodes returns the number of federation nodes.
func (ls *linkSet) Nodes() int { return ls.nnodes }

// ProcsPerNode returns the number of processors on each node.
func (ls *linkSet) ProcsPerNode() int { return ls.perNode }

// NodeOf returns the node owning the given rank.
func (ls *linkSet) NodeOf(rank int) int { return rank / ls.perNode }

// LinkTraffic returns the message and byte counts carried by the directed
// link from node src to node dst since the last Reset. Counts are a
// deterministic function of the program (every inter-node message crosses
// exactly one link), so they can be asserted exactly.
func (ls *linkSet) LinkTraffic(src, dst int) (msgs, bytes int64) {
	if src < 0 || src >= ls.nnodes || dst < 0 || dst >= ls.nnodes {
		panic(fmt.Sprintf("machine: link traffic of node pair (%d, %d) on a federation of %d nodes", src, dst, ls.nnodes))
	}
	l := &ls.links[src*ls.nnodes+dst]
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.msgs, l.bytes
}

// InterNodeTraffic returns the total message and byte counts that crossed
// node boundaries since the last Reset.
func (ls *linkSet) InterNodeTraffic() (msgs, bytes int64) {
	for i := range ls.links {
		l := &ls.links[i]
		l.mu.Lock()
		msgs += l.msgs
		bytes += l.bytes
		l.mu.Unlock()
	}
	return msgs, bytes
}

// MessageTime prices a message by the link it crosses: intra-node messages
// pay the flat cost, inter-node messages pay the cost model's per-link
// price. With a flat cost model (no InterNode table) every pair prices
// identically to SharedTransport — the degenerate case the conformance
// suite's bit-identical-times battery pins. Every node-partitioned
// transport prices through LinkMessageTime, which is what keeps virtual
// times bit-identical across federated, ipc and the worker sub-machines.
func (ls *linkSet) MessageTime(cost CostModel, src, dst, b int) float64 {
	return cost.LinkMessageTime(src/ls.perNode, dst/ls.perNode, b)
}

// clearLinks zeroes the census. Each link lock is held while its counters
// are cleared, so a concurrent reader (a stress harness, a monitoring
// goroutine) observes either the old counts or zero, never a torn mixture.
func (ls *linkSet) clearLinks() {
	for i := range ls.links {
		l := &ls.links[i]
		l.mu.Lock()
		l.msgs, l.bytes = 0, 0
		l.mu.Unlock()
	}
}

// FederatedTransport partitions a machine's processors into nodes of equal
// size — the NUMA-style multi-machine federation past the reach of one
// shared mailbox array. It is the local plane plus a linkSet: every message
// lands in its destination rank's mailbox exactly as on SharedTransport,
// and a message whose endpoints live on different nodes is delivered under
// its directed node pair's link lock, so each pair behaves like one FIFO
// network channel and carries byte/message counters — the numbers a
// performance estimator needs to price node interconnect traffic.
//
// Under a flat cost model a program's clocks, statistics and results are
// bit-identical on a FederatedTransport and a SharedTransport; the
// conformance suite and the S2 experiment hold both transports to that.
// With a hierarchical cost model (CostModel.InterNode) the federation
// additionally prices inter-node messages at their link's latency and
// bandwidth through MessageTime, so values and message counts stay
// identical while virtual times honestly diverge — the NUMA effect the
// paper's performance-estimation story needs the clock to see.
type FederatedTransport struct {
	localPlane
	linkSet
}

// NewFederatedTransport returns a transport with n endpoints partitioned
// into nnodes equal nodes (nnodes must divide n).
func NewFederatedTransport(n, nnodes int) *FederatedTransport {
	t := &FederatedTransport{}
	t.initPlane(n)
	t.initLinks(n, nnodes)
	return t
}

// Send routes a message: straight into the destination's mailbox for
// intra-node traffic, through the (srcNode, dstNode) link — counted and
// order-preserved under the link lock — for inter-node traffic.
func (t *FederatedTransport) Send(src, dst int, tag Tag, data []float64, arrival float64) {
	sn, dn := src/t.perNode, dst/t.perNode
	if sn == dn {
		t.deliver(src, dst, tag, data, arrival)
		return
	}
	l := &t.links[sn*t.nnodes+dn]
	l.mu.Lock()
	l.msgs++
	l.bytes += int64(len(data) * wordBytes)
	t.deliver(src, dst, tag, data, arrival)
	l.mu.Unlock()
}

// Reset clears the local plane and the link census.
func (t *FederatedTransport) Reset() {
	t.localPlane.Reset()
	t.clearLinks()
}
