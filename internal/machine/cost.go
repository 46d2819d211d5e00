package machine

import (
	"encoding/json"
	"sort"
)

// CostModel describes the virtual-time cost of computation and communication
// on the simulated multicomputer. All quantities are in (virtual) seconds.
//
// The model is LogGP-flavoured: a message of b bytes sent at sender time t
// occupies the sender for SendOverhead seconds and arrives at the receiver at
//
//	t + SendOverhead + Latency + b*BytePeriod
//
// On a hierarchical transport the Latency and BytePeriod terms of a message
// crossing node boundaries are scaled by the crossed link's LinkCost (see
// InterNodeCost); the transport's MessageTime method decides which link a
// message crosses.
//
// The JSON form is the one serialization of a cost model — what crosses the
// process boundary to ipc workers and what configuration layers compare for
// identity — and it is canonical: link overrides are listed in ascending
// (src, dst) order and encoding/json writes each float64 as its shortest
// round-tripping decimal, so equal models yield equal bytes and every finite
// term decodes bit-exactly (a worker's virtual times must match a
// coordinator-side run to the last bit; a non-finite term has no spelling
// and fails to encode).
//
// The receiver, executing a matching Recv at local time t', resumes at
//
//	max(t', arrival) + RecvOverhead
//
// accumulating max(0, arrival-t') as idle time. Compute(n) advances the local
// clock by n*FlopTime.
type CostModel struct {
	// FlopTime is the virtual time per floating point operation.
	FlopTime float64 `json:"flop"`
	// Latency is the per-message network latency (the "alpha" term).
	Latency float64 `json:"lat"`
	// BytePeriod is the per-byte transfer time (the "beta" term,
	// 1/bandwidth).
	BytePeriod float64 `json:"byte"`
	// SendOverhead is processor time consumed by issuing a send.
	SendOverhead float64 `json:"send"`
	// RecvOverhead is processor time consumed by completing a receive.
	RecvOverhead float64 `json:"recv"`
	// InterNode, when non-nil, prices messages that cross node boundaries
	// on a hierarchical transport: Latency and BytePeriod are scaled by
	// the crossed link's LinkCost. A nil table is the flat model — every
	// message pays the same price regardless of the delivering transport's
	// topology.
	InterNode *InterNodeCost `json:"inter,omitempty"`
}

// MessageTime returns the end-to-end transfer time for a message of b bytes,
// excluding sender and receiver overheads, at the flat (intra-node) price.
func (c CostModel) MessageTime(b int) float64 {
	return c.Latency + float64(b)*c.BytePeriod
}

// IsZero reports whether c is the zero cost model — the value configuration
// layers treat as "no model given, use the preset". It compares fields
// explicitly rather than via ==, so it keeps compiling (and callers keep
// working) if CostModel ever grows a non-comparable field.
func (c CostModel) IsZero() bool {
	return c.FlopTime == 0 && c.Latency == 0 && c.BytePeriod == 0 &&
		c.SendOverhead == 0 && c.RecvOverhead == 0 && c.InterNode == nil
}

// LinkCost scales the flat communication terms for messages crossing one
// directed inter-node link of a hierarchical machine. The multipliers apply
// to CostModel.Latency and CostModel.BytePeriod respectively; {1, 1} prices
// a link exactly like intra-node traffic.
type LinkCost struct {
	// Latency multiplies CostModel.Latency on this link.
	Latency float64 `json:"lat"`
	// Byte multiplies CostModel.BytePeriod on this link.
	Byte float64 `json:"byte"`
}

// InterNodeCost extends a flat CostModel with hierarchical per-link pricing:
// a message that crosses from node a to node b pays the flat model's terms
// scaled by the link's LinkCost. It is the cost-model half of the NUMA-style
// federation — FederatedTransport knows which link a message crosses,
// InterNodeCost knows what that link charges.
type InterNodeCost struct {
	// Default applies to every inter-node link without an explicit entry
	// in Links.
	Default LinkCost
	// Links overrides Default for specific directed node pairs, keyed by
	// [2]int{srcNode, dstNode}.
	Links map[[2]int]LinkCost
}

// interJSON is InterNodeCost's JSON form: the map, whose array keys JSON
// cannot spell, becomes a list of directed links.
type interJSON struct {
	LinkCost
	Links []linkJSON `json:"links,omitempty"`
}

type linkJSON struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
	LinkCost
}

// MarshalJSON lists the link overrides in ascending (src, dst) order; see
// CostModel for why the order is fixed.
func (ic InterNodeCost) MarshalJSON() ([]byte, error) {
	out := interJSON{LinkCost: ic.Default}
	for k, v := range ic.Links {
		out.Links = append(out.Links, linkJSON{Src: k[0], Dst: k[1], LinkCost: v})
	}
	sort.Slice(out.Links, func(i, j int) bool {
		a, b := out.Links[i], out.Links[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	return json.Marshal(out)
}

func (ic *InterNodeCost) UnmarshalJSON(raw []byte) error {
	var in interJSON
	if err := json.Unmarshal(raw, &in); err != nil {
		return err
	}
	*ic = InterNodeCost{Default: in.LinkCost}
	if len(in.Links) > 0 {
		ic.Links = make(map[[2]int]LinkCost, len(in.Links))
	}
	for _, l := range in.Links {
		ic.Links[[2]int{l.Src, l.Dst}] = l.LinkCost
	}
	return nil
}

// scale returns the link cost of the directed node pair (a, b).
func (ic *InterNodeCost) scale(a, b int) LinkCost {
	if ic.Links != nil {
		if lc, ok := ic.Links[[2]int{a, b}]; ok {
			return lc
		}
	}
	return ic.Default
}

// LinkMessageTime returns the end-to-end transfer time for b bytes sent from
// node src to node dst. Intra-node messages (src == dst) and models with no
// InterNode table — the degenerate flat case — price every message with
// MessageTime; inter-node messages pay the link-scaled latency and byte
// period.
func (c CostModel) LinkMessageTime(src, dst, b int) float64 {
	if src == dst || c.InterNode == nil {
		return c.MessageTime(b)
	}
	s := c.InterNode.scale(src, dst)
	return c.Latency*s.Latency + float64(b)*c.BytePeriod*s.Byte
}

// InterNodeExtra returns the surcharge an inter-node message of b bytes
// pays over the flat price on the default link (per-pair WithLink
// overrides do not affect it) — the per-message quantity the performance
// estimator charges each node-boundary crossing.
func (c CostModel) InterNodeExtra(b int) float64 {
	if c.InterNode == nil {
		return 0
	}
	s := c.InterNode.Default
	return c.Latency*(s.Latency-1) + float64(b)*c.BytePeriod*(s.Byte-1)
}

// WithInterNode returns a copy of c whose inter-node links all charge the
// given latency and byte-period multipliers. Multipliers of 1 reproduce the
// flat model; real node interconnects are slower than intra-node delivery,
// so useful values are > 1.
func (c CostModel) WithInterNode(latency, byte float64) CostModel {
	c.InterNode = &InterNodeCost{Default: LinkCost{Latency: latency, Byte: byte}}
	return c
}

// WithLink returns a copy of c in which the directed link from node src to
// node dst charges lc, overriding the default inter-node cost (an
// asymmetric or irregular interconnect: a slow uplink, a fast backbone
// pair). The receiver's link table is copied, so cost models stay value
// types.
func (c CostModel) WithLink(src, dst int, lc LinkCost) CostModel {
	in := InterNodeCost{Default: LinkCost{Latency: 1, Byte: 1}}
	if c.InterNode != nil {
		in.Default = c.InterNode.Default
		in.Links = make(map[[2]int]LinkCost, len(c.InterNode.Links)+1)
		for k, v := range c.InterNode.Links {
			in.Links[k] = v
		}
	} else {
		in.Links = make(map[[2]int]LinkCost, 1)
	}
	in.Links[[2]int{src, dst}] = lc
	c.InterNode = &in
	return c
}

// IPSC2 returns a cost model resembling a 1989 Intel iPSC/2 hypercube node:
// roughly 1 MFLOPS per node, ~350 microseconds message latency and ~2.8 MB/s
// of link bandwidth. Communication dominates, as it did for the machines the
// paper targets.
func IPSC2() CostModel {
	return CostModel{
		FlopTime:     1e-6,
		Latency:      350e-6,
		BytePeriod:   1.0 / 2.8e6,
		SendOverhead: 50e-6,
		RecvOverhead: 50e-6,
	}
}

// Balanced returns a generic mid-range machine: 10 MFLOPS nodes, 10
// microsecond latency, 100 MB/s links.
func Balanced() CostModel {
	return CostModel{
		FlopTime:     1e-7,
		Latency:      10e-6,
		BytePeriod:   1.0 / 100e6,
		SendOverhead: 1e-6,
		RecvOverhead: 1e-6,
	}
}

// ZeroComm returns a model in which communication is free. It isolates the
// algorithmic load balance of a program from its communication structure.
func ZeroComm() CostModel {
	return CostModel{FlopTime: 1e-6}
}

// Uniform returns a model in which every flop costs one virtual second and
// communication is free; useful in unit tests where exact clock values are
// asserted.
func Uniform() CostModel {
	return CostModel{FlopTime: 1}
}
