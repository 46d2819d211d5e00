package perfest

import "repro/internal/machine"

// This file is the hierarchical half of the estimator: static predictions
// for programs running on a node-federated machine whose cost model prices
// inter-node links (machine.CostModel.InterNode). The federation partitions
// the p x p grid's ranks consecutively into `nodes` equal nodes, exactly as
// machine.NewFederated does.
//
// The Jacobi predictions evaluate the compiled halo schedule's clock
// recurrence exactly: one Jacobi iteration is a max-plus map from the
// processors' previous finish times to their next ones (each receive gates
// on its sender's departure plus the crossed link's transfer time, then
// pays the remaining receive overheads), and JacobiFederatedTime iterates
// that map — pure arithmetic on the schedule, no simulation — so the
// predicted loop time matches the simulator to floating-point noise,
// transients and steady-state processor offsets included. Experiment S3
// validates the federated-minus-shared surcharge at 1024 processors
// against the simulator.

// node returns the federation node of grid position (i, j) on a p x p grid
// split into nodes consecutive-rank nodes.
func nodeOf(i, j, p, nodes int) int { return (i*p + j) / (p * p / nodes) }

// checkNodes rejects federations machine.NewFederated would reject, so the
// estimator cannot silently predict a partition the simulator cannot build.
func checkNodes(p, nodes int) {
	if nodes <= 0 || (p*p)%nodes != 0 {
		panic("perfest: federation node count must be positive and divide p*p")
	}
}

// blockSize is dist.Block's size of block q of n over P.
func blockSize(q, n, P int) int { return (q+1)*n/P - q*n/P }

// blockLower is dist.Block's first index of block q of n over P.
func blockLower(q, n, P int) int { return q * n / P }

// haloMsg is one compiled halo message in schedule order.
type haloMsg struct {
	srcI, srcJ int // sender grid position
	dstI, dstJ int
	words      int
}

// haloSchedule mirrors darray's compiled halo exchange for the (block,
// block) array of extent n x n on the p x p grid: for each exchanged
// dimension in order, a send to the lower then the upper neighbour; then,
// in the same dimension order, a receive from the lower then the upper
// neighbour. It returns processor (i, j)'s sends and receives in exactly
// the executor's order (all sends are posted before any receive).
func haloSchedule(n, p, i, j int, dims []int) (sends, recvs []haloMsg) {
	for _, d := range dims {
		// The message perpendicular to dimension d carries one plane of
		// the sender's block in the other dimension.
		words := blockSize(j, n, p)
		if d == 1 {
			words = blockSize(i, n, p)
		}
		var lo, hi haloMsg
		if d == 0 {
			lo = haloMsg{srcI: i, srcJ: j, dstI: i - 1, dstJ: j, words: words}
			hi = haloMsg{srcI: i, srcJ: j, dstI: i + 1, dstJ: j, words: words}
		} else {
			lo = haloMsg{srcI: i, srcJ: j, dstI: i, dstJ: j - 1, words: words}
			hi = haloMsg{srcI: i, srcJ: j, dstI: i, dstJ: j + 1, words: words}
		}
		if lo.dstI >= 0 && lo.dstJ >= 0 {
			sends = append(sends, lo)
		}
		if hi.dstI < p && hi.dstJ < p {
			sends = append(sends, hi)
		}
	}
	for _, d := range dims {
		words := blockSize(j, n, p)
		if d == 1 {
			words = blockSize(i, n, p)
		}
		if d == 0 {
			if i > 0 {
				recvs = append(recvs, haloMsg{srcI: i - 1, srcJ: j, dstI: i, dstJ: j, words: blockSize(j, n, p)})
			}
			if i < p-1 {
				recvs = append(recvs, haloMsg{srcI: i + 1, srcJ: j, dstI: i, dstJ: j, words: words})
			}
		} else {
			if j > 0 {
				recvs = append(recvs, haloMsg{srcI: i, srcJ: j - 1, dstI: i, dstJ: j, words: blockSize(i, n, p)})
			}
			if j < p-1 {
				recvs = append(recvs, haloMsg{srcI: i, srcJ: j + 1, dstI: i, dstJ: j, words: words})
			}
		}
	}
	return sends, recvs
}

// sendOrdinal returns the 1-based position of the send (src -> dst) in the
// sender's schedule — the term deciding when the message departs.
func sendOrdinal(n, p int, dims []int, srcI, srcJ, dstI, dstJ int) int {
	sends, _ := haloSchedule(n, p, srcI, srcJ, dims)
	for k, s := range sends {
		if s.dstI == dstI && s.dstJ == dstJ {
			return k + 1
		}
	}
	panic("perfest: halo schedule has no such send")
}

// haloIterTime is the one-shot (synchronized-start) critical path of one
// halo-exchange round over the exchanged dims: jacobiStep from all-zero
// finish times. The ADI surcharge model uses it per component.
func haloIterTime(cost machine.CostModel, n, p, nodes int, dims []int, flopsAt func(i, j int) int) float64 {
	finish := make([]float64, p*p)
	next := make([]float64, p*p)
	jacobiStep(cost, n, p, nodes, dims, flopsAt, finish, next)
	worst := 0.0
	for _, f := range next {
		if f > worst {
			worst = f
		}
	}
	return worst
}

// jacobiStep advances every processor's finish time by one iteration of
// the halo-exchange-plus-compute recurrence: processor P, starting at its
// previous finish time, posts its sends (SendOverhead each), then works
// through its receives in schedule order — each gated by the sender's
// departure (the sender's previous finish plus the send's ordinal
// overheads) plus the crossed link's transfer time — and finally computes.
// The sequential receive replay folds into a max over one term per gate:
//
//	finish'[P] = comp + max( finish[P] + S*so + R*ro,
//	                         max_i finish[src_i] + ord_i*so + mt_i + (R-i)*ro )
//
// which is exactly the simulator's clock arithmetic.
func jacobiStep(cost machine.CostModel, n, p, nodes int, dims []int, flopsAt func(i, j int) int, finish, next []float64) {
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			me := i*p + j
			sends, recvs := haloSchedule(n, p, i, j, dims)
			comp := 0.0
			if flopsAt != nil {
				comp = float64(flopsAt(i, j)) * cost.FlopTime
			}
			R := len(recvs)
			best := finish[me] + float64(len(sends))*cost.SendOverhead + float64(R)*cost.RecvOverhead
			for k, r := range recvs {
				src := r.srcI*p + r.srcJ
				ord := sendOrdinal(n, p, dims, r.srcI, r.srcJ, i, j)
				cand := finish[src] + float64(ord)*cost.SendOverhead +
					cost.LinkMessageTime(nodeOf(r.srcI, r.srcJ, p, nodes), nodeOf(i, j, p, nodes), r.words*wordBytes) +
					float64(R-k)*cost.RecvOverhead
				if cand > best {
					best = cand
				}
			}
			next[me] = best + comp
		}
	}
}

// jacobiInterior returns processor (i, j)'s count of interior points (the
// 5-flop Jacobi updates it performs per iteration).
func jacobiInterior(n, p, i, j int) int {
	rows := overlap(blockLower(i, n, p), blockLower(i, n, p)+blockSize(i, n, p)-1, 1, n-2)
	cols := overlap(blockLower(j, n, p), blockLower(j, n, p)+blockSize(j, n, p)-1, 1, n-2)
	return rows * cols
}

func overlap(lo, hi, a, b int) int {
	if lo < a {
		lo = a
	}
	if hi > b {
		hi = b
	}
	if hi < lo {
		return 0
	}
	return hi - lo + 1
}

// JacobiFederatedTime predicts the virtual time of the KF1 Jacobi
// program's iteration loop — iters iterations, n x n points, p x p grid —
// on a machine federated into `nodes` consecutive-rank nodes, by iterating
// the halo schedule's exact finish-time recurrence. With a flat cost model
// (or nodes == 1) it predicts the shared machine; with a hierarchical
// model every ghost message is priced by the link it crosses. The
// prediction matches the simulator's Elapsed to floating-point noise,
// including start-up transients and steady-state processor offsets.
func JacobiFederatedTime(cost machine.CostModel, n, p, iters, nodes int) float64 {
	checkNodes(p, nodes)
	finish := make([]float64, p*p)
	next := make([]float64, p*p)
	flops := func(i, j int) int { return 5 * jacobiInterior(n, p, i, j) }
	for k := 0; k < iters; k++ {
		jacobiStep(cost, n, p, nodes, []int{0, 1}, flops, finish, next)
		finish, next = next, finish
	}
	worst := 0.0
	for _, f := range finish {
		if f > worst {
			worst = f
		}
	}
	return worst
}

// JacobiFederatedSurcharge predicts how much longer the iters-iteration
// Jacobi loop runs on the federation than on the shared machine under the
// same hierarchical cost model: the inter-node ghost messages on the
// critical path pay their link price instead of the flat one. Zero when
// the model has no InterNode table or the federation has one node.
func JacobiFederatedSurcharge(cost machine.CostModel, n, p, iters, nodes int) float64 {
	flat := cost
	flat.InterNode = nil
	return JacobiFederatedTime(cost, n, p, iters, nodes) - JacobiFederatedTime(flat, n, p, iters, 1)
}

// reduceChainCross counts the inter-node hops on the critical chain of a
// binomial reduction (or its mirror broadcast) over the row-major grid of
// size pp split into `nodes` consecutive nodes: the chain from the root
// through its largest-stride child down to a leaf, one hop per power-of-two
// stride.
func reduceChainCross(pp, nodes int) int {
	// The critical chain's hops are (0, s_max), (s_max, s_max + s_max/2),
	// ... — each node's own largest-stride child — down to a leaf.
	perNode := pp / nodes
	cross := 0
	base := 0
	for s := largestPow2Below(pp); s >= 1; s /= 2 {
		child := base + s
		if child < pp {
			if base/perNode != child/perNode {
				cross++
			}
			base = child
		}
	}
	return cross
}

func largestPow2Below(n int) int {
	s := 1
	for s*2 < n {
		s *= 2
	}
	return s
}

// AllReduceFederatedSurcharge predicts the extra virtual time one
// AllReduce over all pp processors pays on the federation: every
// inter-node hop on the reduce chain and the broadcast chain carries one
// scalar at the link price instead of the flat one.
func AllReduceFederatedSurcharge(cost machine.CostModel, pp, nodes int) float64 {
	if nodes <= 0 || pp%nodes != 0 {
		panic("perfest: federation node count must be positive and divide the processor count")
	}
	if nodes == 1 || cost.InterNode == nil {
		return 0
	}
	return 2 * float64(reduceChainCross(pp, nodes)) * cost.InterNodeExtra(wordBytes)
}

// triChainCross counts the inter-node hops on one system's up (reduction)
// and down (substitution) chains of the substructured tridiagonal solver
// under the shuffle mapping, maximized over the solver grid's members.
// The solver grid is one line-slice of the p x p grid along dim (its
// members' ranks step by p for dim 1 — a grid column — and by 1 for dim 0),
// federated into `nodes` consecutive-rank nodes.
func triChainCross(p, nodes, dim, fixed int) int {
	perNode := p * p / nodes
	memberNode := func(m int) int {
		if dim == 1 { // grid column: member m is grid position (m, fixed)
			return (m*p + fixed) / perNode
		}
		return (fixed*p + m) / perNode // grid row
	}
	k := 0
	for v := p; v > 1; v >>= 1 {
		k++
	}
	holder := func(s, blk int) int {
		switch {
		case s == 0:
			return blk
		case s == k:
			return 0
		default:
			return 1<<(k-s) - 1 + blk
		}
	}
	worst := 0
	for me := 0; me < p; me++ {
		cross := 0
		for s := 1; s <= k; s++ {
			a := holder(s-1, me>>(s-1))
			b := holder(s, me>>s)
			if memberNode(a) != memberNode(b) {
				cross++
			}
		}
		if cross > worst {
			worst = cross
		}
	}
	return worst
}

// ADIFederatedSurcharge predicts the per-iteration virtual-time surcharge
// of the pipelined ADI iteration (the paper's madi, Listing 8) on a
// federation of `nodes` consecutive-rank nodes of the p x p grid, n x n
// unknowns. Per iteration the critical path crosses the interconnect in
// four places, each charged its link price instead of the flat one:
//
//   - the two stencil-sweep halo exchanges and the residual exchange
//     (replayed exactly like Jacobi's, per exchanged dimension);
//   - the pipelined line solves perpendicular to each swept dimension,
//     whose reduction/substitution chains hop across nodes (9-word rows
//     up, 2-word pairs down, one chain per pipelined system);
//   - the residual's max-reduction over all processors (scalar binomial
//     tree up and down).
//
// The pipeline overlaps systems, so the solve term is a critical-path
// estimate, not an exact replay; S3 validates the total to a tolerance.
func ADIFederatedSurcharge(cost machine.CostModel, n, p, nodes int) float64 {
	checkNodes(p, nodes)
	if nodes == 1 || cost.InterNode == nil {
		return 0
	}
	flat := cost
	flat.InterNode = nil
	haloDelta := func(dims []int) float64 {
		return haloIterTime(cost, n, p, nodes, dims, nil) - haloIterTime(flat, n, p, nodes, dims, nil)
	}
	extraUp := cost.InterNodeExtra(9 * wordBytes)
	extraDown := cost.InterNodeExtra(2 * wordBytes)
	// The pipeline charges one chain's crossings: successive systems'
	// inter-node hops overlap with other tree levels' work (system j is
	// at level s while system j+1 is at s-1), so only the critical
	// chain's crossings — the drain of the last system — survive on the
	// critical path.
	solveDelta := func(dim int) float64 {
		worstCross := 0
		for fixed := 0; fixed < p; fixed++ {
			if c := triChainCross(p, nodes, dim, fixed); c > worstCross {
				worstCross = c
			}
		}
		return float64(worstCross) * (extraUp + extraDown)
	}
	return haloDelta([]int{1}) + // sweep 1 rhs: y-stencil of u
		solveDelta(1) + // x-direction solves along grid columns
		haloDelta([]int{0}) + // sweep 2 rhs: x-stencil of u*
		solveDelta(0) + // y-direction solves along grid rows
		haloDelta([]int{0, 1}) + // residual stencil
		AllReduceFederatedSurcharge(cost, p*p, nodes) // residual max-reduce
}
