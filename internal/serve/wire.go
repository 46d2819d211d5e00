package serve

import (
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/progs"
)

// The HTTP/JSON request and response shapes. A RunRequest is a core.Spec
// written flat (spec() reads it back into one) plus the registry identity
// of the program to run on it ((name, args), the same pair the ipc
// execution plane ships to its workers) — nothing here requires shipping
// code, which is what makes the server multi-tenant-safe: clients select
// from registered programs, they do not define them.

// LinkSpec is one directed inter-node link price override.
type LinkSpec = core.LinkSpec

// RunRequest asks the server to run one registered program on one System
// configuration.
type RunRequest struct {
	// Program is the registry name (see /v1/programs); Args its schema-
	// validated argument list.
	Program string    `json:"program"`
	Args    []float64 `json:"args,omitempty"`

	// Grid is the processor array shape, e.g. [8, 8]. Required.
	Grid []int `json:"grid"`
	// Transport is a registry name and Nodes the federation node count
	// (federating transports only); left empty or zero, each takes
	// core.Spec's default.
	Transport string `json:"transport,omitempty"`
	Nodes     int    `json:"nodes,omitempty"`
	// LinkLatency/LinkByte price the node interconnect (core.LinkCosts);
	// both zero means unpriced. Links carries per-directed-link overrides.
	LinkLatency float64    `json:"link_latency,omitempty"`
	LinkByte    float64    `json:"link_byte,omitempty"`
	Links       []LinkSpec `json:"links,omitempty"`

	// Verify makes the server run the program twice on the checked-out
	// System and fail the request unless the two runs are bit-identical
	// (core.CompareRuns) — the pool's Reset-reuse contract, checked per
	// request.
	Verify bool `json:"verify,omitempty"`
	// TimeoutMs bounds the time the request may wait for an execution
	// slot; 0 uses the server default. Runs are never cancelled once
	// started.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// spec reads the request's System declaration into the core.Spec it is the
// flat spelling of.
func (req *RunRequest) spec() core.Spec {
	s := core.Spec{Grid: req.Grid, Transport: req.Transport, Nodes: req.Nodes}
	if req.LinkLatency != 0 || req.LinkByte != 0 || len(req.Links) > 0 {
		s.Interconnect = &core.Interconnect{Latency: req.LinkLatency, Byte: req.LinkByte, Links: req.Links}
	}
	return s
}

// RunResponse reports one completed run.
type RunResponse struct {
	// Program is the resolved program name (e.g. "jacobi-n8-x4"), Key the
	// pool key the System was filed under.
	Program string `json:"program"`
	Key     string `json:"key"`

	// Values, Elapsed, MachineElapsed, Stats and Links mirror core.Run.
	Values         []float64        `json:"values,omitempty"`
	Elapsed        float64          `json:"elapsed"`
	MachineElapsed float64          `json:"machine_elapsed"`
	Stats          machine.Stats    `json:"stats"`
	Links          *core.LinkCensus `json:"links,omitempty"`

	// PoolHit reports whether the run reused a warmed System; Warmed is
	// that System's completed-run count after this request.
	PoolHit bool  `json:"pool_hit"`
	Warmed  int64 `json:"warmed"`

	// QueueNs and RunNs are host-side durations: time spent waiting for
	// an execution slot and time spent running.
	QueueNs int64 `json:"queue_ns"`
	RunNs   int64 `json:"run_ns"`

	// Verify carries the bit-identity verdict when the request asked for
	// it.
	Verify *VerifyResult `json:"verify,omitempty"`
}

// VerifyResult is the bit-identity verdict of running the program twice on
// the same checked-out System.
type VerifyResult struct {
	Identical       bool `json:"identical"`
	ValuesIdentical bool `json:"values_identical"`
	CensusIdentical bool `json:"census_identical"`
	TimesIdentical  bool `json:"times_identical"`
}

// ProgramInfo is one /v1/programs entry: a registered program and its
// argument schema.
type ProgramInfo struct {
	Name string          `json:"name"`
	Args []progs.ArgSpec `json:"args"`
}

// ListResponse is the /v1/programs and /v1/transports payload; only the
// field matching the endpoint is populated.
type ListResponse struct {
	Programs   []ProgramInfo `json:"programs,omitempty"`
	Transports []string      `json:"transports,omitempty"`
}
