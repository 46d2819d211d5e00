package main

// This file is the benchmark's vocabulary: the workload names, the metric
// names, their units, directions and regression bounds. BENCHMARK.json at
// the repository root carries the same tables for the driver; a test holds
// the two equal.

// metricDef declares one metric. Bound is the share of the parent's median
// an end-to-end metric may worsen by before a change counts as a
// regression; per-layer metrics have none. Where names the workloads whose
// traced pass measures a per-layer metric (empty: every workload); on the
// others it reads 0, meaning "not measured here".
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Where  []string
}

// The workload names later issues make their claims in.
const (
	wInprocJacobi = "inproc_jacobi_1024"
	wIPCBulk      = "ipc_jacobi_bulk"
	wIPCChain     = "ipc_adi_chain"
	wScale16k     = "scale16k_calendar"
	wServeWarm    = "serve_warm_mix"
	wServeCold    = "serve_cold_churn"
)

var (
	onIPC   = []string{wIPCBulk, wIPCChain}
	onServe = []string{wServeWarm, wServeCold}
)

// endToEnd is what a user of the simulator sees; every workload reports
// all of them from the untraced timed pass. The bounds were fixed from the
// spread of two sets of ten seeded runs per workload (see README "Bounds");
// host time on this box supports nothing tighter than the driver's cap.
var endToEnd = []metricDef{
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is one row per layer quantity, named after the module it is
// read from. The three exact quantities (virtual time, message census,
// failure share) live here rather than in endToEnd because the driver's
// end-to-end metrics must be non-zero and must vary from run to run, and
// these are exactly zero or bit-equal by design; -aa checks them for
// equality.
var perLayer = []metricDef{
	{Name: "sim_elapsed_us", Unit: "sim_us", Better: "lower"},
	{Name: "sim_msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "fail_share", Unit: "ratio", Better: "lower"},

	{Name: "wire.encode_ns_small", Unit: "ns", Better: "lower", Where: []string{wIPCBulk}},
	{Name: "wire.decode_ns_small", Unit: "ns", Better: "lower", Where: []string{wIPCBulk}},
	{Name: "wire.encode_ns_bulk", Unit: "ns", Better: "lower", Where: []string{wIPCBulk}},
	{Name: "wire.decode_ns_bulk", Unit: "ns", Better: "lower", Where: []string{wIPCBulk}},
	{Name: "wire.codec_gb_s_bulk", Unit: "GB/s", Better: "higher", Where: []string{wIPCBulk}},
	{Name: "wire.allocs_per_frame", Unit: "count", Better: "lower", Where: []string{wIPCBulk}},
	{Name: "floor.memcpy_gb_s", Unit: "GB/s", Better: "higher", Where: []string{wIPCBulk}},
	{Name: "floor.uds_rtt_us", Unit: "us", Better: "lower", Where: []string{wIPCBulk}},
	{Name: "floor.tcp_rtt_us", Unit: "us", Better: "lower", Where: []string{wIPCBulk}},
	{Name: "floor.fork_exec_ms", Unit: "ms", Better: "lower", Where: []string{wServeCold}},

	{Name: "machine.shared_rtt_ns", Unit: "ns", Better: "lower", Where: []string{wInprocJacobi}},
	{Name: "machine.federated_rtt_ns", Unit: "ns", Better: "lower", Where: []string{wInprocJacobi}},
	{Name: "machine.calendar_rtt_ns", Unit: "ns", Better: "lower", Where: []string{wInprocJacobi}},
	{Name: "machine.rtt_allocs", Unit: "count", Better: "lower", Where: []string{wInprocJacobi}},
	{Name: "machine.ipc_relay_rtt_us", Unit: "us", Better: "lower", Where: []string{wIPCBulk}},
	{Name: "machine.ipc_relay_over_uds", Unit: "ratio", Better: "lower", Where: []string{wIPCBulk}},
	{Name: "darray.halo_exchange_us", Unit: "us", Better: "lower", Where: []string{wInprocJacobi}},
	{Name: "kf.jacobi_iter_us_4p", Unit: "us", Better: "lower", Where: []string{wInprocJacobi}},

	{Name: "core.empty_run_ms", Unit: "ms", Better: "lower"},
	{Name: "core.inproc_twin_ms_p50", Unit: "ms", Better: "lower", Where: onIPC},
	{Name: "core.ipc_over_inproc", Unit: "ratio", Better: "lower", Where: onIPC},
	{Name: "core.link_msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.link_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "core.sim_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "core.host_us_per_sim_msg", Unit: "us", Better: "lower"},
	{Name: "core.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "core.construct_ms", Unit: "ms", Better: "lower", Where: []string{wServeCold}},
	{Name: "core.close_ms", Unit: "ms", Better: "lower", Where: []string{wServeCold}},
	{Name: "core.construct_over_fork", Unit: "ratio", Better: "lower", Where: []string{wServeCold}},
	{Name: "core.op_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "core.op_tail_pct", Unit: "pct", Better: "higher"},
	{Name: "core.op_ms_max", Unit: "ms", Better: "lower"},
	{Name: "core.sys_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "core.identity_mismatches", Unit: "count", Better: "lower"},
	{Name: "progs.build_us", Unit: "us", Better: "lower"},

	{Name: "serve.request_ms_tail", Unit: "ms", Better: "lower", Where: onServe},
	{Name: "serve.tenant_ipc_ms_p50", Unit: "ms", Better: "lower", Where: onServe},
	{Name: "serve.tenant_shared_ms_p50", Unit: "ms", Better: "lower", Where: []string{wServeWarm}},
	{Name: "serve.tenant_small_ms_p50", Unit: "ms", Better: "lower", Where: []string{wServeWarm}},
	{Name: "serve.queue_ms_p50", Unit: "ms", Better: "lower", Where: onServe},
	{Name: "serve.run_ms_p50", Unit: "ms", Better: "lower", Where: onServe},
	{Name: "serve.overhead_ms_p50", Unit: "ms", Better: "lower", Where: onServe},
	{Name: "serve.response_kb", Unit: "KB", Better: "lower", Where: onServe},
	{Name: "serve.noop_request_us", Unit: "us", Better: "lower", Where: []string{wServeWarm}},
	{Name: "serve.noop_handler_us", Unit: "us", Better: "lower", Where: []string{wServeWarm}},
	{Name: "serve.pool_hit_us", Unit: "us", Better: "lower", Where: []string{wServeWarm}},
	{Name: "serve.sched_acquire_ns", Unit: "ns", Better: "lower", Where: []string{wServeWarm}},
	{Name: "serve.pool_hit_share", Unit: "ratio", Better: "higher", Where: onServe},
	{Name: "serve.pool_evictions_per_op", Unit: "count", Better: "lower", Where: onServe},
	{Name: "serve.pool_discards", Unit: "count", Better: "lower", Where: onServe},

	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.span_cover", Unit: "ratio", Better: "higher"},
}

// exactMetrics are functions of the program alone — virtual time and the
// message censuses — and of the pool policy. Two runs of the same code
// must agree on them to the last bit.
var exactMetrics = []string{
	"sim_elapsed_us", "sim_msgs_per_op", "fail_share",
	"core.link_msgs_per_op", "core.link_bytes_per_op", "core.sim_bytes_per_op",
	"core.identity_mismatches", "wire.allocs_per_frame",
	"serve.pool_hit_share", "serve.pool_evictions_per_op", "serve.pool_discards",
}

// measuredOn reports whether workload's traced pass measures d.
func (d metricDef) measuredOn(workload string) bool {
	if len(d.Where) == 0 {
		return true
	}
	for _, w := range d.Where {
		if w == workload {
			return true
		}
	}
	return false
}
