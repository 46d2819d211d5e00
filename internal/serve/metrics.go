package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
)

// Minimal Prometheus text-format metrics — counters and fixed-bucket
// histograms, hand-rolled because the container bakes in no client
// library and the exposition format is three lines of convention:
// cumulative buckets keyed by `le`, a _sum and a _count per histogram,
// and one sample per line.

// histogram is a fixed-bucket latency histogram (seconds).
type histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending; an implicit +Inf follows
	counts []int64   // len(bounds)+1
	sum    float64
	n      int64
}

func newHistogram(bounds ...float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// write renders the histogram in exposition format under name.
func (h *histogram) write(b *strings.Builder, name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatBound(bound), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(b, "%s_count %d\n", name, h.n)
}

func formatBound(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%g", v)
}

// runKey labels a completed request for the runs counter.
type runKey struct{ program, outcome string }

// Metrics accumulates the server's own counters; the pool and scheduler
// gauges are sampled live at render time (see Server.writeMetrics).
type Metrics struct {
	mu   sync.Mutex
	runs map[runKey]int64

	// runSeconds measures host-side run latency (checkout through
	// return); queueSeconds the admission wait.
	runSeconds   *histogram
	queueSeconds *histogram

	// The ipc execution plane's own counters, summed over every run whose
	// ranks executed inside worker processes (core.Run.Exec).
	ipcStallReports, ipcProbeRounds, ipcPeerFrames, ipcWorkerCPUMicros atomic.Int64
}

// countExec folds one run's execution-plane counters in; st is nil for
// runs that stayed in this process.
func (m *Metrics) countExec(st *machine.ExecStats) {
	if st == nil {
		return
	}
	m.ipcStallReports.Add(st.StallReports)
	m.ipcProbeRounds.Add(st.ProbeRounds)
	for _, n := range st.Nodes {
		m.ipcPeerFrames.Add(n.PeerFrames)
		m.ipcWorkerCPUMicros.Add(n.CPUMicros)
	}
}

// writeExec renders the execution-plane counters.
func (m *Metrics) writeExec(b *strings.Builder) {
	fmt.Fprintf(b, "# TYPE kfserve_ipc_stall_reports_total counter\nkfserve_ipc_stall_reports_total %d\n", m.ipcStallReports.Load())
	fmt.Fprintf(b, "# TYPE kfserve_ipc_probe_rounds_total counter\nkfserve_ipc_probe_rounds_total %d\n", m.ipcProbeRounds.Load())
	fmt.Fprintf(b, "# TYPE kfserve_ipc_peer_frames_total counter\nkfserve_ipc_peer_frames_total %d\n", m.ipcPeerFrames.Load())
	fmt.Fprintf(b, "# TYPE kfserve_ipc_worker_cpu_seconds_total counter\nkfserve_ipc_worker_cpu_seconds_total %.6f\n", float64(m.ipcWorkerCPUMicros.Load())/1e6)
}

func newMetrics() *Metrics {
	// Small simulated runs land in the sub-millisecond decades; cold ipc
	// constructions in the hundreds of milliseconds.
	buckets := []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	return &Metrics{
		runs:         map[runKey]int64{},
		runSeconds:   newHistogram(buckets...),
		queueSeconds: newHistogram(buckets...),
	}
}

// countRun records one finished request for program with the given
// outcome ("ok", "bad_request", "run_failed", ...).
func (m *Metrics) countRun(program, outcome string) {
	m.mu.Lock()
	m.runs[runKey{program, outcome}]++
	m.mu.Unlock()
}

// writeRuns renders the per-program outcome counters in sorted order.
func (m *Metrics) writeRuns(b *strings.Builder) {
	m.mu.Lock()
	keys := make([]runKey, 0, len(m.runs))
	for k := range m.runs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].program != keys[j].program {
			return keys[i].program < keys[j].program
		}
		return keys[i].outcome < keys[j].outcome
	})
	fmt.Fprintf(b, "# TYPE kfserve_runs_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(b, "kfserve_runs_total{program=%q,outcome=%q} %d\n", k.program, k.outcome, m.runs[k])
	}
	m.mu.Unlock()
}
