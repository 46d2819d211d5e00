package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// metricValue is one reported number. N is the sample count behind it and
// Note whatever a reader needs beside it (a ratio's base, a frame size,
// which percentile a tail is).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

type metrics map[string]metricValue

// units maps every declared metric name to its unit.
var units = func() map[string]string {
	u := make(map[string]string)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			u[d.Name] = d.Unit
		}
	}
	return u
}()

func (m metrics) set(name string, v float64, n int) { m.setNote(name, v, n, "") }

func (m metrics) setNote(name string, v float64, n int, note string) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in spec.go")
	}
	m[name] = metricValue{Value: v, Unit: unit, N: n, Note: note}
}

// envInfo records what the numbers were taken under.
type envInfo struct {
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// result is one workload's report.
type result struct {
	Workload  string  `json:"workload"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	Env       envInfo `json:"env"`
	// Budget is where the traced pass's op time went: each span name's
	// self time per op.
	Budget []budgetRow `json:"trace_budget,omitempty"`
	Errors []string    `json:"errors,omitempty"`
}

// budgetRow is one span name's self time — its spans' durations minus what
// their children cover — per traced op, and as a share of the op.
type budgetRow struct {
	Span        string  `json:"span"`
	SelfMsPerOp float64 `json:"self_ms_per_op"`
	Share       float64 `json:"share"`
}

// traceBudget turns a traced pass's spans into budget rows, largest first.
func traceBudget(spans []span) []budgetRow {
	self := selfTimes(spans)
	var ops int
	var total time.Duration
	for _, s := range spans {
		if s.Parent == -1 {
			ops++
			total += s.End - s.Start
		}
	}
	if ops == 0 || total == 0 {
		return nil
	}
	rows := make([]budgetRow, 0, len(self))
	for name, d := range self {
		rows = append(rows, budgetRow{name, ms(d) / float64(ops), float64(d) / float64(total)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMsPerOp != rows[j].SelfMsPerOp {
			return rows[i].SelfMsPerOp > rows[j].SelfMsPerOp
		}
		return rows[i].Span < rows[j].Span
	})
	return rows
}

// Which metric sets a run measures and reports.
const (
	traceOff  = 0 // end-to-end metrics only: set-up and the timed pass
	traceOn   = 1 // per-layer metrics: adds the traced pass and the ladder
	traceBoth = 2 // everything, as the suite prints it
)

type runOptions struct {
	seed        int64
	seconds     float64
	trace       int
	traceOut    string
	setupCycles int
}

// setupCycles is how many instances of the workload one run sets up, times
// and tears down. Each carries an equal slice of the timed pass: a fleet of
// worker processes, once spawned, keeps a speed of its own (two fleets of
// the same binary differ by up to 8% on ipc_adi_chain for as long as they
// live), so one instance per run would turn that draw into run-to-run
// noise. setup_s is the median cycle and op_ms_p50 the median instance's
// median op.
const setupCycles = 5

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// passStats is what one closed-loop pass over an instance observed.
type passStats struct {
	elapsed    time.Duration
	wall       []float64 // ms per successful op
	attempted  int
	failed     int
	mismatches int
	errs       []string

	msgs, bytes, linkMsgs, linkBytes int64
	simElapsed                       map[int]float64 // per distinct (program, System)
	reqs                             []reqSample
	pool                             serve.PoolStats // counter deltas over the pass; serve workloads only

	// Filled by timedSlice: the resource readings around a slice of the
	// timed pass, and each slice's (each instance's) median op.
	medians               []float64
	cpu                   cpuTimes
	heapAllocs, heapBytes uint64  // this process's heap only
	peakRSSMB             float64 // VmHWM over the slices
	rssNote               string
}

// runPass drives inst closed-loop from this one goroutine for dur.
func runPass(inst instance, dur time.Duration, rec *recorder) passStats {
	ps := passStats{simElapsed: make(map[int]float64)}
	srv, _ := inst.(*serveInstance)
	if srv != nil {
		ps.pool = srv.srv.Pool().Stats()
	}
	start := time.Now()
	for id := 0; id == 0 || time.Since(start) < dur; id++ {
		r := inst.op(rec, id)
		ps.attempted++
		if r.err != nil {
			ps.failed++
			if r.mismatch {
				ps.mismatches++
			}
			if len(ps.errs) < 5 {
				ps.errs = append(ps.errs, fmt.Sprintf("op %d: %v", id, r.err))
			}
			continue
		}
		ps.wall = append(ps.wall, ms(r.wall))
		ps.reqs = append(ps.reqs, r.reqs...)
		for _, tr := range r.runs {
			ps.msgs += tr.run.Stats.MsgsSent
			ps.bytes += tr.run.Stats.BytesSent
			lm, lb := tr.run.Links.Total()
			ps.linkMsgs += lm
			ps.linkBytes += lb
			ps.simElapsed[tr.config] = tr.run.Elapsed
		}
	}
	ps.elapsed = time.Since(start)
	if srv != nil {
		after := srv.srv.Pool().Stats()
		ps.pool = serve.PoolStats{
			Hits: after.Hits - ps.pool.Hits, Misses: after.Misses - ps.pool.Misses,
			Evictions: after.Evictions - ps.pool.Evictions, Discards: after.Discards - ps.pool.Discards,
		}
	}
	return ps
}

// merge folds another slice of the same pass into ps.
func (ps *passStats) merge(o passStats) {
	ps.elapsed += o.elapsed
	ps.wall = append(ps.wall, o.wall...)
	ps.attempted += o.attempted
	ps.failed += o.failed
	ps.mismatches += o.mismatches
	ps.errs = append(ps.errs, o.errs...)
	ps.msgs += o.msgs
	ps.bytes += o.bytes
	ps.linkMsgs += o.linkMsgs
	ps.linkBytes += o.linkBytes
	for config, e := range o.simElapsed {
		ps.simElapsed[config] = e
	}
	ps.reqs = append(ps.reqs, o.reqs...)
	ps.pool.Hits += o.pool.Hits
	ps.pool.Misses += o.pool.Misses
	ps.pool.Evictions += o.pool.Evictions
	ps.pool.Discards += o.pool.Discards
	ps.medians = append(ps.medians, o.medians...)
	ps.cpu = ps.cpu.add(o.cpu)
	ps.heapAllocs += o.heapAllocs
	ps.heapBytes += o.heapBytes
	ps.peakRSSMB = max(ps.peakRSSMB, o.peakRSSMB)
	ps.rssNote = o.rssNote
}

// timedSlice runs one instance's slice of the timed pass, tracing off, with
// the resource readings around it.
func timedSlice(inst instance, dur time.Duration) (passStats, error) {
	// Hand set-up's garbage back to the OS and restart the peak-RSS
	// watermark, so peak_rss_mb is the timed pass's own.
	debug.FreeOSMemory()
	rssNote := ""
	if err := resetPeakRSS(); err != nil {
		rssNote = "includes set-up: " + err.Error()
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0, err := cpuSnapshot()
	if err != nil {
		return passStats{}, err
	}
	ps := runPass(inst, dur, nil)
	cpu1, err := cpuSnapshot()
	if err != nil {
		return ps, err
	}
	runtime.ReadMemStats(&mem1)
	if ps.peakRSSMB, err = peakRSSMB(); err != nil {
		return ps, err
	}
	if len(ps.wall) > 0 {
		ps.medians = []float64{median(ps.wall)}
	}
	ps.cpu = cpu1.sub(cpu0)
	ps.heapAllocs = mem1.Mallocs - mem0.Mallocs
	ps.heapBytes = mem1.TotalAlloc - mem0.TotalAlloc
	ps.rssNote = rssNote
	return ps, nil
}

// runWorkload performs the whole shape of a run for one workload:
// opts.setupCycles times over, set-up, a slice of the timed pass with
// tracing off and the resource readings around it, teardown; then — when
// opts.trace asks for per-layer metrics — the traced pass and the
// workload's ladder rows on the last instance, before its teardown.
func runWorkload(w workload, opts runOptions) (result, error) {
	res := result{
		Workload: w.Name,
		Metrics:  metrics{},
		Env: envInfo{
			NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Seed: opts.seed, Seconds: opts.seconds,
		},
	}
	m := res.Metrics
	fail := func(format string, args ...any) {
		res.Errors = append(res.Errors, fmt.Sprintf(format, args...))
	}
	checkOrphans := func(when string) {
		if pids, err := orphans(); err != nil {
			fail("orphan check %s: %v", when, err)
		} else if len(pids) > 0 {
			fail("worker processes still alive %s: %v", when, pids)
		}
	}

	dur := time.Duration(opts.seconds * float64(time.Second))
	var inst instance
	defer func() {
		if inst != nil {
			inst.teardown()
		}
	}()
	timed := passStats{simElapsed: make(map[int]float64)}
	var setups []float64
	for i := 0; i < opts.setupCycles; i++ {
		if inst != nil {
			err := inst.teardown()
			inst = nil
			if err != nil {
				return res, fmt.Errorf("teardown of instance %d: %w", i, err)
			}
			checkOrphans(fmt.Sprintf("after instance %d", i))
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(opts.seed); err != nil {
			return res, fmt.Errorf("set-up cycle %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		slice, err := timedSlice(inst, dur/time.Duration(opts.setupCycles))
		if err != nil {
			return res, err
		}
		timed.merge(slice)
	}
	ops := len(timed.wall)
	if ops == 0 {
		return res, fmt.Errorf("no op succeeded in the timed pass: %v", timed.errs)
	}
	p50 := median(timed.medians)
	m.set("op_ms_p50", p50, ops)
	m.set("ops_per_s", float64(ops)/timed.elapsed.Seconds(), ops)
	m.set("cpu_ms_per_op", ms(timed.cpu.total())/float64(ops), ops)
	m.setNote("peak_rss_mb", timed.peakRSSMB, len(setups), timed.rssNote)
	m.set("setup_s", median(setups), len(setups))

	traced := passStats{}
	if opts.trace != traceOff {
		rec := newRecorder()
		traced = runPass(inst, min(3*time.Second, dur/2), rec)
		res.Budget = traceBudget(rec.spans)
		if err := layerMetrics(m, w, inst, timed, traced, rec.spans); err != nil {
			return res, err
		}
		if opts.traceOut != "" {
			if err := os.MkdirAll(opts.traceOut, 0o755); err != nil {
				return res, err
			}
			if err := writeSpans(filepath.Join(opts.traceOut, w.Name+".spans.json"), rec.spans); err != nil {
				return res, err
			}
		}
	}

	if err := inst.teardown(); err != nil {
		fail("teardown: %v", err)
	}
	inst = nil
	checkOrphans("after teardown")

	res.Attempted = timed.attempted + traced.attempted
	res.Failed = timed.failed + traced.failed
	for _, e := range append(timed.errs, traced.errs...) {
		fail("%s", e)
	}
	if opts.trace != traceOff {
		m.set("fail_share", float64(res.Failed)/float64(res.Attempted), res.Attempted)
		m.set("core.identity_mismatches", float64(timed.mismatches+traced.mismatches), res.Attempted)
		// Every declared per-layer metric is reported on every workload;
		// one this workload's traced pass does not measure reads 0.
		for _, d := range perLayer {
			_, have := m[d.Name]
			switch {
			case have != d.measuredOn(w.Name):
				return res, fmt.Errorf("bench: %s measured=%v on %s, spec.go says %v", d.Name, have, w.Name, !have)
			case !have:
				m.setNote(d.Name, 0, 0, "not measured on this workload")
			}
		}
	}
	res.Correct = len(res.Errors) == 0
	return res, nil
}

// layerMetrics fills in the per-layer rows: the ones that are a different
// reading of the timed pass's samples and counters, the traced pass's, and
// the ladder rows this workload's traced pass carries.
func layerMetrics(m metrics, w workload, inst instance, timed, traced passStats, spans []span) error {
	ops := len(timed.wall)
	fops := float64(ops)
	p50 := median(timed.medians)
	// Summed in config order: a map's order would reorder the float
	// additions and break the bit-equality -aa checks.
	var simElapsed float64
	for config := 0; config < len(timed.simElapsed); config++ {
		simElapsed += timed.simElapsed[config]
	}
	msgsPerOp := float64(timed.msgs) / fops
	m.set("sim_elapsed_us", simElapsed*1e6, len(timed.simElapsed))
	m.set("sim_msgs_per_op", msgsPerOp, ops)
	m.set("core.sim_bytes_per_op", float64(timed.bytes)/fops, ops)
	m.set("core.link_msgs_per_op", float64(timed.linkMsgs)/fops, ops)
	m.set("core.link_bytes_per_op", float64(timed.linkBytes)/fops, ops)
	m.set("core.host_us_per_sim_msg", p50*1e3/msgsPerOp, ops)
	// The coordinator process's heap only: a worker's allocations show up
	// in cpu_ms_per_op, not here.
	m.set("core.allocs_per_op", float64(timed.heapAllocs)/fops, ops)
	m.set("core.alloc_kb_per_op", float64(timed.heapBytes)/1024/fops, ops)
	tail := tailPercentile(ops)
	m.setNote("core.op_ms_tail", percentile(timed.wall, tail), ops, fmt.Sprintf("p%g", tail))
	m.set("core.op_tail_pct", tail, ops)
	m.set("core.op_ms_max", percentile(timed.wall, 100), ops)
	m.set("core.sys_cpu_share", float64(timed.cpu.sys)/float64(timed.cpu.total()), ops)

	// The traced median is compared with the timed median of the instance
	// it ran on (the last), not with the run's: instances differ.
	if lastP50 := timed.medians[len(timed.medians)-1]; len(traced.wall) > 0 {
		m.set("trace.overhead_share", (median(traced.wall)-lastP50)/lastP50, len(traced.wall))
	} else {
		m.set("trace.overhead_share", 0, 0)
	}
	m.set("trace.span_cover", median(spanCover(spans)), len(traced.wall))

	build, n := timeLoop(func() { w.prog.build() })
	m.set("progs.build_us", build/1e3, n)

	// An empty run on the workload's own kind of System: rank start and
	// finish, and on ipc the spec broadcast, worker build, result gather
	// and fence — everything a run costs before the program does anything.
	hostpid, err := core.BuildProgram("hostpid")
	if err != nil {
		return err
	}
	empty, err := sampleRuns(w.primary, hostpid, 300*time.Millisecond)
	if err != nil {
		return fmt.Errorf("core.empty_run_ms: %w", err)
	}
	m.set("core.empty_run_ms", median(empty), len(empty))

	if w.twin != nil {
		p, err := w.prog.build()
		if err != nil {
			return err
		}
		twin, err := sampleRuns(w.twin, p, time.Second)
		if err != nil {
			return fmt.Errorf("core.inproc_twin_ms_p50: %w", err)
		}
		t50 := median(twin)
		m.set("core.inproc_twin_ms_p50", t50, len(twin))
		m.setNote("core.ipc_over_inproc", p50/t50, len(twin), fmt.Sprintf("base core.inproc_twin_ms_p50 = %.3f ms", t50))
	}

	switch w.Name {
	case wInprocJacobi:
		return machineLadder(m)
	case wIPCBulk:
		if err := wireLadder(m); err != nil {
			return err
		}
		return ipcLadder(m)
	case wServeWarm:
		serveMetrics(m, inst.(*serveInstance), timed)
		return serveLadder(m, inst.(*serveInstance))
	case wServeCold:
		serveMetrics(m, inst.(*serveInstance), timed)
		return constructLadder(m, w.primary, w.prog, 4)
	}
	return nil
}

// serveMetrics derives the serve rows from the timed pass: per-request
// samples on the client's clock with the server's own report of its queue
// and run time inside them, and the pool's counter deltas.
func serveMetrics(m metrics, s *serveInstance, timed passStats) {
	var client, queue, run, overhead, kb []float64
	byTenant := map[string][]float64{}
	for _, r := range timed.reqs {
		client = append(client, ms(r.client))
		queue = append(queue, ms(r.queue))
		run = append(run, ms(r.run))
		overhead = append(overhead, ms(r.client-r.queue-r.run))
		kb = append(kb, float64(r.bytes)/1024)
		byTenant[s.tenantMetric[r.tenant]] = append(byTenant[s.tenantMetric[r.tenant]], ms(r.client))
	}
	n := len(timed.reqs)
	tail := tailPercentile(n)
	m.setNote("serve.request_ms_tail", percentile(client, tail), n, fmt.Sprintf("p%g", tail))
	m.set("serve.queue_ms_p50", median(queue), n)
	m.set("serve.run_ms_p50", median(run), n)
	m.set("serve.overhead_ms_p50", median(overhead), n)
	m.set("serve.response_kb", median(kb), n)
	for name, samples := range byTenant {
		m.set(name, median(samples), len(samples))
	}
	ops := float64(len(timed.wall))
	checkouts := timed.pool.Hits + timed.pool.Misses
	m.set("serve.pool_hit_share", float64(timed.pool.Hits)/float64(checkouts), int(checkouts))
	m.set("serve.pool_evictions_per_op", float64(timed.pool.Evictions)/ops, len(timed.wall))
	m.set("serve.pool_discards", float64(timed.pool.Discards), int(checkouts))
}
