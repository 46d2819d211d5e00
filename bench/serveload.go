package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// The serve workloads drive an in-process serve.Server behind a real
// loopback listener over one keep-alive connection — the request path a
// kfserve tenant feels.

// warmTenants is the kfbench -serve-bench tenant mix: distinct pool keys
// (grid and transport differ).
var warmTenants = []serve.RunRequest{
	{Program: "jacobi", Args: []float64{8, 1}, Grid: []int{8, 8}, Transport: "ipc", Nodes: 4},
	{Program: "jacobi", Args: []float64{8, 1}, Grid: []int{8, 8}},
	{Program: "jacobi", Args: []float64{8, 2}, Grid: []int{4, 4}},
}

// coldTenants are two pool keys that differ only in interconnect pricing,
// so on a one-slot pool each request evicts the other's System.
var coldTenants = []serve.RunRequest{
	{Program: "jacobi", Args: []float64{8, 1}, Grid: []int{8, 8}, Transport: "ipc", Nodes: 4, LinkLatency: 2, LinkByte: 2},
	{Program: "jacobi", Args: []float64{8, 1}, Grid: []int{8, 8}, Transport: "ipc", Nodes: 4, LinkLatency: 3, LinkByte: 3},
}

var ipcTenantOptions = []core.Option{core.Grid(8, 8), core.Transport("ipc"), core.Nodes(4)}

var serveWarm = workload{
	Name:    wServeWarm,
	Why:     "The kfserve request path on a warm pool: HTTP, JSON, validate, per-request BuildProgram, pool checkout and tiny runs; op is one round of the three -serve-bench tenants in seeded order.",
	primary: ipcTenantOptions,
	prog:    progSpec{"jacobi", []float64{8, 1}},
	setup: func(seed int64) (instance, error) {
		return setupServe(serve.Config{PoolSize: 8, MaxConcurrent: 1}, warmTenants,
			[]string{"serve.tenant_ipc_ms_p50", "serve.tenant_shared_ms_p50", "serve.tenant_small_ms_p50"}, true, seed)
	},
}

var serveCold = workload{
	Name:    wServeCold,
	Why:     "The same pool, core and ipc code as writes beside reads: every request misses a one-slot pool, spawns a 4-worker fleet, runs once and evicts the previous fleet; construction and teardown dominate.",
	primary: ipcTenantOptions,
	prog:    progSpec{"jacobi", []float64{8, 1}},
	setup: func(seed int64) (instance, error) {
		return setupServe(serve.Config{PoolSize: 1, MaxConcurrent: 1}, coldTenants,
			[]string{"serve.tenant_ipc_ms_p50", "serve.tenant_ipc_ms_p50"}, false, seed)
	},
}

// referenceOptions is the in-process System a tenant's runs must be
// bit-identical to: the request's own configuration with ipc replaced by
// federated (same nodes, same pricing).
func referenceOptions(req serve.RunRequest) []core.Option {
	opts := []core.Option{core.Grid(req.Grid...)}
	if req.Transport == "ipc" {
		opts = append(opts, core.Transport("federated"))
	}
	if req.Nodes > 0 {
		opts = append(opts, core.Nodes(req.Nodes))
	}
	if req.LinkLatency != 0 || req.LinkByte != 0 {
		opts = append(opts, core.LinkCosts(req.LinkLatency, req.LinkByte))
	}
	return opts
}

type serveInstance struct {
	tenants []serve.RunRequest
	// tenantMetric names the per-tenant latency metric each tenant's
	// requests are reported under.
	tenantMetric []string
	want         []core.Run
	// warm: an op is one round of every tenant in seeded order and every
	// request must hit the pool. Cold: an op is one request, tenants
	// alternating, and every request must miss.
	warm bool
	rng  *rand.Rand
	next int

	srv    *serve.Server
	http   *http.Server
	served chan error
	client *http.Client
	url    string
}

func setupServe(cfg serve.Config, tenants []serve.RunRequest, tenantMetric []string, warm bool, seed int64) (_ instance, err error) {
	s := &serveInstance{tenants: tenants, tenantMetric: tenantMetric, warm: warm, rng: rand.New(rand.NewSource(seed))}
	for _, req := range tenants {
		p, err := core.BuildProgram(req.Program, req.Args...)
		if err != nil {
			return nil, err
		}
		want, err := referenceRun(p, referenceOptions(req))
		if err != nil {
			return nil, err
		}
		s.want = append(s.want, want)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = serve.New(cfg)
	s.http = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.http.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
	s.url = "http://" + ln.Addr().String() + "/v1/run"
	defer func() {
		if err != nil {
			s.teardown()
		}
	}()

	// Warm until a whole round of every tenant adds no pool miss. A cold
	// pool never gets there; its warm rounds only put it in its steady
	// evict-one-build-one state.
	for round := 1; ; round++ {
		before := s.srv.Pool().Stats().Misses
		for t := range tenants {
			_, run, err := s.request(nil, -1, 0, t, tenants[t])
			if err == nil && !identical(s.want[t], run) {
				err = fmt.Errorf("response is not bit-identical to the reference")
			}
			if err != nil {
				return nil, fmt.Errorf("warm request, tenant %d: %w", t, err)
			}
		}
		if round >= warmRuns && (!warm || s.srv.Pool().Stats().Misses == before) {
			break
		}
		if round > 8 {
			return nil, fmt.Errorf("pool still missing after %d warm rounds", round)
		}
	}
	return s, nil
}

// request POSTs req (tenant t's, or a ladder row's with t = -1) and returns
// the client-side sample and the run the response describes. Spans: client.encode, http.roundtrip (with
// the server's own queue and run times as synthetic children),
// client.decode.
func (s *serveInstance) request(rec *recorder, parent, id, t int, req serve.RunRequest) (reqSample, core.Run, error) {
	t0 := time.Now()
	sp := rec.begin("client.encode", parent, id)
	payload, err := json.Marshal(req)
	rec.end(sp)
	if err != nil {
		return reqSample{}, core.Run{}, err
	}
	sp = rec.begin("http.roundtrip", parent, id)
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(payload))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rec.end(sp)
	if err != nil {
		return reqSample{}, core.Run{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reqSample{}, core.Run{}, fmt.Errorf("POST /v1/run: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	dec := rec.begin("client.decode", parent, id)
	var out serve.RunResponse
	err = json.Unmarshal(body, &out)
	rec.end(dec)
	if err != nil {
		return reqSample{}, core.Run{}, fmt.Errorf("decode response: %w", err)
	}
	smp := reqSample{
		tenant: t,
		client: time.Since(t0),
		queue:  time.Duration(out.QueueNs),
		run:    time.Duration(out.RunNs),
		bytes:  len(body),
		hit:    out.PoolHit,
	}
	at := rec.synthetic("serve.queue", sp, id, rec.startOf(sp), smp.queue)
	rec.synthetic("serve.run", sp, id, at, smp.run)
	run := core.Run{
		Elapsed:        out.Elapsed,
		MachineElapsed: out.MachineElapsed,
		Stats:          out.Stats,
		Values:         out.Values,
		Links:          out.Links,
	}
	return smp, run, nil
}

func (s *serveInstance) op(rec *recorder, id int) opResult {
	var order []int
	if s.warm {
		order = s.rng.Perm(len(s.tenants))
	} else {
		order = []int{s.next % len(s.tenants)}
		s.next++
	}
	var res opResult
	root := rec.begin("op", -1, id)
	t0 := time.Now()
	for _, t := range order {
		smp, run, err := s.request(rec, root, id, t, s.tenants[t])
		if err != nil {
			res.err = err
			break
		}
		res.reqs = append(res.reqs, smp)
		res.runs = append(res.runs, taggedRun{t, run})
	}
	res.wall = time.Since(t0)
	rec.end(root)
	if res.err != nil {
		return res
	}
	for i, tr := range res.runs {
		if !identical(s.want[tr.config], tr.run) {
			res.mismatch = true
			res.err = fmt.Errorf("tenant %d response is not bit-identical to the reference", tr.config)
		} else if res.reqs[i].hit != s.warm {
			res.err = fmt.Errorf("tenant %d: pool hit = %v, want %v", tr.config, res.reqs[i].hit, s.warm)
		}
	}
	return res
}

// teardown drains the server (which Closes every pooled System and its
// worker fleet) and stops the listener.
func (s *serveInstance) teardown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	s.client.CloseIdleConnections()
	if cerr := s.http.Close(); err == nil {
		err = cerr
	}
	<-s.served
	return err
}
