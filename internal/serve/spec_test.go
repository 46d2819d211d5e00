package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// TestRequestKeyIsSystemKey: there is one key, by construction. The Key a
// response reports is the key the pool filed the System under, is that
// System's own PoolKey, and decodes — as an ipc worker decodes it — into a
// Spec that re-encodes to the same bytes. Requests that mean the same
// System (a default spelled out, a link list reordered) share it.
func TestRequestKeyIsSystemKey(t *testing.T) {
	jacobi := func(r serve.RunRequest) serve.RunRequest {
		r.Program, r.Args = "jacobi", []float64{8, 1}
		return r
	}
	up := serve.LinkSpec{Src: 0, Dst: 1, Latency: 16, Byte: 32}
	down := serve.LinkSpec{Src: 1, Dst: 0, Latency: 2, Byte: 3}
	cases := []struct {
		name string
		req  serve.RunRequest
		same string // name of an earlier case that must share this one's key
	}{
		// The three kfbench -serve-bench tenants.
		{name: "tenant ipc", req: jacobi(serve.RunRequest{Grid: []int{8, 8}, Transport: "ipc", Nodes: 4})},
		{name: "tenant shared", req: jacobi(serve.RunRequest{Grid: []int{8, 8}})},
		{name: "tenant small", req: serve.RunRequest{Program: "jacobi", Args: []float64{8, 2}, Grid: []int{4, 4}}},
		// The benchmark's two cold tenants: keys differ only in pricing.
		{name: "priced 2", req: jacobi(serve.RunRequest{Grid: []int{8, 8}, Transport: "ipc", Nodes: 4, LinkLatency: 2, LinkByte: 2})},
		{name: "priced 3", req: jacobi(serve.RunRequest{Grid: []int{8, 8}, Transport: "ipc", Nodes: 4, LinkLatency: 3, LinkByte: 3})},
		{name: "defaults spelled", same: "tenant shared",
			req: jacobi(serve.RunRequest{Grid: []int{8, 8}, Transport: "shared", Nodes: 1})},
		{name: "links", req: jacobi(serve.RunRequest{Grid: []int{4, 4}, Transport: "federated", Nodes: 2,
			LinkLatency: 4, LinkByte: 8, Links: []serve.LinkSpec{up, down}})},
		{name: "links reordered", same: "links", req: jacobi(serve.RunRequest{Grid: []int{4, 4}, Transport: "federated", Nodes: 2,
			LinkLatency: 4, LinkByte: 8, Links: []serve.LinkSpec{down, up}})},
	}
	s, ts := newTestServer(t, serve.Config{PoolSize: len(cases)})
	keys := map[string]string{}
	for _, tc := range cases {
		resp, data := postRun(t, ts, tc.req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.name, resp.StatusCode, data)
		}
		rr := decodeRun(t, data)
		keys[tc.name] = rr.Key
		if tc.same != "" {
			if rr.Key != keys[tc.same] {
				t.Errorf("%s: key differs from %s:\n%s\n%s", tc.name, tc.same, rr.Key, keys[tc.same])
			}
			if !rr.PoolHit {
				t.Errorf("%s: missed the System %s warmed", tc.name, tc.same)
			}
		}
		// The pool filed the System under the reported key, and the System
		// agrees that is what it is.
		lease, err := s.Pool().Checkout(rr.Key, func() (*core.System, error) {
			return nil, errors.New("no idle System under the response's key")
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := lease.Sys.PoolKey(); got != rr.Key {
			t.Errorf("%s: response key is not the System's:\n%s\n%s", tc.name, rr.Key, got)
		}
		lease.Return()
		// What an ipc worker does with the same bytes.
		var spec core.Spec
		if err := json.Unmarshal([]byte(rr.Key), &spec); err != nil {
			t.Fatalf("%s: key does not decode as a Spec: %v", tc.name, err)
		}
		if spec, err = spec.Resolve(); err != nil || spec.Key() != rr.Key {
			t.Errorf("%s: key does not round-trip (%v):\n%s\n%s", tc.name, err, rr.Key, spec.Key())
		}
	}
	distinct := map[string]string{}
	for _, tc := range cases {
		if tc.same != "" {
			continue
		}
		if other, dup := distinct[keys[tc.name]]; dup {
			t.Errorf("%s and %s share a key: %s", tc.name, other, keys[tc.name])
		}
		distinct[keys[tc.name]] = tc.name
	}
}

// TestResolveRejectionsSkipAdmission: a declaration core.Spec.Resolve
// refuses is a 400 before the request is allowed to queue. With the only
// execution slot held, such a request must answer straight away and the
// admission queue must never see it; requests only construction can refuse
// do queue, like any valid one.
func TestResolveRejectionsSkipAdmission(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{MaxConcurrent: 1})
	if err := s.Scheduler().Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.Scheduler().Release()

	var maxDepth atomic.Int64
	stop, watched := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watched)
		for {
			select {
			case <-stop:
				return
			default:
				if d := int64(s.Scheduler().QueueDepth()); d > maxDepth.Load() {
					maxDepth.Store(d)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	fed := func(r serve.RunRequest) serve.RunRequest {
		r.Program, r.Args, r.Grid, r.Transport, r.Nodes = "jacobi", []float64{8, 1}, []int{2, 2}, "federated", 2
		return r
	}
	refused := map[string]any{
		"zero link multiplier":     fed(serve.RunRequest{LinkLatency: 0, LinkByte: 8}),
		"negative link multiplier": fed(serve.RunRequest{LinkLatency: -1, LinkByte: 2}),
		"link outside federation":  fed(serve.RunRequest{LinkLatency: 2, LinkByte: 2, Links: []serve.LinkSpec{{Src: 0, Dst: 5, Latency: 2, Byte: 2}}}),
		"link src == dst":          fed(serve.RunRequest{LinkLatency: 2, LinkByte: 2, Links: []serve.LinkSpec{{Src: 1, Dst: 1, Latency: 2, Byte: 2}}}),
		"bad link override":        fed(serve.RunRequest{LinkLatency: 2, LinkByte: 2, Links: []serve.LinkSpec{{Src: 0, Dst: 1, Latency: 0, Byte: 2}}}),
		"bad grid":                 serve.RunRequest{Program: "jacobi", Args: []float64{8, 1}, Grid: []int{2, 0}},
		"no grid":                  serve.RunRequest{Program: "jacobi", Args: []float64{8, 1}},
		// There is one engine and no field to name it: strict decoding
		// refuses the field a request once chose an engine by.
		"executor named": map[string]any{"program": "jacobi", "args": []float64{8, 1}, "grid": []int{2, 2}, "executor": "goroutine"},
	}
	client := &http.Client{Timeout: 10 * time.Second}
	post := func(req any) (int, serve.ErrorBody) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("request did not answer while the slot was held: %v", err)
		}
		defer resp.Body.Close()
		var eb serve.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, eb
	}
	for name, req := range refused {
		if status, eb := post(req); status != http.StatusBadRequest || eb.Code != serve.CodeBadRequest {
			t.Errorf("%s: %d %+v, want 400 %s", name, status, eb, serve.CodeBadRequest)
		}
	}
	close(stop)
	<-watched
	if d := maxDepth.Load(); d != 0 {
		t.Errorf("a refused declaration reached the admission queue (depth %d)", d)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "\nkfserve_queue_depth 0\n") {
		t.Error("kfserve_queue_depth moved")
	}

	// What only Build can refuse still waits for a slot like a valid
	// request: here it times out in the queue instead of answering 400.
	late := serve.RunRequest{Program: "jacobi", Args: []float64{8, 1}, Grid: []int{2, 2}, Transport: "carrier-pigeon", TimeoutMs: 50}
	if status, eb := post(late); status != http.StatusGatewayTimeout || eb.Code != serve.CodeDeadline {
		t.Errorf("unknown transport with the slot held: %d %+v, want 504 %s", status, eb, serve.CodeDeadline)
	}
}
