package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Pool().Close() })
	return s, ts
}

func postRun(t *testing.T, ts *httptest.Server, req serve.RunRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeRun(t *testing.T, data []byte) serve.RunResponse {
	t.Helper()
	var rr serve.RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatalf("decode run response: %v\n%s", err, data)
	}
	return rr
}

func TestRunPoolHitAndBitIdentity(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	req := serve.RunRequest{Program: "jacobi", Args: []float64{8, 4}, Grid: []int{4, 4}}
	resp, data := postRun(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", resp.StatusCode, data)
	}
	first := decodeRun(t, data)
	if first.PoolHit {
		t.Error("first request reported a pool hit")
	}
	if len(first.Values) == 0 || first.Elapsed <= 0 {
		t.Fatalf("first run empty: %+v", first)
	}

	resp, data = postRun(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second run: %d %s", resp.StatusCode, data)
	}
	second := decodeRun(t, data)
	if !second.PoolHit {
		t.Error("second identical request missed the pool")
	}
	if second.Warmed < 2 {
		t.Errorf("reused system reports %d completed runs", second.Warmed)
	}
	if first.Key != second.Key {
		t.Errorf("keys diverged: %q vs %q", first.Key, second.Key)
	}
	// The warm run must mean exactly what the cold one meant.
	if len(first.Values) != len(second.Values) {
		t.Fatal("value lengths diverged across pool reuse")
	}
	for i := range first.Values {
		if first.Values[i] != second.Values[i] {
			t.Fatalf("value %d diverged across pool reuse", i)
		}
	}
	if first.Elapsed != second.Elapsed || first.Stats != second.Stats {
		t.Error("elapsed/stats diverged across pool reuse")
	}
}

func TestRunVerifyMode(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	req := serve.RunRequest{Program: "jacobi", Args: []float64{8, 2}, Grid: []int{2, 2}, Verify: true}
	resp, data := postRun(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify run: %d %s", resp.StatusCode, data)
	}
	rr := decodeRun(t, data)
	if rr.Verify == nil || !rr.Verify.Identical || !rr.Verify.TimesIdentical {
		t.Errorf("verify verdict %+v", rr.Verify)
	}
}

func TestRunFederatedAndDistinctKeys(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	shared := serve.RunRequest{Program: "jacobi", Args: []float64{8, 2}, Grid: []int{2, 2}}
	fed := serve.RunRequest{Program: "jacobi", Args: []float64{8, 2}, Grid: []int{2, 2},
		Transport: "federated", Nodes: 2, LinkLatency: 4, LinkByte: 8}
	_, sharedData := postRun(t, ts, shared)
	respF, fedData := postRun(t, ts, fed)
	if respF.StatusCode != http.StatusOK {
		t.Fatalf("federated run: %d %s", respF.StatusCode, fedData)
	}
	sr, fr := decodeRun(t, sharedData), decodeRun(t, fedData)
	if sr.Key == fr.Key {
		t.Error("shared and priced-federated requests share a pool key")
	}
	if fr.Links == nil || fr.Links.Nodes != 2 {
		t.Errorf("federated run census %+v", fr.Links)
	}
	// Transport invariance: same program, same values.
	for i := range sr.Values {
		if sr.Values[i] != fr.Values[i] {
			t.Fatal("values diverged across transports")
		}
	}
}

func TestRunRejectsMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{MaxProcessors: 64})
	cases := []struct {
		name       string
		req        serve.RunRequest
		wantStatus int
		wantCode   string
	}{
		{"unknown program", serve.RunRequest{Program: "nope", Grid: []int{4}}, 400, serve.CodeBadRequest},
		{"bad args", serve.RunRequest{Program: "jacobi", Args: []float64{-3, 2}, Grid: []int{2, 2}}, 400, serve.CodeBadArgs},
		{"arity", serve.RunRequest{Program: "jacobi", Args: []float64{8}, Grid: []int{2, 2}}, 400, serve.CodeBadArgs},
		{"no grid", serve.RunRequest{Program: "jacobi", Args: []float64{8, 2}}, 400, serve.CodeBadRequest},
		{"grid too big", serve.RunRequest{Program: "jacobi", Args: []float64{8, 2}, Grid: []int{128}}, 400, serve.CodeBadRequest},
		{"bad extent", serve.RunRequest{Program: "jacobi", Args: []float64{8, 2}, Grid: []int{0}}, 400, serve.CodeBadRequest},
		{"unknown transport", serve.RunRequest{Program: "jacobi", Args: []float64{8, 2}, Grid: []int{2, 2}, Transport: "carrier-pigeon"}, 400, serve.CodeBadRequest},
		{"nodes on shared", serve.RunRequest{Program: "jacobi", Args: []float64{8, 2}, Grid: []int{2, 2}, Nodes: 2}, 400, serve.CodeBadRequest},
		{"nodes not dividing", serve.RunRequest{Program: "jacobi", Args: []float64{8, 2}, Grid: []int{2, 2}, Transport: "federated", Nodes: 3}, 400, serve.CodeBadRequest},
	}
	for _, tc := range cases {
		resp, data := postRun(t, ts, tc.req)
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.wantStatus, data)
			continue
		}
		var eb serve.ErrorBody
		if err := json.Unmarshal(data, &eb); err != nil {
			t.Errorf("%s: decode error body: %v", tc.name, err)
			continue
		}
		if eb.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q (%s)", tc.name, eb.Code, tc.wantCode, eb.Error)
		}
		if tc.wantCode == serve.CodeBadArgs && tc.name == "bad args" {
			if eb.Arg == nil || eb.Arg.Arg != "n" || eb.Arg.Min != 1 {
				t.Errorf("%s: structured arg %+v", tc.name, eb.Arg)
			}
		}
	}
	// Unknown JSON fields are rejected, not ignored: a typoed option must
	// not silently select a default.
	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"program":"jacobi","args":[8,2],"grid":[4],"transprot":"ipc"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field accepted: %d", resp.StatusCode)
	}
}

func TestRunFailureDiscardsSystem(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{})
	req := serve.RunRequest{Program: "stall", Grid: []int{2}}
	resp, data := postRun(t, ts, req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("stall run: %d %s", resp.StatusCode, data)
	}
	var eb serve.ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != serve.CodeRunFailed || !strings.Contains(eb.Error, "deadlock") {
		t.Errorf("error body %+v", eb)
	}
	st := s.Pool().Stats()
	if st.Discards != 1 || st.Idle != 0 {
		t.Errorf("failed run was pooled: %+v", st)
	}
}

func TestListingsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
		data, _ := io.ReadAll(resp.Body)
		return data
	}
	var progsResp serve.ListResponse
	if err := json.Unmarshal(get("/v1/programs"), &progsResp); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, p := range progsResp.Programs {
		names[p.Name] = true
		if p.Name == "jacobi" && (len(p.Args) != 2 || p.Args[0].Name != "n") {
			t.Errorf("jacobi schema in listing: %+v", p.Args)
		}
	}
	for _, want := range core.ProgramNames() {
		if !names[want] {
			t.Errorf("program %q missing from listing", want)
		}
	}
	var tr serve.ListResponse
	if err := json.Unmarshal(get("/v1/transports"), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Transports) == 0 {
		t.Error("no transports listed")
	}
	if !strings.Contains(string(get("/healthz")), "ok") {
		t.Error("healthz not ok")
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	req := serve.RunRequest{Program: "jacobi", Args: []float64{8, 2}, Grid: []int{2, 2}}
	postRun(t, ts, req)
	postRun(t, ts, req)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	text := string(data)
	for _, want := range []string{
		"kfserve_pool_hits_total 1",
		"kfserve_pool_misses_total 1",
		"kfserve_pool_idle 1",
		"kfserve_pool_idle_systems{key=",
		"kfserve_pool_warm_runs{key=",
		"kfserve_queue_depth 0",
		"kfserve_inflight 0",
		"kfserve_draining 0",
		`kfserve_runs_total{program="jacobi",outcome="ok"} 2`,
		"kfserve_run_seconds_bucket{le=\"+Inf\"} 2",
		"kfserve_run_seconds_count 2",
		"kfserve_queue_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestMetricsCountIPCExecutionPlane: the kfserve_ipc_* counters sum
// core.Run.Exec over the runs whose ranks executed in worker processes —
// an in-process run moves none of them, a clean ipc run moves the peer
// frames and the workers' CPU seconds and never the probe rounds.
func TestMetricsCountIPCExecutionPlane(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	metrics := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return string(data)
	}
	postRun(t, ts, serve.RunRequest{Program: "jacobi", Args: []float64{8, 2}, Grid: []int{2, 2}})
	text := metrics()
	for _, want := range []string{"kfserve_ipc_stall_reports_total 0", "kfserve_ipc_probe_rounds_total 0", "kfserve_ipc_peer_frames_total 0", "kfserve_ipc_worker_cpu_seconds_total 0.000000"} {
		if !strings.Contains(text, want) {
			t.Errorf("after an in-process run, metrics missing %q", want)
		}
	}
	resp, data := postRun(t, ts, serve.RunRequest{Program: "jacobi", Args: []float64{8, 2}, Grid: []int{2, 2}, Transport: "ipc", Nodes: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ipc run: %d %s", resp.StatusCode, data)
	}
	text = metrics()
	if strings.Contains(text, "kfserve_ipc_peer_frames_total 0") || strings.Contains(text, "kfserve_ipc_worker_cpu_seconds_total 0.000000") ||
		!strings.Contains(text, "kfserve_ipc_probe_rounds_total 0") {
		t.Errorf("after a clean ipc run: want peer frames and worker CPU counted and no probe round\n%s", text)
	}
}
