package machine

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestWorkerProcs: a worker's share is the budget divided by the node
// count, rounded down, and never zero.
func TestWorkerProcs(t *testing.T) {
	for _, budget := range []int{1, 2, 4, 8, 64} {
		for _, nodes := range []int{1, 2, 3, 4, 8, 16} {
			want := budget / nodes
			if want == 0 {
				want = 1
			}
			if got := workerProcs(budget, nodes); got != want {
				t.Errorf("workerProcs(%d, %d) = %d, want %d", budget, nodes, got, want)
			}
		}
	}
}

// TestWorkerEnvHoldsOneOfEach: whatever the parent inherited — a thread
// budget of its own, the coordinates of a fleet it is itself a worker of —
// a worker's environment holds exactly one entry of each variable the
// transport sets, with the transport's value, and everything else intact.
func TestWorkerEnvHoldsOneOfEach(t *testing.T) {
	parent := []string{
		"PATH=/bin", "GOMAXPROCS=7", ipcEnvNode + "=3", "GOMAXPROCS=9", ipcEnvNet + "=tcp",
		ipcEnvAddr + "=1.2.3.4:5", ipcEnvExec + "=1", "GOMAXPROCSX=keep", "HOME=/root",
	}
	for _, armed := range []bool{false, true} {
		env := workerEnv(parent, "unix", "/tmp/x/coord.sock", 2, armed)
		count := func(name string) (n int, last string) {
			for _, kv := range env {
				if strings.HasPrefix(kv, name+"=") {
					n, last = n+1, kv
				}
			}
			return
		}
		want := map[string]string{
			"GOMAXPROCS": "GOMAXPROCS=2", ipcEnvNet: ipcEnvNet + "=unix", ipcEnvAddr: ipcEnvAddr + "=/tmp/x/coord.sock",
			"PATH": "PATH=/bin", "HOME": "HOME=/root", "GOMAXPROCSX": "GOMAXPROCSX=keep",
		}
		if armed {
			want[ipcEnvExec] = ipcEnvExec + "=1"
		}
		for name, kv := range want {
			if n, got := count(name); n != 1 || got != kv {
				t.Errorf("armed=%v: %d entries of %s, last %q; want exactly %q", armed, n, name, got, kv)
			}
		}
		if n, _ := count(ipcEnvNode); n != 0 {
			t.Errorf("armed=%v: the parent's node index survived: %v", armed, env)
		}
		if n, _ := count(ipcEnvExec); !armed && n != 0 {
			t.Errorf("a relay-only worker inherited %s: %v", ipcEnvExec, env)
		}
	}
}

// TestIPCFleetSharesHostCPUs is the relay-only half of the fleet's thread
// budget (internal/progs holds the exec-armed half): every worker reports,
// in its Hello, the share of this process's GOMAXPROCS that workerProcs
// assigns — also when this process inherited a GOMAXPROCS variable of its
// own, which must not reach the worker. Run it under -cpu 1,2,4.
func TestIPCFleetSharesHostCPUs(t *testing.T) {
	for _, inherited := range []string{"", "7"} {
		if inherited != "" {
			t.Setenv("GOMAXPROCS", inherited)
		}
		for _, nodes := range []int{1, 2, 4} {
			tr := NewIPCTransport(4, nodes)
			t.Cleanup(func() { tr.Close() })
			if got := tr.WorkerProcs(); len(got) != 0 {
				t.Fatalf("worker procs before the fleet spawned: %v", got)
			}
			if err := tr.ensureStarted(); err != nil {
				t.Fatal(err)
			}
			got, want := tr.WorkerProcs(), max(1, runtime.GOMAXPROCS(0)/nodes)
			if len(got) != nodes {
				t.Fatalf("nodes=%d: worker procs %v, want one per node", nodes, got)
			}
			for node, p := range got {
				if p != want {
					t.Errorf("GOMAXPROCS=%d (env %q), nodes=%d: node %d runs %d Ps, want %d",
						runtime.GOMAXPROCS(0), inherited, nodes, node, p, want)
				}
			}
			tr.Close()
		}
	}
}

// TestRankResultTrailerLength: a result frame whose trailer is not the
// current length — the pre-CPUMicros one in particular, what a worker of an
// older binary would send — is a structured error before anything is
// indexed, never a panic.
func TestRankResultTrailerLength(t *testing.T) {
	const k = 2
	tr := NewIPCTransport(4, k)
	defer tr.Close()
	er := &execRun{results: make([]RankResult, 4), got: make([]bool, 4),
		reports: make([]nodeReport, k), stats: ExecStats{Nodes: make([]NodeExecStats, k)}, done: make(chan struct{})}
	for _, words := range []int{1, reportWords(k), resultTrailerWords(k) - 1, resultTrailerWords(k) + 1} {
		payload := make([]float64, words)
		for i := range payload {
			payload[i] = math.Float64frombits(uint64(i))
		}
		f := wire.Frame{Kind: wire.KindRankResult, Src: 1, Seq: 1, B: uint64(words), Payload: payload}
		if err := tr.absorbResults(er, 1, &f); err == nil || !strings.Contains(err.Error(), "trailer") {
			t.Errorf("trailer of %d words: err = %v, want a trailer error", words, err)
		}
	}
	// The right length with fewer payload words than it claims.
	f := wire.Frame{Kind: wire.KindRankResult, Src: 1, Seq: 1, B: uint64(resultTrailerWords(k)), Payload: make([]float64, 3)}
	if err := tr.absorbResults(er, 1, &f); err == nil {
		t.Error("a trailer longer than the payload was absorbed")
	}
}
