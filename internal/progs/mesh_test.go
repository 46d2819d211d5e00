package progs_test

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
)

// The mesh battery: in worker-exec mode the coordinator is a control plane
// only — inter-node Data frames travel worker to worker — and everything a
// run reports must be exactly what the in-process federation reports.

func sameCensus(a, b *core.LinkCensus) bool {
	if a == nil || b == nil || a.Nodes != b.Nodes {
		return false
	}
	for i := 0; i < a.Nodes; i++ {
		for j := 0; j < a.Nodes; j++ {
			if a.Msgs[i][j] != b.Msgs[i][j] || a.Bytes[i][j] != b.Bytes[i][j] {
				return false
			}
		}
	}
	return true
}

// TestMeshBattery runs, for both layouts of the engine over unix sockets and
// TCP loopback on 2, 4 and 8 nodes: jacobi, adi and madi bit-identical to
// federated
// (values, censuses, virtual times, the link census row for row) with no
// Data frame through the coordinator and every node writing to its peers;
// then the deliberate deadlock, which must read exactly as it does in one
// process; then jacobi again on the same System, which must not notice the
// failed run before it (the failed run's frames still on the peer sockets
// die at the receivers' generation check).
func TestMeshBattery(t *testing.T) {
	cost := machine.CostModel{FlopTime: 1e-6, Latency: 1e-4, BytePeriod: 1e-8}.WithInterNode(4e-4, 4e-8)
	progs := []*core.Program{
		mustProg(t, "jacobi", 32, 2),
		mustProg(t, "adi", 32, 1, 1, 1, 1),
		mustProg(t, "madi", 32, 1, 1, 1, 1),
	}
	stall := mustProg(t, "stall")
	_, localErr := mustSys(t, core.Grid(4, 4)).RunProgram(stall)
	if !errors.Is(localErr, machine.ErrDeadlock) {
		t.Fatalf("shared run of stall program: %v, want a deadlock", localErr)
	}
	for _, l := range layouts {
		for _, network := range []string{"unix", "tcp"} {
			for _, nodes := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/%d", l.name, network, nodes), func(t *testing.T) {
					opts := []core.Option{core.Grid(4, 4), core.Cost(cost), core.Nodes(nodes)}
					fed := mustSysOn(t, l.workers, append(opts, core.Transport("federated"))...)
					if network == "tcp" {
						opts = append(opts, core.ListenAddr("127.0.0.1:0"))
					}
					ipc := mustSysOn(t, l.workers, append(opts, core.Transport("ipc"))...)
					var want core.Run
					for _, p := range progs {
						cmp, err := core.Compare(p, fed, ipc)
						if err != nil {
							t.Fatal(err)
						}
						if !cmp.Identical || !cmp.TimesIdentical || !sameCensus(cmp.A.Links, cmp.B.Links) {
							t.Errorf("%s: federated vs ipc: values=%v census=%v times=%v links=%v", p.Name,
								cmp.ValuesIdentical, cmp.CensusIdentical, cmp.TimesIdentical, sameCensus(cmp.A.Links, cmp.B.Links))
						}
						st := cmp.B.Exec
						if st == nil || len(st.Nodes) != nodes {
							t.Fatalf("%s: no exec stats on a distributed run: %+v", p.Name, st)
						}
						if st.CoordData != 0 {
							t.Errorf("%s: %d Data frames crossed the coordinator", p.Name, st.CoordData)
						}
						msgs, _ := cmp.B.Links.Total()
						var frames, peerMsgs int64
						for node, ns := range st.Nodes {
							if ns.PeerFrames == 0 || ns.Flushes == 0 {
								t.Errorf("%s: node %d wrote %d peer frames in %d flushes", p.Name, node, ns.PeerFrames, ns.Flushes)
							}
							frames += ns.PeerFrames
							peerMsgs += ns.PeerMsgs
						}
						if peerMsgs != msgs || frames > msgs {
							t.Errorf("%s: %d messages in %d peer frames, link census has %d", p.Name, peerMsgs, frames, msgs)
						}
						// A clean run's reports never line up into a cut: the
						// rule accepts only true deadlocks.
						if st.CandidateCuts != 0 || st.ProbeRounds != 0 || st.Verdicts != 0 {
							t.Errorf("%s: clean run saw %d candidate cuts, %d probe rounds, %d verdicts",
								p.Name, st.CandidateCuts, st.ProbeRounds, st.Verdicts)
						}
						if p == progs[0] {
							want = cmp.B
						}
					}

					_, distErr := ipc.RunProgram(stall)
					if distErr == nil || !errors.Is(distErr, machine.ErrDeadlock) || distErr.Error() != localErr.Error() {
						t.Errorf("stall across %d nodes:\n  local: %v\n  dist:  %v", nodes, localErr, distErr)
					}
					if st := ipcTransport(t, ipc).ExecStats(); st.Verdicts != 1 || st.ProbeRounds == 0 || st.CoordData != 0 {
						t.Errorf("stall run stats: %+v", st)
					}

					again, err := ipc.RunProgram(progs[0])
					if err != nil {
						t.Fatalf("jacobi after the stall verdict: %v", err)
					}
					if cmp := core.CompareRuns(want, again); !cmp.Identical || !cmp.TimesIdentical || !sameCensus(want.Links, again.Links) {
						t.Errorf("jacobi after the stall verdict differs from the run before it: values=%v census=%v times=%v links=%v",
							cmp.ValuesIdentical, cmp.CensusIdentical, cmp.TimesIdentical, sameCensus(want.Links, again.Links))
					}
				})
			}
		}
	}
}

// TestMeshWorkerKilledMidRun: SIGKILL one worker while a long run has the
// mesh busy. Its peers see their links to it die, which must stay silent;
// the coordinator's own socket names the node in ErrWorkerLost, the
// survivors unwind on its Abort, and after Close no worker process is left.
func TestMeshWorkerKilledMidRun(t *testing.T) {
	sys := mustSys(t, core.Grid(4, 4), core.Transport("ipc"), core.Nodes(4))
	if _, err := sys.RunProgram(mustProg(t, "jacobi", 32, 1)); err != nil {
		t.Fatal(err) // fleet and mesh are up
	}
	pids := ipcTransport(t, sys).WorkerPIDs()
	if len(pids) != 4 {
		t.Fatalf("worker fleet pids = %v, want 4", pids)
	}
	runErr := make(chan error, 1)
	go func() {
		// Minutes of sweeps: the run cannot end before the kill lands.
		_, err := sys.RunProgram(mustProg(t, "jacobi", 64, 1<<20))
		runErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // let it get going; the outcome is the same wherever the kill lands
	if err := syscall.Kill(pids[2], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if !errors.Is(err, machine.ErrWorkerLost) || !strings.Contains(err.Error(), "node 2") {
			t.Errorf("run error %v, want ErrWorkerLost naming node 2", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run never unblocked after its worker was killed")
	}
	if err := sys.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	for node, pid := range pids {
		if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
			t.Errorf("node %d worker (pid %d) still exists after Close: %v", node, pid, err)
		}
	}
	if out, err := exec.Command("pgrep", "-P", strconv.Itoa(os.Getpid())).Output(); err == nil {
		for _, line := range strings.Fields(string(out)) {
			for _, pid := range pids {
				if line == strconv.Itoa(pid) {
					t.Errorf("pgrep still finds worker pid %d", pid)
				}
			}
		}
	}
}
