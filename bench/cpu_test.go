package main

import (
	"io"
	"os"
	"os/exec"
	"testing"
	"time"
)

// helperEnv makes a re-exec of the test binary act as a child process for
// TestCPUAccountingAcrossLiveAndReapedChildren instead of running tests.
const helperEnv = "KFBENCH_TEST_HELPER"

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "spin" {
		// Burn CPU, say so, then stay alive until stdin closes.
		for start := time.Now(); time.Since(start) < 150*time.Millisecond; {
		}
		os.Stdout.Write([]byte("spun\n"))
		io.Copy(io.Discard, os.Stdin)
		return
	}
	os.Exit(m.Run())
}

func TestProcStat(t *testing.T) {
	line := []byte("4242 (a b) c) S 17 4242 4242 0 -1 4194560 500 0 0 0 12 34 0 0 20 0 5 0 100 200 300\n")
	ppid, cpu, err := procStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if ppid != 17 || cpu.user != 120*time.Millisecond || cpu.sys != 340*time.Millisecond {
		t.Errorf("procStat = ppid %d cpu %+v", ppid, cpu)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 2 3"} {
		if _, _, err := procStat([]byte(bad)); err == nil {
			t.Errorf("procStat(%q) did not fail", bad)
		}
	}
}

// A child's CPU must be counted once whether the snapshot sees it alive
// (through /proc) or reaped (through RUSAGE_CHILDREN), and must not be
// lost or doubled when it moves from one to the other between snapshots.
func TestCPUAccountingAcrossLiveAndReapedChildren(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	before, err := cpuSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), helperEnv+"=spin")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(stdout, make([]byte, 5)); err != nil {
		t.Fatalf("child did not report: %v", err)
	}
	live, err := liveChildren()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := live[cmd.Process.Pid]; !ok {
		t.Fatalf("live children %v do not include the child %d", live, cmd.Process.Pid)
	}
	whileLive, err := cpuSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	stdin.Close()
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	if pids, err := orphans(); err != nil || len(pids) != 0 {
		t.Fatalf("orphans after the child was reaped: %v, %v", pids, err)
	}
	afterReap, err := cpuSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The child spun for 150 ms of wall time; on a loaded box it gets less
	// CPU than that, but not a small fraction of it.
	seenLive := whileLive.sub(before).total()
	if seenLive < 50*time.Millisecond {
		t.Errorf("snapshot while the child was alive saw %v of CPU, want most of its 150 ms spin", seenLive)
	}
	// Moving from alive to reaped changes the source (10 ms ticks to
	// microsecond rusage) but not the amount: this process and the child's
	// exit add a few ms, a double count would add the whole spin again.
	moved := afterReap.sub(whileLive).total()
	if moved < -20*time.Millisecond || moved > seenLive/2 {
		t.Errorf("reaping the child changed the total by %v (it had %v while alive)", moved, seenLive)
	}
}

func TestPeakRSS(t *testing.T) {
	mb, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if mb < 1 || mb > 1<<20 {
		t.Errorf("peak RSS = %g MB", mb)
	}
}
