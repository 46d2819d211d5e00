package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuTimes is cumulative user and system CPU time.
type cpuTimes struct{ user, sys time.Duration }

func (a cpuTimes) add(b cpuTimes) cpuTimes { return cpuTimes{a.user + b.user, a.sys + b.sys} }
func (a cpuTimes) sub(b cpuTimes) cpuTimes { return cpuTimes{a.user - b.user, a.sys - b.sys} }
func (a cpuTimes) total() time.Duration    { return a.user + a.sys }

func rusage(who int) (cpuTimes, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return cpuTimes{}, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return cpuTimes{tv(ru.Utime), tv(ru.Stime)}, nil
}

// procStat parses the fields of /proc/<pid>/stat the bench needs. The comm
// field may hold spaces and parentheses, so fields are counted from the
// last ')'.
func procStat(data []byte) (ppid int, cpu cpuTimes, err error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, cpuTimes{}, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3, so f[1] is field 4 (ppid) and f[11], f[12] are fields
	// 14 and 15 (utime, stime).
	if len(f) < 13 {
		return 0, cpuTimes{}, fmt.Errorf("short stat line")
	}
	ppid, err = strconv.Atoi(f[1])
	if err != nil {
		return 0, cpuTimes{}, err
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, cpuTimes{}, fmt.Errorf("malformed cpu fields")
	}
	tick := time.Second / clockTick
	return ppid, cpuTimes{time.Duration(ut) * tick, time.Duration(st) * tick}, nil
}

// liveChildren returns the CPU time of every direct child of this process
// that has not been reaped yet, keyed by pid. Zombies are included: their
// times are final but not yet in RUSAGE_CHILDREN.
func liveChildren() (map[int]cpuTimes, error) {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	self := os.Getpid()
	out := make(map[int]cpuTimes)
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		data, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue // exited between ReadDir and here
		}
		ppid, cpu, err := procStat(data)
		if err != nil || ppid != self {
			continue
		}
		out[pid] = cpu
	}
	return out, nil
}

// cpuSnapshot is the cumulative CPU of this process and everything it has
// spawned: itself, its reaped children, and its children still alive. The
// sum only grows, and a child moving from alive to reaped moves its time
// from one term to the other, so the difference of two snapshots is the
// CPU the whole process tree spent between them — whether a worker fleet
// stayed up across the interval, was spawned inside it, or was torn down
// in it.
func cpuSnapshot() (cpuTimes, error) {
	self, err := rusage(syscall.RUSAGE_SELF)
	if err != nil {
		return cpuTimes{}, err
	}
	// Live children are read before the reaped total: a child reaped
	// between the two reads is then counted twice (a small overcount)
	// rather than not at all.
	live, err := liveChildren()
	if err != nil {
		return cpuTimes{}, err
	}
	reaped, err := rusage(syscall.RUSAGE_CHILDREN)
	if err != nil {
		return cpuTimes{}, err
	}
	total := self.add(reaped)
	for _, c := range live {
		total = total.add(c)
	}
	return total, nil
}

// resetPeakRSS restarts the kernel's peak-RSS watermark from the current
// resident set, so VmHWM read after the timed pass is the pass's own peak
// and not set-up's (a 16k-goroutine reference run dwarfs everything after
// it). Where the kernel refuses, the watermark simply keeps its history.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// orphans waits briefly for this process's children to be gone and returns
// the pids still alive: after a workload's teardown every worker it
// spawned must have exited and been reaped.
func orphans() ([]int, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		live, err := liveChildren()
		if err != nil {
			return nil, err
		}
		if len(live) == 0 {
			return nil, nil
		}
		if time.Now().After(deadline) {
			pids := make([]int, 0, len(live))
			for pid := range live {
				pids = append(pids, pid)
			}
			return pids, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}
