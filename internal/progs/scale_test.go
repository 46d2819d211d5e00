package progs_test

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/jacobi"
	"repro/internal/machine"
)

// These are the rank-lifecycle cost pins: what a warmed System keeps
// resident per virtual processor, and what a warm run allocates per rank.
// Both are host-side counts that repeat to within a few percent on any
// machine, unlike the host times bench/ reports beside them.

// calendarSys is a warmed shared-transport System on the calendar engine:
// two runs, as the benchmark's set-up does (the first builds the program's
// declarations, the second leaves the buffer pools as every later run
// finds them).
func calendarSys(t *testing.T, p *core.Program, rows, cols int) *core.System {
	t.Helper()
	sys := mustSys(t, core.Grid(rows, cols), core.Executor("calendar"))
	for i := 0; i < 2; i++ {
		if _, err := sys.RunProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// liveMem returns the live heap and the goroutine stack bytes in use,
// after two collections.
func liveMem() (heap, stack uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.StackInuse
}

// TestResidencyPerRank pins the live heap and the goroutine stack a warmed
// System holds per rank for a 2x2 (or 4x4) block of Jacobi data: two array
// headers with their blocks and X's snapshot (f, which the sweep does not
// write, it reads live), X's halo and gather plan slots, the sweep's
// binding (its context and arrays), the rank's
// continuation in its declared state, the rank's Proc, mailbox and buffer
// free list, and the engine's per-rank slots. What a rank shares with its
// position class — the views' class parts and layouts, halo schedules, gather
// runs and plans, the compiled sweep — is held once per machine, so it
// hardly counts per rank. Jacobi runs in its step form, so no rank keeps a
// goroutine or a stack between runs: the calendar's few partition
// goroutines are all the stack there is, a few bytes per rank.
func TestResidencyPerRank(t *testing.T) {
	for _, tc := range []struct {
		side   int
		budget float64 // heap bytes per rank
		stack  float64 // stack bytes per rank
	}{
		// 2,494 measured + 15 % (2,237 while the sweep held computed rows
		// back instead of snapshotting X, 4,350 while every rank kept its
		// own view, compiled sweep and snapshots, 5,097 while every rank
		// was a coroutine, 9,178 when every rank kept its own descriptors);
		// stack 0-24 (4,124).
		{64, 2868, 64},
		// 1,973 measured + 15 % (1,910; 3,608; 4,236; 8,162); stack 0-4
		// (4,118).
		{128, 2269, 64},
	} {
		side := tc.side
		if side == 128 && testing.Short() {
			continue
		}
		p := mustProg(t, "jacobi", 256, 1)
		heap0, stack0 := liveMem()
		sys := calendarSys(t, p, side, side)
		heap1, stack1 := liveMem()
		ranks := float64(side * side)
		perRank := float64(heap1-heap0) / ranks
		stack := (float64(stack1) - float64(stack0)) / ranks
		t.Logf("Grid(%d, %d): %.0f bytes of live heap and %.0f of goroutine stack per rank", side, side, perRank, stack)
		if perRank > tc.budget {
			t.Errorf("Grid(%d, %d): %.0f bytes of live heap per rank, budget %.0f", side, side, perRank, tc.budget)
		}
		if stack > tc.stack {
			t.Errorf("Grid(%d, %d): %.0f bytes of goroutine stack per rank, budget %.0f", side, side, stack, tc.stack)
		}
		sys.Close() // before the next size's baseline
	}
}

// TestWarmRunAllocsIndependentOfRanks pins that a warm run's allocations do
// not scale with the rank count: quadrupling the ranks may add the gather's
// larger buffers and a few slice growths, but nothing per rank.
func TestWarmRunAllocsIndependentOfRanks(t *testing.T) {
	p := mustProg(t, "jacobi", 256, 1)
	allocs := func(side int) float64 {
		sys := calendarSys(t, p, side, side)
		defer sys.Close()
		return testing.AllocsPerRun(5, func() {
			if _, err := sys.RunProgram(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(32), allocs(64)
	perAdded := (large - small) / float64(64*64-32*32)
	t.Logf("warm RunProgram: %.0f allocs at 32x32, %.0f at 64x64 (%.3f per added rank)", small, large, perAdded)
	if perAdded >= 0.1 {
		t.Errorf("warm run allocates %.3f objects per added rank (%.0f at 1,024 ranks, %.0f at 4,096), want < 0.1",
			perAdded, small, large)
	}
}

// TestJacobi65536Ranks runs the Jacobi program on 65,536 virtual
// processors — a quarter of the regime the README names — and checks the
// gathered values against the 1,024-rank run bit for bit.
func TestJacobi65536Ranks(t *testing.T) {
	if testing.Short() {
		t.Skip("65,536 ranks take ~1 s and ~300 MB")
	}
	p := mustProg(t, "jacobi", 256, 1)
	ref := mustSys(t, core.Grid(32, 32), core.Executor("calendar"))
	want, err := ref.RunProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	sys := mustSys(t, core.Grid(256, 256), core.Executor("calendar"))
	got, err := sys.RunProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != len(want.Values) || len(want.Values) != 256*256 {
		t.Fatalf("gathered %d values, reference %d, want %d", len(got.Values), len(want.Values), 256*256)
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("value %d: %v on 65,536 ranks, %v on 1,024", i, got.Values[i], want.Values[i])
		}
	}
}

// TestWarmADIRunAllocs pins that ADI's declarations — four arrays, five
// compiled loop headers with their halo schedules, the gather plan and
// madi's line lists — are built once per System (kf.Declared), not once per
// run: a warm run allocates its closures, its result and the solver's
// per-call scratch, nothing per array, plan or section.
func TestWarmADIRunAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget float64
	}{
		{"adi", 200},  // measures 9; 7,567 when every run rebuilt the declarations
		{"madi", 200}, // measures 10; 9,614
	} {
		p := mustProg(t, tc.name, 64, 1, 1, 1, 2)
		sys := calendarSys(t, p, 8, 8)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := sys.RunProgram(p); err != nil {
				t.Fatal(err)
			}
		})
		sys.Close()
		t.Logf("warm %s(64, iters 2) on Grid(8, 8): %.0f allocs per RunProgram", tc.name, allocs)
		if allocs >= tc.budget {
			t.Errorf("warm %s run allocates %.0f objects, want < %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// TestCalendarOnePartitionCounts pins the scheduler's exact account of the
// benchmark's inproc_jacobi_1024 op on one partition: with one token there
// is one grant order, so every count below is a function of the program and
// the calendar, not of the host. A change to how a partition hands its token
// from rank to rank must grant the same ranks in the same order, and reads
// the same counts.
func TestCalendarOnePartitionCounts(t *testing.T) {
	priced := machine.CostModel{Latency: 1e-6, BytePeriod: 1e-9}.WithInterNode(4, 8)
	p := mustProg(t, "jacobi", 256, 4)
	sys := mustSys(t, core.Grid(32, 32), core.Transport("federated"), core.Nodes(16), core.Cost(priced))
	sys.Machine.SetExecutor(machine.NewCalendarExecutor(1))
	for run := 0; run < 3; run++ {
		if _, err := sys.RunProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	want := machine.CalendarStats{
		Partitions:     1,
		Parks:          7251,
		Wakes:          7251,
		HandoffGrants:  8275,
		FromIdleGrants: 0,
		Idles:          1,
		MaxDepth:       1024,
	}
	if got := sys.Machine.CalendarStats(); got != want {
		t.Errorf("warm run on one partition: %+v, want %+v", got, want)
	}
}

// raceEnabled is set by race_test.go in a binary built with -race.
var raceEnabled bool

// pinAllocs holds f's allocations per call to measured, the count when the
// pin was set, plus max(1, 1 %): room for a few allocations that move with
// the host's scheduling, none for one more per rank. The collector is off
// while it counts: with it on, a fresh System's count spreads by about a
// hundred from run to run; with it off it repeats.
func pinAllocs(t *testing.T, name string, measured float64, runs int, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the pinned ones")
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(runs, f)
	bound := measured + max(1, math.Floor(measured/100))
	t.Logf("%s: %.0f allocs per run (%.0f when pinned, bound %.0f)", name, got, measured, bound)
	if got > bound {
		t.Errorf("%s: %.0f allocs per run, want <= %.0f", name, got, bound)
	}
}

// TestColdSystemAllocs pins what a fresh System and its first run allocate:
// machine, transport, engine partitions and every rank's Proc, mailbox and
// declarations. Jacobi(256, 2) on 256 ranks over a 4-node federation, and
// the E4 ADI experiment on a 2x2 grid.
func TestColdSystemAllocs(t *testing.T) {
	x0, f := jacobi.Problem(256)
	// 12,588, of which about 3 per shared descriptor are its intern entry's
	// weak pointer and cleanup (12,736 while the sweep held computed rows
	// back in a ring, 12,751 while a root view's layout was also interned
	// apart from its class part); 14,596-14,597 while every rank
	// built its own view, loop header, options, stencil binding, iteration
	// grid and snapshots (14,516 while the table held its values for good);
	// 19,902 when every rank kept its own layouts, halo schedule, gather
	// runs, row program and grid slices, 20,157 when every partition's
	// calendar was its own allocation.
	pinAllocs(t, "cold jacobi(256, 2) on Grid(16, 16), federated/4", 12588, 5, func() {
		sys := core.MustSystem(core.Grid(16, 16), core.Transport("federated"), core.Nodes(4),
			core.Cost(machine.ZeroComm()))
		defer sys.Close()
		if _, err := jacobi.KF1(sys.Machine, sys.Procs, x0, f, 2); err != nil {
			t.Fatal(err)
		}
	})
	var e4 experiments.Entry
	for _, e := range experiments.Suite() {
		if e.ID == "E4" {
			e4 = e
		}
	}
	// 707 through Entry.Run, which also closes the System (717 while a
	// root view's layout was interned apart from its class part, 677 while
	// the intern table held its values for good); 761 before descriptors were
	// shared by position class (758 when first pinned, calling the
	// experiment directly).
	pinAllocs(t, "cold experiments E4", 707, 5, func() {
		if _, _, err := e4.Run(core.Spec{}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWarmJacobi1024Allocs pins a warm Jacobi(256, 1) run on 1,024 ranks
// under the calendar engine, on a priced 16-node federation and inside four
// ipc workers. The ipc count is the coordinator's alone: the ranks, and
// what they allocate, are in the workers. Each count averages a hundred
// runs, because the buffer free lists still grow now and then with the
// order the partitions ran in.
func TestWarmJacobi1024Allocs(t *testing.T) {
	x0, f := jacobi.Problem(256)
	priced := machine.CostModel{Latency: 1e-6, BytePeriod: 1e-9}.WithInterNode(4, 8)
	fed := mustSys(t, core.Grid(32, 32), core.Transport("federated"), core.Nodes(16),
		core.Cost(priced), core.Executor("calendar"))
	runFed := func() {
		if _, err := jacobi.KF1(fed.Machine, fed.Procs, x0, f, 1); err != nil {
			t.Fatal(err)
		}
	}
	runFed() // AllocsPerRun's own first call is the second warm run
	pinAllocs(t, "warm jacobi.KF1(256, 1) on Grid(32, 32), priced federated/16", 5, 100, runFed)

	p := mustProg(t, "jacobi", 256, 1)
	ipc := mustSys(t, core.Grid(32, 32), core.Transport("ipc"), core.Nodes(4),
		core.Cost(machine.ZeroComm()), core.Executor("calendar"))
	runIPC := func() {
		if _, err := ipc.RunProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	runIPC()
	pinAllocs(t, "warm jacobi(256, 1) on Grid(32, 32), ipc/4", 1057, 100, runIPC) // 1,056-1,057
}
