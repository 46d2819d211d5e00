package core

import (
	"runtime"
	"testing"

	"repro/internal/jacobi"
	"repro/internal/kf"
)

// TestDefaultEngineSharesPartitions: a System declared with no engine
// option runs a step program's ranks block-distributed over
// min(GOMAXPROCS, n) partitions, and its warm run starts no partition
// goroutine.
func TestDefaultEngineSharesPartitions(t *testing.T) {
	const n, iters = 64, 1
	x0, f := jacobi.Problem(n)
	p := &Program{
		Name: "jacobi",
		Body: func(c *kf.Ctx) (Output, error) {
			flat, elapsed := jacobi.KF1Ctx(c, x0, f, iters)
			return Output{Values: flat, Elapsed: elapsed}, nil
		},
		Step: func(c *kf.Ctx, resume bool) (Output, bool, error) {
			flat, elapsed, done := jacobi.KF1Step(c, resume, x0, f, iters)
			return Output{Values: flat, Elapsed: elapsed}, done, nil
		},
	}
	sys, err := NewSystem(Grid(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var r Run
	for range 2 {
		if r, err = sys.RunProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	if want := min(runtime.GOMAXPROCS(0), 1024); r.Calendar.Partitions != want {
		t.Errorf("warm run on %d partitions, want min(GOMAXPROCS, 1024) = %d", r.Calendar.Partitions, want)
	}
	if r.Calendar.Starts != 0 {
		t.Errorf("warm run started %d partition goroutines, want 0", r.Calendar.Starts)
	}
}

// TestExecutorOptionShim: Executor accepts the one engine's name and
// leaves the declaration as it was; any other name is refused.
func TestExecutorOptionShim(t *testing.T) {
	sys, err := NewSystem(Grid(4), Executor("calendar"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if got, want := sys.PoolKey(), keyOf(t, Spec{Grid: []int{4}}); got != want {
		t.Errorf("Executor(\"calendar\") changed the key:\n%s\n%s", got, want)
	}
	for _, name := range []string{"goroutine", ""} {
		if _, err := NewSystem(Grid(4), Executor(name)); err == nil {
			t.Errorf("Executor(%q) accepted", name)
		}
	}
}
