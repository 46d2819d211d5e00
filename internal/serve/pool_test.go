package serve

import (
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/progs"
)

func shared2() (*core.System, error) {
	return core.NewSystem(core.Grid(2), core.Cost(machine.Uniform()))
}

// specKey is the pool key of a declaration: its resolved Spec's Key.
func specKey(s core.Spec) string {
	r, err := s.Resolve()
	if err != nil {
		panic(err)
	}
	return r.Key()
}

func key2() string {
	return specKey(core.Spec{Grid: []int{2}, Cost: machine.Uniform()})
}

func TestPoolHitMissAndWarmth(t *testing.T) {
	p := NewPool(4)
	l1, err := p.Checkout(key2(), shared2)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Hit() {
		t.Error("first checkout reported a hit")
	}
	sys := l1.Sys
	if _, err := sys.Run(func(c *kf.Ctx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	l1.Return()
	st := p.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.Idle != 1 {
		t.Errorf("stats after first cycle: %+v", st)
	}
	l2, err := p.Checkout(key2(), shared2)
	if err != nil {
		t.Fatal(err)
	}
	if !l2.Hit() || l2.Sys != sys {
		t.Error("second checkout did not reuse the warmed system")
	}
	if !l2.Sys.Warmed() {
		t.Error("reused system not warmed")
	}
	// A different key misses even with an idle system present.
	other := specKey(core.Spec{Grid: []int{3}, Cost: machine.Uniform()})
	l3, err := p.Checkout(other, func() (*core.System, error) {
		return core.NewSystem(core.Grid(3), core.Cost(machine.Uniform()))
	})
	if err != nil {
		t.Fatal(err)
	}
	if l3.Hit() {
		t.Error("cross-key checkout reported a hit")
	}
	l2.Return()
	l3.Return()
	warm := p.Warmth()
	if len(warm) != 2 {
		t.Fatalf("warmth %v, want two keys", warm)
	}
	if warm[0].Idle+warm[1].Idle != 2 {
		t.Errorf("idle population %v", warm)
	}
}

func TestPoolEvictsLRUAcrossKeys(t *testing.T) {
	p := NewPool(2)
	mk := func(n int) func() (*core.System, error) {
		return func() (*core.System, error) {
			return core.NewSystem(core.Grid(n), core.Cost(machine.Uniform()))
		}
	}
	keyN := func(n int) string { return specKey(core.Spec{Grid: []int{n}, Cost: machine.Uniform()}) }
	var leases []*Lease
	for n := 2; n <= 4; n++ {
		l, err := p.Checkout(keyN(n), mk(n))
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
	}
	// Return in order 2, 3, 4: capacity 2 means returning 4 evicts 2 (the
	// least recently used idle system).
	for _, l := range leases {
		l.Return()
	}
	st := p.Stats()
	if st.Evictions != 1 || st.Idle != 2 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	if l, err := p.Checkout(keyN(2), mk(2)); err != nil {
		t.Fatal(err)
	} else if l.Hit() {
		t.Error("evicted key still produced a hit")
	} else {
		l.Return()
	}
	if l, err := p.Checkout(keyN(4), mk(4)); err != nil {
		t.Fatal(err)
	} else if !l.Hit() {
		t.Error("most recently returned key missed")
	} else {
		l.Return()
	}
}

func TestPoolCloseAndLateReturn(t *testing.T) {
	p := NewPool(2)
	l, err := p.Checkout(key2(), shared2)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := p.Checkout(key2(), shared2)
	if err != nil {
		t.Fatal(err)
	}
	idle.Return()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Idle != 0 {
		t.Error("idle systems survived Close")
	}
	// The lease still out returns into a closed pool: closed, not pooled.
	l.Return()
	if p.Stats().Idle != 0 {
		t.Error("late return was pooled after Close")
	}
	if _, err := p.Checkout(key2(), shared2); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("checkout after Close returned %v", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestPoolDiscardNeverPools(t *testing.T) {
	p := NewPool(2)
	l, err := p.Checkout(key2(), shared2)
	if err != nil {
		t.Fatal(err)
	}
	l.Discard()
	l.Return() // idempotent: first call (Discard) wins
	st := p.Stats()
	if st.Discards != 1 || st.Idle != 0 {
		t.Errorf("stats after discard: %+v", st)
	}
}

// raceEnabled is set by race_test.go in a binary built with -race.
var raceEnabled bool

// TestPoolRunAllocs pins what one pooled run costs the serving process,
// HTTP aside: a warm pool hit of ipc/4 jacobi(8, 1) on Grid(8, 8), and a
// cold checkout that builds the System (spawning its four workers), runs
// it once and discards it. The counts are the coordinator's: the ranks run
// in the workers. Each bound is the count when pinned plus max(1, 1 %),
// and the collector is off while the counts are taken, as in
// internal/progs' pins.
func TestPoolRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the pinned ones")
	}
	prog, err := progs.Jacobi(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Spec{Grid: []int{8, 8}, Transport: "ipc", Nodes: 4}
	key := specKey(spec)
	request := func(p *Pool, hit bool, done func(*Lease)) func() {
		return func() {
			l, err := p.Checkout(key, spec.Build)
			if err != nil {
				t.Fatal(err)
			}
			if l.Hit() != hit {
				t.Fatalf("checkout hit %v, want %v", l.Hit(), hit)
			}
			if _, err := l.Sys.RunProgram(prog); err != nil {
				t.Fatal(err)
			}
			done(l)
		}
	}
	warm, cold := NewPool(1), NewPool(1)
	defer warm.Close()
	defer cold.Close()
	// The first checkout builds and the next settles the workers' run
	// caches; AllocsPerRun's own first call is one more warm run.
	request(warm, false, (*Lease).Return)()
	request(warm, true, (*Lease).Return)()
	for _, tc := range []struct {
		name     string
		measured float64
		runs     int
		f        func()
	}{
		{"warm pool hit", 97, 100, request(warm, true, (*Lease).Return)},              // 97-98
		{"cold build, run, discard", 405, 20, request(cold, false, (*Lease).Discard)}, // 399-405
	} {
		runtime.GC()
		old := debug.SetGCPercent(-1)
		got := testing.AllocsPerRun(tc.runs, tc.f)
		debug.SetGCPercent(old)
		bound := tc.measured + max(1, math.Floor(tc.measured/100))
		t.Logf("%s: %.0f allocs per run (%.0f when pinned, bound %.0f)", tc.name, got, tc.measured, bound)
		if got > bound {
			t.Errorf("%s: %.0f allocs per run, want <= %.0f", tc.name, got, bound)
		}
	}
}
