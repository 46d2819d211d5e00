package serve

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/kf"
	"repro/internal/machine"
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
