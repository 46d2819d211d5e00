package machine

import (
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, Uniform())
}

func TestRunExecutesEveryProc(t *testing.T) {
	m := New(7, Uniform())
	seen := make([]bool, 7)
	err := m.Run(func(p *Proc) error {
		seen[p.Rank()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ok := range seen {
		if !ok {
			t.Errorf("rank %d did not run", r)
		}
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	m := New(1, Uniform())
	err := m.Run(func(p *Proc) error {
		p.Compute(10)
		if p.Clock() != 10 {
			t.Errorf("clock = %v, want 10", p.Clock())
		}
		p.Compute(-5) // ignored
		if p.Clock() != 10 {
			t.Errorf("clock after negative compute = %v, want 10", p.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// eventLog is a Sink that keeps every event, in order (one processor).
type eventLog []Event

func (l *eventLog) Record(e Event) { *l = append(*l, e) }

// TestComputeEachMatchesCompute pins ComputeEach to what it stands for: n
// calls of Compute — the same clock to the bit (n additions, which one
// multiplied charge would not give), the same flop count and, under a
// trace, the same events.
func TestComputeEachMatchesCompute(t *testing.T) {
	cost := Balanced() // a FlopTime whose multiples do not add exactly
	for _, traced := range []bool{false, true} {
		for _, c := range []struct{ flops, n int }{{5, 64}, {8, 1}, {3, 1000}, {0, 10}, {-2, 4}, {5, 0}, {7, -3}} {
			var clocks [2]float64
			var stats [2]Stats
			var logs [2]eventLog
			for form := 0; form < 2; form++ {
				m := New(1, cost)
				if traced {
					m.SetSink(&logs[form])
				}
				err := m.Run(func(p *Proc) error {
					p.Compute(3) // a clock that is not zero
					if form == 0 {
						for k := 0; k < c.n; k++ {
							p.Compute(c.flops)
						}
					} else {
						p.ComputeEach(c.flops, c.n)
					}
					clocks[form], stats[form] = p.Clock(), p.Stats()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if math.Float64bits(clocks[0]) != math.Float64bits(clocks[1]) || stats[0] != stats[1] {
				t.Errorf("traced=%v ComputeEach(%d, %d): clock %v stats %+v, Compute loop clock %v stats %+v",
					traced, c.flops, c.n, clocks[1], stats[1], clocks[0], stats[0])
			}
			if len(logs[0]) != len(logs[1]) {
				t.Fatalf("traced=%v ComputeEach(%d, %d): %d events, Compute loop %d", traced, c.flops, c.n, len(logs[1]), len(logs[0]))
			}
			for k := range logs[0] {
				if logs[0][k] != logs[1][k] {
					t.Errorf("traced=%v ComputeEach(%d, %d): event %d is %+v, want %+v", traced, c.flops, c.n, k, logs[1][k], logs[0][k])
				}
			}
		}
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	m := New(2, Uniform())
	payload := []float64{1, 2, 3}
	err := m.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.Send(1, TagOf(1), payload)
		case 1:
			got := p.Recv(0, TagOf(1))
			if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
				t.Errorf("got %v, want %v", got, payload)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesData(t *testing.T) {
	m := New(2, Uniform())
	err := m.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			buf := []float64{42}
			p.Send(1, 0, buf)
			buf[0] = -1 // must not affect the message
		case 1:
			if v := p.RecvValue(0, 0); v != 42 {
				t.Errorf("got %v, want 42", v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagsKeepStreamsSeparate(t *testing.T) {
	m := New(2, Uniform())
	err := m.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.SendValue(1, TagOf(7), 7)
			p.SendValue(1, TagOf(9), 9)
		case 1:
			// Receive in the opposite order of sending.
			if v := p.RecvValue(0, TagOf(9)); v != 9 {
				t.Errorf("tag 9: got %v", v)
			}
			if v := p.RecvValue(0, TagOf(7)); v != 7 {
				t.Errorf("tag 7: got %v", v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerTag(t *testing.T) {
	m := New(2, Uniform())
	err := m.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			for i := 0; i < 10; i++ {
				p.SendValue(1, 3, float64(i))
			}
		case 1:
			for i := 0; i < 10; i++ {
				if v := p.RecvValue(0, 3); v != float64(i) {
					t.Errorf("message %d: got %v", i, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeCausality(t *testing.T) {
	// Receiver must never observe a message before sender clock + latency.
	cost := CostModel{FlopTime: 1, Latency: 100, BytePeriod: 0}
	m := New(2, cost)
	err := m.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.Compute(50) // clock 50
			p.SendValue(1, 0, 1)
		case 1:
			p.RecvValue(0, 0)
			if p.Clock() < 150 {
				t.Errorf("receiver clock %v, want >= 150", p.Clock())
			}
			if p.Stats().IdleTime < 150 {
				t.Errorf("idle time %v, want >= 150", p.Stats().IdleTime)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLateReceiverDoesNotIdle(t *testing.T) {
	cost := CostModel{FlopTime: 1, Latency: 1}
	m := New(2, cost)
	err := m.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.SendValue(1, 0, 1) // arrives at ~1
		case 1:
			p.Compute(1000) // clock 1000, message long since arrived
			p.RecvValue(0, 0)
			if p.Stats().IdleTime != 0 {
				t.Errorf("idle time %v, want 0", p.Stats().IdleTime)
			}
			if p.Clock() != 1000 {
				t.Errorf("clock %v, want 1000 (zero overheads)", p.Clock())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageTimeBandwidth(t *testing.T) {
	cost := CostModel{Latency: 10, BytePeriod: 2}
	if got := cost.MessageTime(5); got != 20 {
		t.Errorf("MessageTime(5) = %v, want 20", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := New(2, Uniform())
	err := m.Run(func(p *Proc) error {
		p.Recv((p.Rank()+1)%2, 0) // both wait forever
		return nil
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestDeadlockWhenPeerExits(t *testing.T) {
	m := New(2, Uniform())
	err := m.Run(func(p *Proc) error {
		if p.Rank() == 1 {
			p.Recv(0, 0) // rank 0 exits immediately; this can never be satisfied
		}
		return nil
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestMismatchedTagDeadlocks(t *testing.T) {
	m := New(2, Uniform())
	err := m.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.SendValue(1, TagOf(1), 1)
			p.RecvValue(1, TagOf(2))
		case 1:
			p.RecvValue(0, TagOf(99)) // wrong tag: never matches
		}
		return nil
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestBodyErrorPropagates(t *testing.T) {
	m := New(3, Uniform())
	boom := errors.New("boom")
	err := m.Run(func(p *Proc) error {
		if p.Rank() == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	m := New(2, Uniform())
	err := m.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			panic("kaboom")
		}
		// Rank 1 blocks; the abort must wake it.
		p.Recv(0, 0)
		return nil
	})
	if err == nil {
		t.Fatal("panic was swallowed")
	}
}

func TestMachineReusableAcrossRuns(t *testing.T) {
	m := New(2, Uniform())
	for round := 0; round < 3; round++ {
		err := m.Run(func(p *Proc) error {
			if p.Rank() == 0 {
				p.Compute(5)
				p.SendValue(1, 0, float64(round))
			} else {
				if v := p.RecvValue(0, 0); v != float64(round) {
					t.Errorf("round %d: got %v", round, v)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.ProcClock(0) != 5 {
			t.Errorf("round %d: clock not reset, got %v", round, m.ProcClock(0))
		}
	}
}

func TestElapsedIsMaxClock(t *testing.T) {
	m := New(3, Uniform())
	err := m.Run(func(p *Proc) error {
		p.Compute(10 * (p.Rank() + 1))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Elapsed(); got != 30 {
		t.Errorf("Elapsed = %v, want 30", got)
	}
}

func TestStatsCounters(t *testing.T) {
	m := New(2, IPSC2())
	err := m.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.Compute(100)
			p.Send(1, 0, make([]float64, 4))
		} else {
			p.Recv(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := m.TotalStats()
	if total.Flops != 100 {
		t.Errorf("Flops = %d, want 100", total.Flops)
	}
	if total.MsgsSent != 1 || total.MsgsRecv != 1 {
		t.Errorf("msgs = %d/%d, want 1/1", total.MsgsSent, total.MsgsRecv)
	}
	if total.BytesSent != 32 {
		t.Errorf("BytesSent = %d, want 32", total.BytesSent)
	}
	if total.CommTime <= 0 || total.IdleTime <= 0 {
		t.Errorf("CommTime=%v IdleTime=%v, want both positive", total.CommTime, total.IdleTime)
	}
}

func TestSendToSelf(t *testing.T) {
	m := New(1, Uniform())
	err := m.Run(func(p *Proc) error {
		p.SendValue(0, 5, 3.5)
		if v := p.RecvValue(0, 5); v != 3.5 {
			t.Errorf("loopback got %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicVirtualTime(t *testing.T) {
	// The same ring program must produce bit-identical elapsed times on
	// every run, despite arbitrary goroutine scheduling.
	run := func() float64 {
		m := New(8, IPSC2())
		err := m.Run(func(p *Proc) error {
			next := (p.Rank() + 1) % 8
			prev := (p.Rank() + 7) % 8
			token := []float64{float64(p.Rank())}
			for i := 0; i < 20; i++ {
				p.Compute(37)
				p.Send(next, 1, token)
				token = p.Recv(prev, 1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Elapsed()
	}
	want := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d: elapsed %v != %v", i, got, want)
		}
	}
}

func TestClockMonotoneProperty(t *testing.T) {
	// Property: along any processor's execution, the clock never
	// decreases, for random message patterns on a small machine.
	f := func(seed int64) bool {
		rng := newSplitMix(uint64(seed))
		const p = 4
		const rounds = 12
		m := New(p, Balanced())
		// Precompute a deterministic schedule: each round, a random
		// permutation tells proc i to send to perm[i] then receive
		// from perm^{-1}(i), and a per-proc compute amount (drawn up
		// front: the generator must not be shared across goroutines).
		perms := make([][]int, rounds)
		work := make([][]int, rounds)
		for r := range perms {
			perms[r] = randPerm(rng, p)
			work[r] = make([]int, p)
			for i := range work[r] {
				work[r][i] = int(rng.next()%50) + 1
			}
		}
		ok := true
		err := m.Run(func(pr *Proc) error {
			last := 0.0
			check := func() {
				if pr.Clock() < last {
					ok = false
				}
				last = pr.Clock()
			}
			for r := 0; r < rounds; r++ {
				perm := perms[r]
				pr.Compute(work[r][pr.Rank()])
				check()
				pr.Send(perm[pr.Rank()], Tag(r), []float64{1})
				check()
				src := indexOf(perm, pr.Rank())
				pr.Recv(src, Tag(r))
				check()
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSendsEqualReceivesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := newSplitMix(uint64(seed))
		const p = 5
		m := New(p, ZeroComm())
		counts := make([]int, p) // messages proc i will send to (i+1)%p
		for i := range counts {
			counts[i] = int(rng.next() % 20)
		}
		err := m.Run(func(pr *Proc) error {
			n := counts[pr.Rank()]
			for i := 0; i < n; i++ {
				pr.SendValue((pr.Rank()+1)%p, 0, float64(i))
			}
			prev := (pr.Rank() + p - 1) % p
			for i := 0; i < counts[prev]; i++ {
				pr.RecvValue(prev, 0)
			}
			return nil
		})
		if err != nil {
			return false
		}
		tot := m.TotalStats()
		return tot.MsgsSent == tot.MsgsRecv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestIdleTimeNonNegativeAndFinite(t *testing.T) {
	m := New(4, IPSC2())
	err := m.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.Compute(1000)
			for d := 1; d < 4; d++ {
				p.Send(d, 0, make([]float64, 100))
			}
		} else {
			p.Recv(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		s := m.ProcStats(r)
		if s.IdleTime < 0 || math.IsNaN(s.IdleTime) || math.IsInf(s.IdleTime, 0) {
			t.Errorf("rank %d idle time %v", r, s.IdleTime)
		}
	}
}

// --- small deterministic PRNG helpers for property tests ---

type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func randPerm(r *splitMix, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

func TestSharedPoolKeepsABufferPerRank(t *testing.T) {
	// The machine-wide tier holds sharedKeep buffers of a class on a small
	// machine and one per rank on a larger one: a gather to one root can
	// have that many in flight, and what the list cannot hold is allocated
	// again on the next replay.
	for _, n := range []int{8, sharedKeep + 100} {
		m := New(n, ZeroComm())
		want := max(sharedKeep, n)
		for i := 0; i < want+10; i++ {
			m.bufs.put(2, make([]float64, 0, 4))
		}
		got := 0
		for {
			if _, ok := m.bufs.take(2); !ok {
				break
			}
			got++
		}
		if got != want {
			t.Errorf("%d ranks: the class kept %d buffers, want %d", n, got, want)
		}
	}
}

// TestInternSharesByContent: ranks interning equal content on every
// partition at once get one object, built once; other content gets its own.
func TestInternSharesByContent(t *testing.T) {
	m := New(64, Uniform())
	m.SetExecutor(NewCalendarExecutor(4))
	defer m.Close()
	got := make([]*[]int, m.Size())
	var built atomic.Int32
	err := m.Run(func(p *Proc) error {
		key := []byte{'t', byte(p.Rank() % 3)} // three classes
		got[p.Rank()] = Intern(m, key, func() *[]int {
			built.Add(1)
			return &[]int{p.Rank() % 3}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n != 3 {
		t.Errorf("built %d objects for 3 contents, want 3", n)
	}
	for r, v := range got {
		if v != got[r%3] || (*v)[0] != r%3 {
			t.Errorf("rank %d holds %p = %v, want rank %d's %p", r, v, *v, r%3, got[r%3])
		}
	}
}

// TestInternDropsUnheldValues: the table holds its values weakly — an
// entry whose value nothing else holds leaves it after a collection, a
// held one stays and is still the one a lookup returns, and the same
// content interned again is built afresh.
func TestInternDropsUnheldValues(t *testing.T) {
	m := New(1, ZeroComm())
	mk := func(v int) func() *[2]int { return func() *[2]int { return &[2]int{v, v} } }
	kept := Intern(m, []byte("kept"), mk(1))
	for k := 0; k < 8; k++ {
		Intern(m, []byte{'d', byte(k)}, mk(k))
	}
	if n := m.Interned(); n != 9 {
		t.Fatalf("table holds %d entries after 9 contents, want 9", n)
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.Interned() > 1 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := m.Interned(); n != 1 {
		t.Fatalf("table holds %d entries after the unheld values were collected, want 1", n)
	}
	if got := Intern(m, []byte("kept"), mk(2)); got != kept || got[0] != 1 {
		t.Errorf("a held value's lookup returned %p = %v, want %p", got, *got, kept)
	}
	if got := Intern(m, []byte{'d', 0}, mk(5)); got[0] != 5 {
		t.Errorf("a dropped content was not built afresh: got %v", *got)
	}
	runtime.KeepAlive(kept)
}
