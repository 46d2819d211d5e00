package sched

import (
	"testing"
	"unsafe"

	"repro/internal/machine"
)

func TestRunMergingAndCounts(t *testing.T) {
	var s Schedule
	s.BeginSend(1, 7)
	s.AddSendRun(0, 4)
	s.AddSendRun(4, 4) // adjacent: must merge
	s.AddSendRun(10, 2)
	if got := len(s.Sends[0].Runs); got != 2 {
		t.Fatalf("adjacent runs not merged: %d runs", got)
	}
	if s.Sends[0].N != 10 {
		t.Fatalf("message size %d, want 10", s.Sends[0].N)
	}
	s.AddMove(0, 5, 3)
	s.AddMove(3, 8, 2) // adjacent on both sides: must merge
	s.AddMove(9, 20, 1)
	if len(s.Local) != 2 || s.Local[0].Len != 5 {
		t.Fatalf("moves not merged: %+v", s.Local)
	}
	msgs, words := s.Counts()
	if msgs != 1 || words != 10 {
		t.Fatalf("Counts = (%d, %d), want (1, 10)", msgs, words)
	}
}

func TestExecuteRoundTrip(t *testing.T) {
	// Rank 0 sends two strided runs to rank 1; rank 1 unpacks them into a
	// shifted layout and mirrors the data back with a local move mixed in.
	m := machine.New(2, machine.ZeroComm())
	sc := machine.RootScope()
	err := m.Run(func(p *machine.Proc) error {
		if p.Rank() == 0 {
			src := []float64{1, 2, 3, 4, 5, 6, 7, 8}
			var s Schedule
			s.BeginSend(1, 1)
			s.AddSendRun(0, 2) // 1 2
			s.AddSendRun(4, 3) // 5 6 7
			s.Execute(p, sc, src, nil)

			var back Schedule
			back.BeginRecv(1, 2)
			back.AddRecvRun(1, 5)
			dst := make([]float64, 8)
			back.Execute(p, sc, nil, dst)
			want := []float64{0, 1, 2, 5, 6, 7, 0, 0}
			for i := range want {
				if dst[i] != want[i] {
					t.Errorf("round trip dst[%d] = %v, want %v", i, dst[i], want[i])
				}
			}
			return nil
		}
		var s Schedule
		s.BeginRecv(-1, 1) // peers are offsets from the executing rank
		s.AddRecvRun(2, 5)
		local := []float64{9, 9}
		_ = local
		dst := make([]float64, 8)
		s.Execute(p, sc, nil, dst)
		want := []float64{0, 0, 1, 2, 5, 6, 7, 0}
		for i := range want {
			if dst[i] != want[i] {
				t.Errorf("dst[%d] = %v, want %v", i, dst[i], want[i])
			}
		}
		var back Schedule
		back.BeginSend(-1, 2)
		back.AddSendRun(2, 5)
		back.Execute(p, sc, dst, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExecuteLocalMovesAndSizeCheck(t *testing.T) {
	m := machine.New(1, machine.ZeroComm())
	err := m.Run(func(p *machine.Proc) error {
		src := []float64{1, 2, 3, 4}
		dst := make([]float64, 4)
		var s Schedule
		s.AddMove(1, 0, 2)
		s.Execute(p, machine.RootScope(), src, dst)
		if dst[0] != 2 || dst[1] != 3 {
			t.Errorf("local move wrote %v", dst)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCompact: the runs survive unchanged in one exact-size slab, and a run
// added after Compact leaves its neighbours alone.
func TestCompact(t *testing.T) {
	var s Schedule
	s.BeginSend(1, 0)
	s.AddSendRun(0, 2)
	s.AddSendRun(10, 2)
	s.BeginSend(2, 1)
	s.AddSendRun(4, 1)
	s.BeginRecv(1, 0)
	s.BeginRecv(2, 1)
	s.AddRecvRun(20, 3)
	s.AddRecvRun(30, 3)
	s.AddRecvRun(40, 3)
	want := [][]Run{
		{{0, 2}, {10, 2}}, {{4, 1}},
		{}, {{20, 3}, {30, 3}, {40, 3}},
	}
	s.Compact()
	msgs := append(append([]*Msg{}, &s.Sends[0], &s.Sends[1]), &s.Recvs[0], &s.Recvs[1])
	total := 0
	for i, m := range msgs {
		if len(m.Runs) != len(want[i]) || cap(m.Runs) != len(m.Runs) {
			t.Fatalf("message %d: %d runs with capacity %d, want %d exactly", i, len(m.Runs), cap(m.Runs), len(want[i]))
		}
		for k, r := range m.Runs {
			if r != want[i][k] {
				t.Errorf("message %d run %d: %v, want %v", i, k, r, want[i][k])
			}
		}
		total += len(m.Runs)
	}
	first, last := &s.Sends[0].Runs[0], &s.Recvs[1].Runs[2]
	if got := int(uintptr(unsafe.Pointer(last))-uintptr(unsafe.Pointer(first)))/int(unsafe.Sizeof(Run{})) + 1; got != total {
		t.Errorf("the runs span %d slab cells, want %d: not one slab", got, total)
	}
	s.Sends = s.Sends[:1]
	s.AddSendRun(50, 1) // outgrows its share of the slab: must copy out
	if got := s.Sends[0].Runs; len(got) != 3 || got[2] != (Run{50, 1}) {
		t.Errorf("send 0 after a late run: %v", got)
	}
	if got := msgs[1].Runs[0]; got != (Run{4, 1}) {
		t.Errorf("send 1's run was overwritten by its neighbour's append: %v", got)
	}
}
