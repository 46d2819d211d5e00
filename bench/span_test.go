package main

import (
	"math"
	"testing"
	"time"
)

func TestSpanSelfTimeAndCover(t *testing.T) {
	const ms = time.Millisecond
	// Op 0: a 100 ms root with children covering 20..50 and 40..90 (they
	// overlap by 10), the second with a grandchild 50..70. Op 1: a 10 ms
	// root with one child sticking out past its end.
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Name: "op", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Op: 0, Name: "a", Start: 20 * ms, End: 50 * ms},
		{ID: 2, Parent: 0, Op: 0, Name: "b", Start: 40 * ms, End: 90 * ms},
		{ID: 3, Parent: 2, Op: 0, Name: "c", Start: 50 * ms, End: 70 * ms},
		{ID: 4, Parent: -1, Op: 1, Name: "op", Start: 200 * ms, End: 210 * ms},
		{ID: 5, Parent: 4, Op: 1, Name: "a", Start: 205 * ms, End: 215 * ms},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"op": (100-70)*ms + 5*ms, // union of a and b is 20..90; op 1's child covers 205..210
		"a":  30*ms + 10*ms,
		"b":  (50 - 20) * ms,
		"c":  20 * ms,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %q = %v, want %v", name, self[name], w)
		}
	}
	cover := spanCover(spans)
	if len(cover) != 2 || math.Abs(cover[0]-0.7) > 1e-12 || math.Abs(cover[1]-0.5) > 1e-12 {
		t.Errorf("spanCover = %v, want [0.7 0.5]", cover)
	}
}

func TestRecorderNilIsTracingOff(t *testing.T) {
	var off *recorder
	id := off.begin("op", -1, 0)
	off.end(id)
	if at := off.synthetic("x", id, 0, off.startOf(id), time.Second); at != 0 {
		t.Errorf("synthetic on a nil recorder advanced to %v", at)
	}

	rec := newRecorder()
	root := rec.begin("op", -1, 7)
	child := rec.begin("child", root, 7)
	rec.end(child)
	at := rec.synthetic("reported", child, 7, rec.startOf(child), 3*time.Millisecond)
	rec.end(root)
	if len(rec.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(rec.spans))
	}
	s := rec.spans[2]
	if s.Parent != child || s.Op != 7 || s.End-s.Start != 3*time.Millisecond || at != s.End {
		t.Errorf("synthetic span = %+v (next start %v)", s, at)
	}
	if r := rec.spans[root]; r.End < rec.spans[child].End || r.Parent != -1 {
		t.Errorf("root span = %+v", r)
	}
}
