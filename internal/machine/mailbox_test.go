package machine

import (
	"math/rand"
	"testing"
	"time"
)

// depthLocked counts the pending messages matching k — the tests' one look
// inside a mailbox. Caller holds mb.mu.
func (mb *mailbox) depthLocked(k msgKey) int {
	n := 0
	for i := range mb.cells {
		for ref := mb.cells[i].head; ref != 0; ref = mb.cells[ref-1].next {
			if mb.cells[ref-1].key == k {
				n++
			}
		}
	}
	return n
}

// payloads counts the slots, used or free, that still reference a payload.
func (mb *mailbox) payloads() int {
	n := 0
	for i := range mb.cells {
		if mb.cells[i].msg.data != nil {
			n++
		}
	}
	return n
}

// TestMailboxDeepStreamAndWideKeys: 50,000 messages pending on one
// (src, tag) stream, then on 50,000 distinct keys, drain in arrival order
// through a bare SharedTransport in far less than the second and a half the
// copy-the-rest-per-take queues took for the first.
func TestMailboxDeepStreamAndWideKeys(t *testing.T) {
	const n = 50000
	for _, tc := range []struct {
		name string
		tag  func(i int) Tag
	}{
		{"deep stream", func(int) Tag { return 7 }},
		{"wide keys", func(i int) Tag { return Tag(i) }},
	} {
		tr := NewSharedTransport(2)
		start := time.Now()
		for i := 0; i < n; i++ {
			tr.Send(0, 1, tc.tag(i), nil, float64(i))
		}
		for i := 0; i < n; i++ {
			if _, arrival, ok := tr.Recv(1, 0, tc.tag(i)); !ok || arrival != float64(i) {
				t.Fatalf("%s: receive %d: arrival %v, ok %v", tc.name, i, arrival, ok)
			}
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: %d messages took %v to put and drain, want well under a second", tc.name, n, took)
		}
	}
}

// TestMailboxMatchesModel drives one mailbox and a reference
// map[msgKey][]message with the same seeded put / take / has / reset
// sequence — a few hot keys whose streams run deep among thousands of
// one-shot keys, growing past 16,384 pending — and requires the same
// message, in the same order, with the same ok, at every step; that nothing
// but the pending messages keeps a payload alive; and that a warm mailbox
// allocates nothing.
func TestMailboxMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var mb mailbox
	model := map[msgKey][]message{}
	pending := 0
	var known []msgKey // every key ever put: takes and has() ask for these and for strangers
	randKey := func() msgKey {
		switch r := rng.Intn(10); {
		case r < 4: // hot: 4 keys
			return msgKey{src: rng.Intn(2), tag: Tag(rng.Intn(2))}
		case r < 9 && len(known) > 0:
			return known[rng.Intn(len(known))]
		default: // one-shot, consecutive sources under scope-like tags
			return msgKey{src: rng.Intn(1 << 14), tag: RootScope().Child(rng.Intn(4), 0).Tag(uint16(rng.Intn(3)))}
		}
	}
	put := func(k msgKey, seq int) {
		msg := message{data: []float64{float64(seq)}, arrival: float64(seq)}
		mb.putLocked(k, msg)
		model[k] = append(model[k], msg)
		known = append(known, k)
		pending++
	}
	take := func(step int, k msgKey) {
		got, ok := mb.takeLocked(k)
		q := model[k]
		if ok != (len(q) > 0) {
			t.Fatalf("step %d: take(%v) ok = %v with %d pending in the model", step, k, ok, len(q))
		}
		if !ok {
			return
		}
		if want := q[0]; got.arrival != want.arrival || &got.data[0] != &want.data[0] {
			t.Fatalf("step %d: take(%v) = message %v, model's oldest is %v", step, k, got.arrival, want.arrival)
		}
		model[k] = q[1:]
		pending--
	}
	check := func(step int) {
		if mb.pending != pending {
			t.Fatalf("step %d: mailbox counts %d pending, model %d", step, mb.pending, pending)
		}
		if got := mb.payloads(); got != pending {
			t.Fatalf("step %d: %d slots reference a payload with %d messages pending", step, got, pending)
		}
	}
	peak := 0
	var resetAt []int // pending count at each reset
	for step := 0; step < 400000; step++ {
		// Phases: fill well past 16,384 pending, drain most of it, repeat.
		fill := (step/50000)%2 == 0
		k := randKey()
		switch r := rng.Intn(100); {
		case step%130000 == 129999: // three resets, full and part-drained
			resetAt = append(resetAt, pending)
			mb.reset()
			clear(model)
			pending = 0
			check(step)
		case r < 10:
			if got, want := mb.hasLocked(k), len(model[k]) > 0; got != want {
				t.Fatalf("step %d: has(%v) = %v, model %v", step, k, got, want)
			}
		case (r < 70) == fill:
			put(k, step)
		default:
			take(step, k)
		}
		peak = max(peak, pending)
		if step%4096 == 0 {
			check(step)
		}
	}
	t.Logf("peak %d pending, %d distinct keys, resets at %v pending", peak, len(model), resetAt)
	if peak <= 16384 {
		t.Fatalf("the sequence peaked at %d pending, want growth past 16,384", peak)
	}
	// Drain key by key: every stream in its arrival order, then nothing left.
	for k := range model {
		for len(model[k]) > 0 {
			take(-1, k)
		}
		take(-1, k) // and one more: ok must be false
	}
	check(-1)
	if mb.pending != 0 || mb.payloads() != 0 {
		t.Fatalf("drained mailbox: %d pending, %d payloads", mb.pending, mb.payloads())
	}

	// Warm: traffic below the high-water mark, and a reset in the middle of
	// it, allocate nothing.
	data := []float64{1}
	if avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 1000; i++ {
			mb.putLocked(msgKey{src: i % 7, tag: Tag(i % 13)}, message{data: data})
		}
		for i := 0; i < 500; i++ {
			mb.takeLocked(msgKey{src: i % 7, tag: Tag(i % 13)})
		}
		mb.reset()
		if n := mb.payloads(); n != 0 {
			t.Fatalf("%d payloads reachable after reset", n)
		}
	}); avg != 0 {
		t.Errorf("warm put/take/reset: %v allocs per round, want 0", avg)
	}
}

// TestMailboxChainsStayShort: the gather root's pending set — one key per
// source under one tag — and one source's consecutive tags both spread over
// the buckets; no chain is long enough to make a match a scan.
func TestMailboxChainsStayShort(t *testing.T) {
	for _, tc := range []struct {
		name string
		key  func(i int) msgKey
	}{
		{"sources under one tag", func(i int) msgKey { return msgKey{src: i, tag: RootScope().Tag(3)} }},
		{"tags from one source", func(i int) msgKey { return msgKey{src: 5, tag: RootScope().Tag(uint16(i))} }},
		{"small integers", func(i int) msgKey { return msgKey{src: i % 128, tag: Tag(i / 128)} }},
	} {
		var mb mailbox
		for i := 0; i < 16383; i++ {
			mb.putLocked(tc.key(i), message{})
		}
		longest := 0
		for i := range mb.cells {
			n := 0
			for ref := mb.cells[i].head; ref != 0; ref = mb.cells[ref-1].next {
				n++
			}
			longest = max(longest, n)
		}
		// Load factor <= 1: a uniform hash's longest chain is ~8 here.
		if longest > 16 {
			t.Errorf("%s: longest chain %d of %d buckets holding %d keys", tc.name, longest, len(mb.cells), mb.pending)
		}
	}
}
