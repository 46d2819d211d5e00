package machine

import (
	"math/rand"
	"sync"
	"testing"
)

// checkPoolMask fails unless bit c of the mask is set exactly when class
// c's list is non-empty, and every list holds as many buffers as want[c].
func checkPoolMask(t *testing.T, step int, sp *sharedPool, want func(c int) int) {
	t.Helper()
	mask := sp.nonEmpty.Load()
	for c := range sp.classes {
		n := len(sp.classes[c].bufs)
		if w := want(c); n != w {
			t.Fatalf("step %d: class %d holds %d buffers, want %d", step, c, n, w)
		}
		if set := mask&(1<<c) != 0; set != (n > 0) {
			t.Fatalf("step %d: class %d holds %d buffers, mask bit %v (mask %#x)", step, c, n, set, mask)
		}
	}
}

// TestSharedPoolMatchesModel drives the machine-wide tier with a seeded
// sequence of puts and takes against a per-class LIFO model whose take
// scans upward from the asked class: every take returns the model's buffer,
// the mask names exactly the non-empty classes after every step, and a
// class holds at most keep buffers.
func TestSharedPoolMatchesModel(t *testing.T) {
	const keep = 6
	rng := rand.New(rand.NewSource(45))
	sp := &sharedPool{keep: keep}
	var model [numClasses][][]float64
	randClass := func() int {
		if rng.Intn(4) == 0 {
			return rng.Intn(numClasses) // anywhere, the top class included
		}
		return 3 + rng.Intn(4) // a few hot classes, full and empty in turn
	}
	seq := 0
	for step := 0; step < 100000; step++ {
		c := randClass()
		if rng.Intn(100) < 48 {
			seq++
			buf := []float64{float64(seq)} // identity, not capacity: put files by c
			sp.put(c, buf)
			if len(model[c]) < keep {
				model[c] = append(model[c], buf)
			}
		} else {
			got, ok := sp.take(c)
			var want []float64
			for cc := c; cc < numClasses && want == nil; cc++ {
				if l := len(model[cc]); l > 0 {
					want, model[cc] = model[cc][l-1], model[cc][:l-1]
				}
			}
			if ok != (want != nil) {
				t.Fatalf("step %d: take(%d) ok = %v, model has a buffer: %v", step, c, ok, want != nil)
			}
			if ok && &got[0] != &want[0] {
				t.Fatalf("step %d: take(%d) = buffer %v, model's is %v", step, c, got[0], want[0])
			}
		}
		checkPoolMask(t, step, sp, func(c int) int { return len(model[c]) })
	}
}

// TestSharedPoolConservation puts fresh buffers and takes from several
// goroutines at once: no buffer is handed to two takers, and what is left
// in the tier is every buffer put and not taken.
func TestSharedPoolConservation(t *testing.T) {
	const workers, steps = 4, 20000
	sp := &sharedPool{keep: workers * steps} // nothing is dropped
	taken := make([][]int, workers)
	puts := make([]int, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := range steps {
				c := rng.Intn(5) + 2*w // neighbouring workers share classes
				if rng.Intn(2) == 0 {
					sp.put(c, []float64{float64(w*steps + i)})
					puts[w]++
				} else if buf, ok := sp.take(c); ok {
					taken[w] = append(taken[w], int(buf[0]))
				}
			}
		}()
	}
	wg.Wait()
	seen := map[int]bool{}
	nPut, nTaken := 0, 0
	for w := range workers {
		nPut += puts[w]
		nTaken += len(taken[w])
		for _, id := range taken[w] {
			if seen[id] {
				t.Fatalf("buffer %d was handed to two takers", id)
			}
			seen[id] = true
		}
	}
	checkPoolMask(t, -1, sp, func(c int) int { return len(sp.classes[c].bufs) })
	left := 0
	for {
		buf, ok := sp.take(0)
		if !ok {
			break
		}
		if id := int(buf[0]); seen[id] {
			t.Fatalf("buffer %d is still in the tier after it was taken", id)
		}
		seen[int(buf[0])] = true
		left++
	}
	if left != nPut-nTaken {
		t.Errorf("%d buffers left in the tier, want %d puts - %d takes = %d", left, nPut, nTaken, nPut-nTaken)
	}
	if m := sp.nonEmpty.Load(); m != 0 {
		t.Errorf("drained tier's mask is %#x, want 0", m)
	}
}
