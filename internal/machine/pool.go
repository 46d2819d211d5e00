package machine

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Message payload buffers are recycled through two tiers of size-classed
// free lists. The first tier lives on each Proc (lock-free, owning
// goroutine only) and covers symmetric steady-state traffic, where every
// released receive buffer backs an equal-sized later send. The second tier
// is this machine-wide sharedPool: a mutex-guarded LIFO list per
// power-of-two size class. It exists because buffers migrate — acquired by
// the sender, released by the receiver — so a processor whose send sizes
// differ from its receive sizes (an asymmetric irregular gather: big serve
// lists, small request lists) would otherwise strand capacity on peers that
// never need it and allocate a fresh buffer every replay. Routing per-class
// overflow through the machine makes total capacity per class stabilize at
// the peak in-flight demand, after which replay of any fixed traffic
// pattern performs no heap allocation.
//
// A miss in the first tier asks the second for a class at least the size
// it needs, exact class first. On a fresh machine every list is empty, and
// a cold run misses on nearly every acquire, so the tier keeps a mask of
// its non-empty classes and locks only the classes the mask names: a miss
// against an empty tier takes no lock at all. Each class's lock and list
// header sit in an entry of their own, padded so that no two classes share
// a cache line: ranks on different partitions that use different classes
// do not pull one line back and forth.
//
// All pooled buffers have power-of-two capacities (AcquireBuf rounds
// allocations up to the class size), so classing by capacity is exact.

const (
	// numClasses covers pooled capacities up to 2^(numClasses-1) values
	// (64 MiB of float64s at 24); larger buffers bypass the pool.
	numClasses = 24
	// localKeep bounds how many buffers of one class a processor's free
	// list holds; releases beyond it flow to the machine-wide tier.
	localKeep = 8
	// localGrow is how many entries a processor's full free list grows by.
	localGrow = 2
	// sharedKeep is the least a machine-wide per-class list may hold
	// before buffers are dropped for the garbage collector; a machine of
	// more ranks keeps one buffer per rank (see sharedPool.keep).
	sharedKeep = 4096
)

// sizeClass returns the class whose buffers hold at least n values: the
// smallest c with 1<<c >= n. Only meaningful for n >= 1.
func sizeClass(n int) int {
	return bits.Len(uint(n - 1))
}

// capClass returns the class a buffer of capacity cp files under — the
// largest c with 1<<c <= cp — or -1 when the buffer is unpoolable (empty
// or beyond the top class).
func capClass(cp int) int {
	if cp == 0 {
		return -1
	}
	c := bits.Len(uint(cp)) - 1
	if c >= numClasses {
		return -1
	}
	return c
}

// sharedPool is the machine-wide tier: per-class LIFO free lists, each
// guarded by its own mutex, and the mask of the classes whose list holds a
// buffer.
//
// Bit c of nonEmpty is set exactly while class c's list is non-empty, as
// seen by whoever holds class c's lock: only that holder writes bit c, put
// setting it when the list goes from empty to one buffer and take clearing
// it when the list goes back to empty. A take reads the mask without a
// lock, so it may find a bit set on a list another taker has just emptied
// (it locks, finds nothing and moves on) or miss a buffer put a moment
// after its read (it allocates, as it would have had it scanned the list
// an instant earlier): the tier is a cache, and either race costs at most
// one allocation.
type sharedPool struct {
	classes [numClasses]poolClass
	// keep bounds each class's list: max(sharedKeep, ranks). A gather to
	// one root puts a buffer per rank in flight when the root cannot keep
	// up with its senders — under the calendar engine, the ranks of every
	// partition but the root's send while the root waits for its own
	// partition's — and a list that could not hold them all would
	// allocate the difference again on every replay.
	keep     int
	nonEmpty atomic.Uint32
}

// poolClass is one class's list and its lock. Its hot fields are the
// first 32 bytes of a 128-byte entry, so two classes' locks are at least
// 96 bytes apart and share no 64-byte cache line wherever the machine's
// allocation places the array (nor a 128-byte pair of lines when it is
// aligned); keep and the mask, after the last entry's padding, share none
// with any lock.
type poolClass struct {
	mu   sync.Mutex
	bufs [][]float64
	_    [128 - unsafe.Sizeof(sync.Mutex{}) - unsafe.Sizeof([][]float64(nil))]byte
}

// take pops a buffer of class >= c, preferring the exact class, and locks
// only the classes the mask says are non-empty.
func (sp *sharedPool) take(c int) ([]float64, bool) {
	for m := sp.nonEmpty.Load() >> c << c; m != 0; m &= m - 1 {
		cc := bits.TrailingZeros32(m)
		cl := &sp.classes[cc]
		cl.mu.Lock()
		if l := len(cl.bufs); l > 0 {
			buf := cl.bufs[l-1]
			cl.bufs[l-1] = nil
			cl.bufs = cl.bufs[:l-1]
			if l == 1 {
				sp.nonEmpty.And(^uint32(1 << cc))
			}
			cl.mu.Unlock()
			return buf, true
		}
		cl.mu.Unlock()
	}
	return nil, false
}

// put files a buffer under class c, dropping it when the class is full.
func (sp *sharedPool) put(c int, buf []float64) {
	cl := &sp.classes[c]
	cl.mu.Lock()
	if len(cl.bufs) < sp.keep {
		cl.bufs = append(cl.bufs, buf)
		if len(cl.bufs) == 1 {
			sp.nonEmpty.Or(1 << c)
		}
	}
	cl.mu.Unlock()
}
