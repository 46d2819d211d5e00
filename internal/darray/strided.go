package darray

// Strided is the element addressing of a view whose free dimensions are all
// replicated or contiguously distributed, reduced to plain index
// arithmetic: the cell at global index (g₀, g₁, …) of the free dimensions
// is element Origin + g₀·Stride[0] + g₁·Stride[1] + … of the local block
// (Storage). It is what the arity accessors compute on every call; a
// compiled loop that has checked its whole index box against the windows
// once addresses its cells with it and skips the per-access window test.
type Strided struct {
	Origin int
	Stride [maxInlineAcc]int
	// ReadLo..ReadHi is, per free dimension, the inclusive index window
	// At and Old accept (owned cells and halo, clipped to the extent);
	// WriteLo..WriteHi the window Set accepts (owned cells). An empty
	// window has Hi < Lo.
	ReadLo, ReadHi   [maxInlineAcc]int
	WriteLo, WriteHi [maxInlineAcc]int
}

// Strided returns a's addressing. ok is false when the calling processor
// does not participate, a free dimension is neither replicated nor
// contiguous (cyclic ownership is a question for the distribution, not
// arithmetic), or the view has more free dimensions than the arity
// accessors serve.
func (a *Array) Strided() (s Strided, ok bool) {
	if !a.participates || len(a.acc) > maxInlineAcc {
		return s, false
	}
	s.Origin = a.fixedOff
	for k := range a.acc {
		x := &a.acc[k]
		if x.kind == axGeneral {
			return Strided{}, false
		}
		lo := a.origin(k)
		s.Origin += (x.base - lo) * x.stride
		s.Stride[k] = x.stride
		s.ReadLo[k], s.ReadHi[k] = lo+x.rlo, lo+x.rlo+x.rspan-1
		s.WriteLo[k], s.WriteHi[k] = lo, lo+x.wspan-1
	}
	return s, true
}

// Storage returns the calling processor's local block, which Strided
// addresses, and its copy-in snapshot while one is active (nil otherwise) —
// the buffers At/Set and Old read. A write through data is a write to the
// array and bypasses Set's ownership test, so a caller writes only cells
// it has checked against the write window.
func (a *Array) Storage() (data, shadow []float64) {
	st := a.st
	if st.root.snapOn {
		shadow = st.old()
	}
	return st.data[:len(st.data):len(st.data)], shadow
}

// SharesStorage reports whether a and b are views (the array itself or
// sections of it) of the same local block.
func (a *Array) SharesStorage(b *Array) bool { return a.st == b.st }
