package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// sampleFrames covers every kind plus the numeric edge cases the codec must
// carry bit-exactly: NaN, infinities, signed zero, subnormals, extreme ints.
func sampleFrames() []Frame {
	return []Frame{
		{Kind: KindHello, Seq: 3},
		{Kind: KindData, Src: 0, Dst: 1, Tag: 0xCAFE, Seq: 1, Arrival: 1.5, Payload: []float64{1, 2, 3}},
		{Kind: KindDeliver, Src: 7, Dst: 2, Tag: 1 << 40, Seq: 99, Arrival: 1e-300,
			Payload: []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324}},
		{Kind: KindData, Src: -1, Dst: math.MaxInt32, Tag: math.MaxUint64, Seq: math.MaxUint64,
			A: 1, B: 2, Arrival: math.MaxFloat64},
		{Kind: KindBarrier, Seq: 41},
		{Kind: KindReset, Seq: 2},
		{Kind: KindResetAck, Seq: 2, A: 77},
		{Kind: KindAbort},
		{Kind: KindProbe, Seq: 5},
		{Kind: KindProbeAck, Seq: 5, A: 123, B: 122},
		{Kind: KindShutdown},
		{Kind: KindData, Src: 3, Dst: 4, Tag: 9, Seq: 10, Arrival: 0.25, Payload: make([]float64, 1000)},
		{Kind: KindRunSpec, Seq: 1, A: 27, Payload: PackBytes([]byte(`{"program":"jacobi","n":64}`))},
		{Kind: KindRunAck, Seq: 1, A: 1, B: 9, Payload: PackBytes([]byte("no such p"))},
		{Kind: KindRunStart, Seq: 1},
		{Kind: KindRankResult, Src: 12, Seq: 1, A: 0, B: 0,
			Payload: []float64{1.25, 2.5, math.Float64frombits(300), math.Float64frombits(12), 0, 0, 0.5, 0.25, 1, 3.75}},
		{Kind: KindStallHint, Seq: 2},
		// The mesh handshake and the stall plane's payloads: a worker's
		// Hello with its peer address (and its GOMAXPROCS in B), the
		// coordinator's peer table, a 2-node state (flags, barrier
		// generation, sent[2], recv[2]) in a report and in a probe ack, and
		// a result batch ending in the 12-word trailer (state, link
		// msgs[2], link bytes[2], flushes, CPU microseconds).
		{Kind: KindHello, Seq: 1, A: 22, B: 2, Payload: PackBytes([]byte("/tmp/kfipc1/node1.sock"))},
		{Kind: KindHello, Seq: 2, A: 31, Payload: PackBytes([]byte("127.0.0.1:40001\n127.0.0.1:40002"))},
		{Kind: KindStallHint, Src: 1, Seq: 2, Payload: bitWords(1, 3, 0, 17, 0, 16)},
		{Kind: KindProbeAck, Src: 1, Seq: 6, Payload: bitWords(2, 0, 0, math.MaxUint64, 0, 0x7FF8000000000001)},
		{Kind: KindRankResult, Src: 1, Seq: 1, A: 1, B: 12,
			Payload: append(bitWords(2, 0, 0, 0), bitWords(2, 3, 0, 17, 0, 16, 0, 40, 0, 2160, 9, 5700)...)},
	}
}

// bitWords packs counters as bit-container payload words.
func bitWords(v ...uint64) []float64 {
	w := make([]float64, len(v))
	for i, u := range v {
		w[i] = math.Float64frombits(u)
	}
	return w
}

// TestPackBytesRoundTrip pins the byte<->payload-word packing used by the
// run protocol for opaque content (specs, error texts), including lengths
// that straddle word boundaries and high-bit bytes whose packed words look
// like NaNs.
func TestPackBytesRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("x"),
		[]byte("exactly8"),
		[]byte("nine long"),
		[]byte(`{"program":"adi","args":[64,1,1,0,2]}`),
		{0xFF, 0xF8, 0, 0, 0, 0, 0, 0x7F, 0xFF}, // packs into a NaN-patterned word
	}
	for _, b := range cases {
		words := PackBytes(b)
		if len(words) != (len(b)+7)/8 {
			t.Fatalf("%q: packed into %d words, want %d", b, len(words), (len(b)+7)/8)
		}
		got, err := UnpackBytes(words, len(b))
		if err != nil {
			t.Fatalf("%q: unpack: %v", b, err)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("round trip mismatch: %q -> %q", b, got)
		}
	}
	if _, err := UnpackBytes(PackBytes([]byte("short")), 9); err == nil {
		t.Fatal("unpacking more bytes than the words hold did not error")
	}
	if _, err := UnpackBytes(nil, -1); err == nil {
		t.Fatal("negative length did not error")
	}
}

// TestDecodeConcatenatedFrames pins the property frame batching relies on:
// many frames coalesced into one socket write decode back one by one, each
// consuming exactly its own bytes, with no framing drift across the batch.
func TestDecodeConcatenatedFrames(t *testing.T) {
	frames := sampleFrames()
	var batch []byte
	for i := range frames {
		batch = AppendFrame(batch, &frames[i])
	}
	rest := batch
	for i := range frames {
		var got Frame
		n, err := DecodeFrame(rest, &got, nil)
		if err != nil {
			t.Fatalf("frame %d in batch: %v", i, err)
		}
		if !framesEqual(&frames[i], &got) {
			t.Fatalf("frame %d in batch mismatch:\n in: %+v\nout: %+v", i, frames[i], got)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over after decoding the batch", len(rest))
	}
}

// framesEqual compares frames with payload floats by bit pattern, so NaN
// equals NaN and -0 differs from +0.
func framesEqual(a, b *Frame) bool {
	if a.Kind != b.Kind || a.Src != b.Src || a.Dst != b.Dst || a.Tag != b.Tag ||
		a.Seq != b.Seq || a.A != b.A || a.B != b.B ||
		math.Float64bits(a.Arrival) != math.Float64bits(b.Arrival) ||
		len(a.Payload) != len(b.Payload) {
		return false
	}
	for i := range a.Payload {
		if math.Float64bits(a.Payload[i]) != math.Float64bits(b.Payload[i]) {
			return false
		}
	}
	return true
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		f := f
		enc := AppendFrame(nil, &f)
		if len(enc) != EncodedLen(&f) {
			t.Fatalf("%v: encoded %d bytes, EncodedLen says %d", f.Kind, len(enc), EncodedLen(&f))
		}
		var got Frame
		n, err := DecodeFrame(enc, &got, nil)
		if err != nil {
			t.Fatalf("%v: decode: %v", f.Kind, err)
		}
		if n != len(enc) {
			t.Fatalf("%v: consumed %d of %d bytes", f.Kind, n, len(enc))
		}
		if !framesEqual(&f, &got) {
			t.Fatalf("%v: round trip mismatch:\n in: %+v\nout: %+v", f.Kind, f, got)
		}
		// Canonical: re-encoding the decoded frame reproduces the bytes.
		if re := AppendFrame(nil, &got); !bytes.Equal(enc, re) {
			t.Fatalf("%v: re-encode differs from original bytes", f.Kind)
		}
	}
}

func TestFrameStreamRoundTrip(t *testing.T) {
	frames := sampleFrames()
	var buf bytes.Buffer
	var wscratch []byte
	for i := range frames {
		if err := WriteFrame(&buf, &wscratch, &frames[i]); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	var rscratch []byte
	for i := range frames {
		var got Frame
		if err := ReadFrame(&buf, &got, &rscratch, nil); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !framesEqual(&frames[i], &got) {
			t.Fatalf("frame %d: stream round trip mismatch:\n in: %+v\nout: %+v", i, frames[i], got)
		}
	}
	// A clean close between frames is io.EOF, not a decode error.
	var got Frame
	if err := ReadFrame(&buf, &got, &rscratch, nil); err != io.EOF {
		t.Fatalf("read past end: got %v, want io.EOF", err)
	}
}

func TestDecodeAcquireHook(t *testing.T) {
	f := Frame{Kind: KindData, Src: 1, Dst: 2, Tag: 3, Seq: 4, Arrival: 0.5, Payload: []float64{9, 8, 7}}
	enc := AppendFrame(nil, &f)
	backing := make([]float64, 16)
	calls := 0
	acquire := func(n int) []float64 { calls++; return backing[:n] }
	var got Frame
	if _, err := DecodeFrame(enc, &got, acquire); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("acquire called %d times, want 1", calls)
	}
	if &got.Payload[0] != &backing[0] {
		t.Fatal("decoded payload does not use the acquired buffer")
	}
	if !framesEqual(&f, &got) {
		t.Fatalf("mismatch: %+v vs %+v", f, got)
	}
	// Zero-payload frames must not call acquire at all.
	ctrl := Frame{Kind: KindProbe, Seq: 1}
	enc = AppendFrame(nil, &ctrl)
	if _, err := DecodeFrame(enc, &got, acquire); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("acquire called for an empty payload")
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := AppendFrame(nil, &Frame{Kind: KindData, Src: 1, Dst: 2, Tag: 3, Arrival: 1, Payload: []float64{4}})

	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mutate(b)
		return b
	}

	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short prefix", valid[:3], ErrTruncated},
		{"truncated body", valid[:len(valid)-1], ErrTruncated},
		{"header only declared", corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b, HeaderLen-1) }), ErrTruncated},
		{"oversize prefix", corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b, MaxBody+1) }), ErrOversize},
		{"oversize payload count", corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[4+49:], MaxPayloadWords+1) }), ErrOversize},
		{"zero kind", corrupt(func(b []byte) { b[4] = 0 }), ErrBadKind},
		{"unknown kind", corrupt(func(b []byte) { b[4] = 0xEE }), ErrBadKind},
		{"length mismatch", corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[4+49:], 2) }), ErrLengthMismatch},
	}
	for _, tc := range cases {
		var f Frame
		n, err := DecodeFrame(tc.in, &f, nil)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got error %v, want %v", tc.name, err, tc.want)
		}
		if n != 0 {
			t.Errorf("%s: consumed %d bytes on error", tc.name, n)
		}
	}
}

// TestDecodeNoOverAllocate pins that a hostile length prefix cannot make the
// decoder allocate: the mismatch between the declared payload count and the
// actual body length is detected before any buffer is sized from the count.
func TestDecodeNoOverAllocate(t *testing.T) {
	// A frame whose header claims MaxPayloadWords of payload but carries one.
	b := AppendFrame(nil, &Frame{Kind: KindData, Payload: []float64{1}})
	binary.LittleEndian.PutUint32(b[4+49:], MaxPayloadWords)
	var f Frame
	acquired := false
	_, err := DecodeFrame(b, &f, func(n int) []float64 { acquired = true; return make([]float64, n) })
	if !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("got %v, want ErrLengthMismatch", err)
	}
	if acquired {
		t.Fatal("decoder sized a buffer from an unvalidated payload count")
	}
}

func TestReadFrameTruncatedStream(t *testing.T) {
	enc := AppendFrame(nil, &Frame{Kind: KindData, Payload: []float64{1, 2}})
	for cut := 1; cut < len(enc); cut++ {
		var f Frame
		var scratch []byte
		err := ReadFrame(bytes.NewReader(enc[:cut]), &f, &scratch, nil)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}
}

func TestKindString(t *testing.T) {
	for k := KindInvalid + 1; k < kindEnd; k++ {
		if s := k.String(); s == "" || s[0] == 'w' {
			t.Errorf("kind %d has no name: %q", k, s)
		}
	}
	if s := Kind(200).String(); s != "wire.Kind(200)" {
		t.Errorf("unknown kind string: %q", s)
	}
}

// TestHotPathAllocFree pins the warmed encode/decode cycle at zero
// allocations: scratch buffers reused, payloads from the acquire hook.
func TestHotPathAllocFree(t *testing.T) {
	f := Frame{Kind: KindData, Src: 1, Dst: 2, Tag: 3, Seq: 4, Arrival: 0.5, Payload: make([]float64, 64)}
	var wscratch, rscratch []byte
	var sink bytes.Buffer
	backing := make([]float64, 64)
	acquire := func(n int) []float64 { return backing[:n] }
	sink.Grow(1 << 16)
	// Warm the scratch buffers.
	if err := WriteFrame(&sink, &wscratch, &f); err != nil {
		t.Fatal(err)
	}
	var got Frame
	var rd bytes.Reader
	allocs := testing.AllocsPerRun(100, func() {
		sink.Reset()
		if err := WriteFrame(&sink, &wscratch, &f); err != nil {
			t.Fatal(err)
		}
		rd.Reset(sink.Bytes())
		if err := ReadFrame(&rd, &got, &rscratch, acquire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed encode/decode cycle allocates %.1f times per frame, want 0", allocs)
	}
}
