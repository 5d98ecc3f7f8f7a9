package trace

// Tests for the allocation-free codec fast paths: the slice-based
// decodeEvent must agree with the reader-based readEvent on every input
// either accepts, and the steady-state encode/decode hot paths must not
// allocate per event.

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"testing"

	"tsync/internal/xrand"
)

// fastPathEvents covers the encoding's edge cases: extreme varint
// values, negative fields, zero and non-finite floats.
func fastPathEvents() []Event {
	return []Event{
		{},
		{Kind: Send, Op: OpBcast, Time: 1.25, True: -3.5, Region: -1, Instance: 7, Partner: 3, Tag: 99, Bytes: 1 << 20, Comm: 1, Root: -1},
		{Kind: Recv, Time: math.Inf(1), True: math.SmallestNonzeroFloat64, Region: math.MaxInt32, Instance: math.MinInt32, Partner: -1, Tag: math.MaxInt32, Bytes: math.MinInt32, Comm: math.MaxInt32, Root: math.MinInt32},
		{Kind: CollEnd, Op: OpAlltoall, Time: -0.0, True: math.MaxFloat64, Region: 0, Instance: 0, Partner: 0, Tag: 0, Bytes: 0, Comm: 0, Root: 0},
	}
}

func randomEvent(rng *xrand.Source) Event {
	return Event{
		Kind:     Kind(rng.Intn(8)),
		Op:       CollOp(rng.Intn(8)),
		Time:     rng.Uniform(-1e3, 1e3),
		True:     rng.Uniform(0, 1e3),
		Region:   int32(rng.Intn(1<<16) - 1<<15),
		Instance: int32(rng.Intn(1 << 10)),
		Partner:  int32(rng.Intn(64) - 1),
		Tag:      int32(rng.Intn(1 << 12)),
		Bytes:    int32(rng.Intn(1 << 24)),
		Comm:     int32(rng.Intn(4)),
		Root:     int32(rng.Intn(8) - 1),
	}
}

// TestDecodeEventMatchesReadEvent: for a corpus of events, the fast
// slice decoder and the slow reader decoder must consume the same bytes
// and produce identical events.
func TestDecodeEventMatchesReadEvent(t *testing.T) {
	evs := fastPathEvents()
	rng := xrand.NewSource(41)
	for i := 0; i < 200; i++ {
		evs = append(evs, randomEvent(rng))
	}
	for i, want := range evs {
		enc := appendEvent(nil, &want)
		var fast Event
		n, ok := decodeEvent(enc, &fast)
		if !ok || n != len(enc) {
			t.Fatalf("event %d: decodeEvent consumed %d of %d bytes (ok=%v)", i, n, len(enc), ok)
		}
		var slow Event
		if err := readEvent(newTestBufReader(enc), &slow); err != nil {
			t.Fatalf("event %d: readEvent: %v", i, err)
		}
		if fast != slow || !sameEventBits(fast, want) {
			t.Fatalf("event %d: fast %+v slow %+v want %+v", i, fast, slow, want)
		}
	}
}

// sameEventBits compares events with float fields at the bit level, so
// NaN payloads and signed zeros count.
func sameEventBits(a, b Event) bool {
	at, bt := a.Time, b.Time
	aT, bT := a.True, b.True
	a.Time, a.True, b.Time, b.True = 0, 0, 0, 0
	return a == b &&
		math.Float64bits(at) == math.Float64bits(bt) &&
		math.Float64bits(aT) == math.Float64bits(bT)
}

// TestDecodeEventShortBuffer: every strict prefix must be rejected, not
// misdecoded.
func TestDecodeEventShortBuffer(t *testing.T) {
	ev := Event{Kind: Send, Time: 1, True: 2, Region: -1, Partner: 300, Tag: -5000, Root: -1}
	enc := appendEvent(nil, &ev)
	for n := 0; n < len(enc); n++ {
		var got Event
		if _, ok := decodeEvent(enc[:n], &got); ok {
			t.Fatalf("decodeEvent accepted a %d-byte prefix of a %d-byte event", n, len(enc))
		}
	}
}

// TestAppendEventMatchesEventWriter: the scratch-buffer Write path must
// produce exactly appendEvent's bytes on the wire.
func TestAppendEventMatchesEventWriter(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if _, err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !sameEventBits(back.Procs[0].Events[1], tr.Procs[0].Events[1]) {
		t.Fatalf("round trip changed event: %+v vs %+v", back.Procs[0].Events[1], tr.Procs[0].Events[1])
	}
}

func newTestBufReader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

// encodeN returns n events' canonical encodings concatenated.
func encodeN(t testing.TB, n int) ([]byte, []Event) {
	t.Helper()
	rng := xrand.NewSource(7)
	evs := make([]Event, n)
	var buf []byte
	for i := range evs {
		evs[i] = randomEvent(rng)
		buf = appendEvent(buf, &evs[i])
	}
	return buf, evs
}

// TestEventCodecAllocs pins the steady-state encode and decode hot paths
// to zero allocations per event.
func TestEventCodecAllocs(t *testing.T) {
	data, _ := encodeN(t, 4096)
	t.Run("decode", func(t *testing.T) {
		dec := NewEventDecoder(bytes.NewReader(data))
		var ev Event
		if avg := testing.AllocsPerRun(4000, func() {
			if err := dec.Decode(&ev); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("EventDecoder.Decode allocates %.2f per event, want 0", avg)
		}
	})
	t.Run("decode-batch", func(t *testing.T) {
		dec := NewEventDecoder(bytes.NewReader(data))
		evs := make([]Event, 64)
		if avg := testing.AllocsPerRun(60, func() {
			if _, err := dec.DecodeBatch(evs); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("EventDecoder.DecodeBatch allocates %.2f per slab, want 0", avg)
		}
	})
	t.Run("encode", func(t *testing.T) {
		scratch := make([]byte, 0, maxEventSize)
		ev := Event{Kind: Send, Time: 1.5, True: 2.5, Partner: 3, Tag: -7, Bytes: 1 << 16, Root: -1}
		if avg := testing.AllocsPerRun(4000, func() {
			scratch = appendEvent(scratch[:0], &ev)
		}); avg != 0 {
			t.Errorf("appendEvent into a worst-case scratch allocates %.2f per event, want 0", avg)
		}
	})
	t.Run("writer", func(t *testing.T) {
		ew, err := NewEventWriter(io.Discard, Header{ProcCount: 1})
		if err != nil {
			t.Fatal(err)
		}
		const n = 1 << 20
		if err := ew.BeginProc(ProcHeader{EventCount: n}); err != nil {
			t.Fatal(err)
		}
		ev := Event{Kind: Recv, Time: 4.5, True: 5.5, Partner: 0, Tag: 9, Region: -1, Root: -1}
		if avg := testing.AllocsPerRun(4000, func() {
			if err := ew.Write(&ev); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("EventWriter.Write allocates %.2f per event, want 0", avg)
		}
	})
}

// TestDecodeBatchTruncation: DecodeBatch must classify a mid-event cut
// as ErrBadFormat and a clean boundary as io.EOF.
func TestDecodeBatchTruncation(t *testing.T) {
	data, evs := encodeN(t, 10)
	dec := NewEventDecoder(bytes.NewReader(data))
	got := make([]Event, 16)
	n, err := dec.DecodeBatch(got)
	if n != 10 || err != io.EOF {
		t.Fatalf("DecodeBatch = %d, %v; want 10, io.EOF", n, err)
	}
	for i := range evs {
		if !sameEventBits(got[i], evs[i]) {
			t.Fatalf("event %d differs: %+v vs %+v", i, got[i], evs[i])
		}
	}
	dec = NewEventDecoder(bytes.NewReader(data[:len(data)-3]))
	if n, err := dec.DecodeBatch(got); err == nil || err == io.EOF {
		t.Fatalf("truncated DecodeBatch = %d, %v; want ErrBadFormat", n, err)
	}
}
