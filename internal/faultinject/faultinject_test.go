package faultinject

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

func TestFlipsDeterministic(t *testing.T) {
	a := NewFlips(42, 1<<16, 1e-3)
	b := NewFlips(42, 1<<16, 1e-3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different flip sets")
	}
	c := NewFlips(43, 1<<16, 1e-3)
	if reflect.DeepEqual(a.offs, c.offs) {
		t.Fatal("different seeds produced identical flip offsets")
	}
	if a.Count() == 0 {
		t.Fatal("rate 1e-3 over 64 KiB produced no flips")
	}
	for i, m := range a.masks {
		if m == 0 {
			t.Fatalf("flip %d has zero mask", i)
		}
	}
	for i := 1; i < len(a.offs); i++ {
		if a.offs[i] <= a.offs[i-1] {
			t.Fatalf("offsets not strictly increasing at %d", i)
		}
	}
}

func TestBurstFlips(t *testing.T) {
	f := NewBurstFlips(7, 4096, 3, 16)
	if f.Count() == 0 || f.Count() > 3*16 {
		t.Fatalf("burst flip count %d out of range", f.Count())
	}
	for i := 1; i < len(f.offs); i++ {
		if f.offs[i] <= f.offs[i-1] {
			t.Fatalf("offsets not strictly increasing at %d", i)
		}
	}
}

// TestApplyWindows checks that applying flips window-by-window at any
// window size produces the same corrupted image as one whole-buffer
// application — the property that makes ReaderAt consistent across
// readers with different chunk sizes.
func TestApplyWindows(t *testing.T) {
	const size = 1 << 12
	clean := make([]byte, size)
	for i := range clean {
		clean[i] = byte(i)
	}
	f := NewFlips(99, size, 0.01)
	whole := append([]byte(nil), clean...)
	f.Apply(whole, 0)
	if bytes.Equal(whole, clean) {
		t.Fatal("flips changed nothing")
	}
	for _, win := range []int{1, 3, 64, 1000} {
		img := append([]byte(nil), clean...)
		for off := 0; off < size; off += win {
			end := off + win
			if end > size {
				end = size
			}
			f.Apply(img[off:end], int64(off))
		}
		if !bytes.Equal(img, whole) {
			t.Fatalf("window size %d produced a different image", win)
		}
	}
}

func TestReaderAt(t *testing.T) {
	clean := make([]byte, 1024)
	for i := range clean {
		clean[i] = 0xAA
	}
	f := NewFlips(5, 1024, 0.05)
	r := &ReaderAt{R: bytes.NewReader(clean), F: f}
	got := make([]byte, 1024)
	if _, err := r.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), clean...)
	f.Apply(want, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("ReaderAt image differs from direct Apply")
	}
	// sequential Reader sees the same image
	sr := &Reader{R: bytes.NewReader(clean), F: f}
	seq, err := io.ReadAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq, want) {
		t.Fatal("Reader image differs from ReaderAt image")
	}
}

func TestTruncatedReaderAt(t *testing.T) {
	data := []byte("0123456789")
	r := &TruncatedReaderAt{R: bytes.NewReader(data), N: 4}
	p := make([]byte, 10)
	n, err := r.ReadAt(p, 0)
	if n != 4 || (err != nil && err != io.EOF) {
		t.Fatalf("got n=%d err=%v, want 4 bytes and EOF", n, err)
	}
	if string(p[:n]) != "0123" {
		t.Fatalf("got %q", p[:n])
	}
	if _, err := r.ReadAt(p, 4); err != io.EOF {
		t.Fatalf("read past truncation: %v, want EOF", err)
	}
}

func TestShortReader(t *testing.T) {
	data := bytes.Repeat([]byte("abc"), 1000)
	sr := NewShortReader(bytes.NewReader(data), 11, 0)
	got, err := io.ReadAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("short reads corrupted the stream")
	}
}

func TestQuotaWriter(t *testing.T) {
	var buf bytes.Buffer
	w := &QuotaWriter{W: &buf, Remaining: 10}
	if n, err := w.Write([]byte("0123456")); n != 7 || err != nil {
		t.Fatalf("first write: n=%d err=%v", n, err)
	}
	n, err := w.Write([]byte("789AB"))
	if n != 3 || !errors.Is(err, ErrNoSpace) {
		t.Fatalf("overflowing write: n=%d err=%v, want 3, ErrNoSpace", n, err)
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("post-quota write: %v, want ErrNoSpace", err)
	}
	if buf.String() != "0123456789" {
		t.Fatalf("wrote %q", buf.String())
	}
}

func TestFS(t *testing.T) {
	fs := NewFS(8)
	w, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := w.Write([]byte("0123")); n != 4 || err != nil {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if n, err := w.Write([]byte("456789")); n != 4 || !errors.Is(err, ErrNoSpace) {
		t.Fatalf("quota write: n=%d err=%v, want 4, ErrNoSpace", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(r)
	if string(got) != "01234567" {
		t.Fatalf("read back %q", got)
	}
	if _, err := fs.Open("missing"); err == nil {
		t.Fatal("Open of a missing file succeeded")
	}
	fs.FailCreates(1)
	if _, err := fs.Create("b"); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("failed create: %v, want ErrNoSpace", err)
	}
	if _, err := fs.Create("b"); err != nil {
		t.Fatalf("create after fail budget: %v", err)
	}
	if fs.Count() != 2 {
		t.Fatalf("Count = %d, want 2", fs.Count())
	}
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("a"); err == nil {
		t.Fatal("Remove of a missing file succeeded")
	}
	if fs.Count() != 1 || fs.Len("a") != -1 {
		t.Fatalf("after Remove: Count = %d, Len(a) = %d", fs.Count(), fs.Len("a"))
	}
}

func TestHookReaderAt(t *testing.T) {
	data := make([]byte, 100)
	fired := 0
	h := &HookReaderAt{R: bytes.NewReader(data), Offset: 50, Fn: func() { fired++ }}
	p := make([]byte, 10)
	if _, err := h.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("hook fired before its offset")
	}
	if _, err := h.ReadAt(p, 45); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times after crossing offset, want 1", fired)
	}
	if _, err := h.ReadAt(p, 60); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times total, want exactly 1", fired)
	}
}

func TestDistort(t *testing.T) {
	d := Distort([]ClockFault{
		{Rank: 1, Kind: Step, At: 1.0, Delta: 0.5},
		{Rank: -1, Kind: FreqJump, At: 2.0, Delta: 1e-3},
		{Rank: 2, Kind: Reset, At: 3.0, Delta: 0.0},
	})
	if got := d(1, 0.5, 0.5); got != 0.5 {
		t.Fatalf("pre-fault reading distorted: %v", got) //tsync:exact — constants below the first fault's At; the distorter must return the reading bit-identically untouched
	}
	if got := d(1, 1.5, 1.5); got != 2.0 {
		t.Fatalf("step: got %v, want 2.0", got) //tsync:exact — a Step fault adds Delta exactly once: 1.5 + 0.5 is exact in binary
	}
	if got := d(0, 1.5, 1.5); got != 1.5 {
		t.Fatalf("step leaked to rank 0: %v", got) //tsync:exact — fault targets rank 1 only; rank 0's reading must pass through bit-identical
	}
	if got := d(0, 3.0, 3.0); got != 3.0+1e-3 {
		t.Fatalf("freq jump: got %v", got) //tsync:exact — single rounding: 3.0 + 1e-3 is computed the same way by the distorter
	}
	// rank 2 at t=4: step skipped (rank 1 only), freq jump applies, then
	// reset discards everything → 0 + (4-3) = 1
	if got := d(2, 4.0, 4.0); got != 1.0 {
		t.Fatalf("reset: got %v, want 1.0", got) //tsync:exact — reset discards state then adds elapsed 1.0; both operands exact
	}
}

// TestDistortPureComposition is the determinism contract the fingerprint
// accuracy matrix depends on: Distort must be a pure function of
// (rank, t, c) — stateless across calls, immune to caller mutation of
// the fault slice, and bit-identical however many times or in whatever
// order readings are evaluated. That is what makes a distorted synth
// trace identical no matter how many workers or what batch size the
// consuming pipeline uses.
func TestDistortPureComposition(t *testing.T) {
	faults := []ClockFault{
		{Rank: 1, Kind: Step, At: 0.3, Delta: 2e-3},
		{Rank: -1, Kind: FreqJump, At: 0.6, Delta: 4e-4},
		{Rank: 2, Kind: Reset, At: 0.9, Delta: 0.25},
		{Rank: 1, Kind: Step, At: 1.2, Delta: -1e-3},
	}
	d := Distort(faults)

	// the distorter snapshots the slice: later caller mutation must not
	// leak in
	mutated := Distort(faults)
	faults[0].Delta = 99

	type key struct {
		rank int
		t    float64
	}
	grid := make(map[key]float64)
	for rank := 0; rank < 4; rank++ {
		for i := 0; i <= 60; i++ {
			tt := float64(i) * 0.025
			grid[key{rank, tt}] = d(rank, tt, tt*(1+3e-5))
		}
	}
	// re-evaluate in reverse order and interleaved across ranks: every
	// reading must reproduce bit for bit (tsync:exact justification:
	// determinism IS the property under test)
	for i := 60; i >= 0; i-- {
		tt := float64(i) * 0.025
		for rank := 3; rank >= 0; rank-- {
			c := tt * (1 + 3e-5)
			if got := d(rank, tt, c); got != grid[key{rank, tt}] {
				t.Fatalf("rank %d t=%v: re-evaluation gave %v, first pass %v", rank, tt, got, grid[key{rank, tt}]) //tsync:exact — bit-determinism of re-evaluation is the property under test
			}
			if got := mutated(rank, tt, c); got != grid[key{rank, tt}] {
				t.Fatalf("rank %d t=%v: caller mutation of the fault slice leaked into the distorter", rank, tt) //tsync:exact — the snapshot semantics are the property under test
			}
		}
	}

	// composition is ordered and monotone in application: a reset after
	// a step discards the step; a step after a reset survives it
	stepThenReset := Distort([]ClockFault{
		{Rank: 0, Kind: Step, At: 0.2, Delta: 5.0},
		{Rank: 0, Kind: Reset, At: 0.5, Delta: 0},
	})
	if got := stepThenReset(0, 1.0, 1.0); got != 0.5 {
		t.Errorf("reset after step: got %v, want 0.5 (step discarded)", got) //tsync:exact — 0 + (1.0-0.5) is exact; the reset must erase the step entirely
	}
	resetThenStep := Distort([]ClockFault{
		{Rank: 0, Kind: Reset, At: 0.2, Delta: 0},
		{Rank: 0, Kind: Step, At: 0.5, Delta: 5.0},
	})
	if got := resetThenStep(0, 1.0, 1.0); got != 5.8 {
		t.Errorf("step after reset: got %v, want 5.8", got) //tsync:exact — (1.0-0.2) + 5.0 is exact; the step must survive the earlier reset
	}
}
