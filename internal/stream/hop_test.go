package stream

// White-box tests for the hop index (source.go): a strict v2 file is
// indexed from its block heads. The reference is the linear decode index
// it replaced, which v1 and salvage still use; newSource's decodeOnly
// runs it on the same bytes. The two must build the same index on clean
// files and reach the same verdict on damaged ones, the hop's coming
// from the first cursor pass when the damage is inside a frame payload.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"tsync/internal/analysis"
	"tsync/internal/core"
	"tsync/internal/measure"
	"tsync/internal/topology"
	"tsync/internal/trace"
	"tsync/internal/xrand"
)

const hopSeed = 0x40b1dec5

// localEvents is an Enter/Exit run that touches no other rank.
func localEvents(n int, t0 float64) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		k := trace.Enter
		if i%2 == 1 {
			k = trace.Exit
		}
		tm := t0 + float64(i)*1e-4
		evs[i] = trace.Event{Kind: k, Time: tm + 3e-6, True: tm, Region: 0, Partner: -1, Root: -1}
	}
	return evs
}

// hopTrace builds the in-memory trace of a differential case: a ring of
// `ranks` ranks from Synth (one rank: local events only), and with
// emptyRank an event-less rank followed by one more rank, so a proc
// block is followed directly by another.
func hopTrace(t *testing.T, ranks int, emptyRank bool, seed uint64) (*trace.Trace, []measure.Offset, []measure.Offset) {
	t.Helper()
	var tr *trace.Trace
	var init, fin []measure.Offset
	if ranks == 1 {
		tr = &trace.Trace{Machine: "hop", Timer: "synthetic", Regions: []string{"work"}}
		tr.Procs = []trace.Proc{{Rank: 0, Clock: "c0", Events: localEvents(300, 1)}}
		init, fin = []measure.Offset{{Rank: 0, WorkerTime: 0}}, []measure.Offset{{Rank: 0, WorkerTime: 2}}
	} else {
		var buf bytes.Buffer
		var err error
		init, fin, err = Synth(SynthSpec{Ranks: ranks, Steps: 40, CollEvery: 4, Seed: seed}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if tr, err = trace.Read(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if emptyRank {
		for _, evs := range [][]trace.Event{nil, localEvents(70, 0.5)} {
			r := len(tr.Procs)
			tr.Procs = append(tr.Procs, trace.Proc{Rank: r, Core: topology.CoreID{Node: r}, Clock: "extra", Events: evs})
			init = append(init, measure.Offset{Rank: r, WorkerTime: 0})
			fin = append(fin, measure.Offset{Rank: r, WorkerTime: 2})
		}
	}
	return tr, init, fin
}

func encodeV2(t *testing.T, tr *trace.Trace, frameEvents int, columnar bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.WriteOpts(&buf, tr, trace.WriterOptions{Version: trace.Version2, FrameEvents: frameEvents, Columnar: columnar}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// indexes opens data the three ways a v2 file can be indexed.
func indexes(t *testing.T, data []byte) (hop, dec, salv *Source) {
	t.Helper()
	var err error
	if hop, err = NewSource(bytes.NewReader(data)); err != nil {
		t.Fatalf("hop index: %v", err)
	}
	if dec, err = newSource(context.Background(), bytes.NewReader(data), SourceOptions{}, true); err != nil {
		t.Fatalf("decode index: %v", err)
	}
	if salv, err = NewSourceOpts(bytes.NewReader(data), SourceOptions{Salvage: true}); err != nil {
		t.Fatalf("salvage index: %v", err)
	}
	if !hop.hopped || dec.hopped || salv.hopped {
		t.Fatalf("index choice: hop %v, decode-only %v, salvage %v", hop.hopped, dec.hopped, salv.hopped)
	}
	return hop, dec, salv
}

// sameIndex fails unless got holds exactly want's index.
func sameIndex(t *testing.T, name string, got, want *Source) {
	t.Helper()
	if !reflect.DeepEqual(got.Procs(), want.Procs()) {
		t.Errorf("%s: Procs differ:\n got %+v\nwant %+v", name, got.Procs(), want.Procs())
	}
	if !reflect.DeepEqual(got.eventOff, want.eventOff) || !reflect.DeepEqual(got.endOff, want.endOff) {
		t.Errorf("%s: sections differ:\n got %v..%v\nwant %v..%v", name, got.eventOff, got.endOff, want.eventOff, want.endOff)
	}
	if got.Events() != want.Events() {
		t.Errorf("%s: %d events, want %d", name, got.Events(), want.Events())
	}
	if !reflect.DeepEqual(got.Header(), want.Header()) || got.Version() != want.Version() {
		t.Errorf("%s: header or version differs", name)
	}
}

// TestHopMatchesDecodeIndex: on clean traces of every v2 shape the hop
// builds the index the linear decode builds, strict and under salvage,
// and a census and a CLC job over it give the same results and bytes.
func TestHopMatchesDecodeIndex(t *testing.T) {
	pipe := Pipeline{Base: core.BaseInterp, CLC: true}
	for _, ranks := range []int{1, 3, 64} {
		for _, emptyRank := range []bool{false, true} {
			tr, init, fin := hopTrace(t, ranks, emptyRank, xrand.SeedAt(hopSeed, uint64(ranks)))
			for _, columnar := range []bool{false, true} {
				for _, fe := range []int{1, 64, 256} {
					t.Run(fmt.Sprintf("r%d/empty=%v/col=%v/fe%d", ranks, emptyRank, columnar, fe), func(t *testing.T) {
						data := encodeV2(t, tr, fe, columnar)
						hop, dec, salv := indexes(t, data)
						sameIndex(t, "hop vs decode", hop, dec)
						sameIndex(t, "hop vs salvage", hop, salv)
						if salv.Salvaged() {
							t.Error("clean file reported as salvaged")
						}
						var want analysis.Census
						var wantRes *Result
						var wantOut []byte
						for i, src := range []*Source{dec, hop, salv} {
							c, _, err := Census(src, Options{})
							if err != nil {
								t.Fatalf("source %d: Census: %v", i, err)
							}
							var out bytes.Buffer
							res, err := pipe.Run(src, &out, init, fin)
							if err != nil {
								t.Fatalf("source %d: Run: %v", i, err)
							}
							if i == 0 {
								want, wantRes, wantOut = c, res, out.Bytes()
								continue
							}
							if c != want {
								t.Errorf("source %d: census %+v, want %+v", i, c, want)
							}
							if res.Before != wantRes.Before || res.After != wantRes.After || res.CLCReport != wantRes.CLCReport || res.Distortion != wantRes.Distortion {
								t.Errorf("source %d: pipeline result differs", i)
							}
							if !bytes.Equal(out.Bytes(), wantOut) {
								t.Errorf("source %d: output bytes differ", i)
							}
						}
					})
				}
			}
		}
	}
}

// verdict is what indexing data and taking its census came to: a census,
// a format error, or (msg) some other error from the census walk.
type verdict struct {
	census analysis.Census
	format bool
	msg    string
}

// judge indexes data (by hop, or by linear decode) and takes its census.
// An error that is not trace.ErrBadFormat may only come out of the walk,
// where it is the engine's word on events both indexes deliver alike.
func judge(t *testing.T, data []byte, decodeOnly bool) verdict {
	t.Helper()
	src, err := newSource(context.Background(), bytes.NewReader(data), SourceOptions{}, decodeOnly)
	indexed := err == nil
	var c analysis.Census
	if indexed {
		c, _, err = Census(src, Options{})
	}
	switch {
	case err == nil:
		return verdict{census: c}
	case errors.Is(err, trace.ErrBadFormat):
		return verdict{format: true}
	case !indexed:
		t.Errorf("decodeOnly=%v: unclassified index error: %v", decodeOnly, err)
	}
	return verdict{msg: err.Error()}
}

// sameVerdict judges data both ways and fails unless they agree. It
// reports whether the data was accepted.
func sameVerdict(t *testing.T, what string, data []byte) bool {
	t.Helper()
	hop, dec := judge(t, data, false), judge(t, data, true)
	if hop != dec {
		t.Errorf("%s: hop %+v, decode index %+v", what, hop, dec)
	}
	return !hop.format && hop.msg == ""
}

// flipInputs are the small traces the flip sweep, the truncation test and
// the fuzzer start from: a row and a columnar file with several frames a
// rank, collectives, and an event-less rank.
func flipInputs(t testing.TB) [][]byte {
	var buf bytes.Buffer
	if _, _, err := Synth(SynthSpec{Ranks: 3, Steps: 5, CollEvery: 2, Seed: xrand.SeedAt(hopSeed, 100)}, &buf); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tr.Procs = append(tr.Procs, trace.Proc{Rank: 3, Clock: "idle"}, trace.Proc{Rank: 4, Clock: "local", Events: localEvents(9, 0.5)})
	var out [][]byte
	for _, columnar := range []bool{false, true} {
		var enc bytes.Buffer
		if _, err := trace.WriteOpts(&enc, tr, trace.WriterOptions{Version: trace.Version2, FrameEvents: 8, Columnar: columnar}); err != nil {
			t.Fatal(err)
		}
		out = append(out, enc.Bytes())
	}
	return out
}

// flipSweep calls visit with data after flipping bits of each of its
// first n bytes in turn (a seeded non-zero mask), restoring the byte
// afterwards.
func flipSweep(data []byte, n int, visit func(off int, flipped []byte)) {
	rng := xrand.NewSource(xrand.SeedAt(hopSeed, 101))
	mut := append([]byte(nil), data...)
	for off := 0; off < n; off++ {
		mask := byte(1 + rng.Intn(255))
		mut[off] ^= mask
		visit(off, mut)
		mut[off] ^= mask
	}
}

// TestHopFlipSweep: whatever single byte of a strict v2 file is damaged,
// NewSource + Census under the hop ends as it does under the decode
// index: a format error, or the identical census (flips in the header's
// strings and floats survive), never another census, an unclassified
// error or a panic.
func TestHopFlipSweep(t *testing.T) {
	for i, data := range flipInputs(t) {
		if !sameVerdict(t, "clean", data) {
			t.Fatalf("input %d: clean trace rejected", i)
		}
		survivors := 0
		flipSweep(data, len(data), func(off int, flipped []byte) {
			if sameVerdict(t, fmt.Sprintf("input %d, byte %d of %d", i, off, len(data)), flipped) {
				survivors++
			}
		})
		if survivors == 0 || survivors > len(data)/4 {
			t.Errorf("input %d: %d of %d flips survived; expected only the header's unchecksummed bytes to", i, survivors, len(data))
		}
	}
}

// FuzzSourceStrictV2 asserts the flip sweep's property on arbitrary
// bytes, starting from the clean inputs and the sweep's survivors. Those
// all lie in the file header, the only bytes no checksum covers, so the
// seeding sweeps no further.
func FuzzSourceStrictV2(f *testing.F) {
	for _, data := range flipInputs(f) {
		f.Add(data)
		er, err := trace.NewEventReader(bytes.NewReader(data))
		if err != nil {
			f.Fatal(err)
		}
		flipSweep(data, int(er.Offset()), func(_ int, flipped []byte) {
			if src, err := NewSource(bytes.NewReader(flipped)); err == nil {
				if _, _, err := Census(src, Options{}); err == nil {
					f.Add(append([]byte(nil), flipped...))
				}
			}
		})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A file damaged more than once may differ in which fault is
		// reported: the decode index meets payload damage before any
		// analysis starts, a job over the hop stops at whichever fault
		// comes first in event order, which can be the engine's error for
		// an inconsistency (a header that lost ranks, say) ahead of the
		// damaged frame. Both refuse the file; nothing else may differ.
		hop, dec := judge(t, data, false), judge(t, data, true)
		if hop != dec && !(dec.format && hop.msg != "") {
			t.Errorf("hop %+v, decode index %+v", hop, dec)
		}
	})
}

// scanBlocks lists the blocks of a clean v2 file.
func scanBlocks(t *testing.T, data []byte) []trace.ScannedBlock {
	t.Helper()
	er, err := trace.NewEventReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sc := trace.NewHeadScanner(bytes.NewReader(data), er.Offset())
	var blocks []trace.ScannedBlock
	for {
		b, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	if end := blocks[len(blocks)-1].End; end != int64(len(data)) {
		t.Fatalf("blocks end at %d of %d bytes", end, len(data))
	}
	return blocks
}

// TestHopTruncation: a file cut at any block boundary, inside any block
// head or inside any payload is refused both ways.
func TestHopTruncation(t *testing.T) {
	for i, data := range flipInputs(t) {
		for _, b := range scanBlocks(t, data) {
			for _, cut := range []int64{b.Start, b.Start + 2, b.Start + 5, b.Start + 12, b.End - 1} {
				if sameVerdict(t, fmt.Sprintf("input %d cut at %d (block at %d)", i, cut, b.Start), data[:cut]) {
					t.Errorf("input %d cut at %d: accepted", i, cut)
				}
			}
		}
	}
}

// TestHopTrailingBytes: both indexes stop once the last declared process
// has its declared events, so whatever follows (garbage, a stale copy of
// a block) changes nothing.
func TestHopTrailingBytes(t *testing.T) {
	for i, data := range flipInputs(t) {
		blocks := scanBlocks(t, data)
		want := judge(t, data, true)
		for name, tail := range map[string][]byte{
			"garbage":     []byte("not a block at all"),
			"stale block": data[blocks[len(blocks)-1].Start:],
		} {
			long := append(append([]byte(nil), data...), tail...)
			if !sameVerdict(t, name, long) {
				t.Errorf("input %d + %s: rejected", i, name)
			}
			if got := judge(t, long, false); got != want {
				t.Errorf("input %d + %s: %+v, want %+v", i, name, got, want)
			}
			hop, dec, _ := indexes(t, long)
			sameIndex(t, name, hop, dec)
		}
	}
}

// TestHopStructure: what the hop itself must refuse, on blocks whose
// checksums are good: a frame where a proc block is due, a frame of
// another rank inside a section, a frame beyond the declared count, a
// section that ends short, a missing tail rank and ranks out of order.
func TestHopStructure(t *testing.T) {
	tr, _, _ := hopTrace(t, 3, false, xrand.SeedAt(hopSeed, 3))
	data := encodeV2(t, tr, 16, true)
	blocks := scanBlocks(t, data)
	var procAt []int // the proc blocks, by index into blocks
	for i, b := range blocks {
		if !b.Frame {
			procAt = append(procAt, i)
		}
	}
	if len(procAt) != 3 || procAt[0] != 0 || procAt[1] < 4 {
		t.Fatalf("unexpected layout: proc blocks at %v of %d", procAt, len(blocks))
	}
	p1, p2 := procAt[1], procAt[2]
	if blocks[p1-1].Count >= blocks[1].Count {
		t.Fatalf("unexpected layout: rank 0's last frame holds %d events, its first %d", blocks[p1-1].Count, blocks[1].Count)
	}
	// span is the bytes of blocks [i, j)
	span := func(i, j int) []byte { return data[blocks[i].Start:blocks[j-1].End] }
	header, n := data[:blocks[0].Start], len(blocks)
	cases := []struct {
		name, want string
		parts      [][]byte
	}{
		{"frame where a proc block is due", "frame block where a process header was expected", [][]byte{header, span(1, n)}},
		{"frame of another rank", "rank 0 ended", [][]byte{header, span(0, 3), span(p1+1, p1+2), span(3, n)}},
		{"frame beyond the declared count", "exceeds the", [][]byte{header, span(0, p1-1), span(1, 2), span(p1, n)}},
		{"section ends short", "rank 0 ended", [][]byte{header, span(0, p1-1), span(p1, n)}},
		{"missing tail rank", "declares 3 processes, found 2", [][]byte{header, span(0, p2)}},
		{"ranks out of order", "proc 1 has rank 2", [][]byte{header, span(0, p1), span(p2, n)}},
	}
	for _, tc := range cases {
		bad := bytes.Join(tc.parts, nil)
		if sameVerdict(t, tc.name, bad) {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := NewSource(bytes.NewReader(bad)); !errors.Is(err, trace.ErrBadFormat) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: the hop returned %v, want a format error holding %q", tc.name, err, tc.want)
		}
	}
}

// TestHopOracleTimeRegressed: a frame with a good checksum whose oracle
// times run backwards passes the hop, which does not decode it, and
// fails the first cursor pass with the decode index's error.
func TestHopOracleTimeRegressed(t *testing.T) {
	tr, _, _ := hopTrace(t, 3, false, xrand.SeedAt(hopSeed, 4))
	const rank, at = 1, 37
	tr.Procs[rank].Events[at].True = tr.Procs[rank].Events[at-1].True - 1e-6
	want := fmt.Sprintf("rank %d event %d: oracle time regressed", rank, at)
	for _, columnar := range []bool{false, true} {
		data := encodeV2(t, tr, 16, columnar)
		_, err := newSource(context.Background(), bytes.NewReader(data), SourceOptions{}, true)
		if !errors.Is(err, trace.ErrBadFormat) || !strings.Contains(err.Error(), want) {
			t.Fatalf("decode index: %v, want %q", err, want)
		}
		src, err := NewSource(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("hop refused a file whose blocks are sound: %v", err)
		}
		passes := map[string]func() error{
			"Census (fill)": func() error { _, _, err := Census(src, Options{}); return err },
			"Census, batch 5": func() error {
				_, _, err := Census(src, Options{Batch: 5})
				return err
			},
			"Summarize (Next)": func() error { _, _, err := Summarize(src); return err },
			"Pipeline": func() error {
				var out bytes.Buffer
				_, err := Pipeline{Base: core.BaseNone, CLC: true}.Run(src, &out, nil, nil)
				if out.Len() != 0 {
					t.Errorf("the failed job wrote %d output bytes", out.Len())
				}
				return err
			},
		}
		for name, pass := range passes {
			if err := pass(); !errors.Is(err, trace.ErrBadFormat) || !strings.Contains(err.Error(), want) {
				t.Errorf("columnar=%v %s: %v, want %q", columnar, name, err, want)
			}
		}
	}
}
